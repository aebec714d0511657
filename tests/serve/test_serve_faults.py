"""Serving-layer resilience: shedding, degraded health, disconnects, deadlines."""

from __future__ import annotations

import socket
import time

import pytest

from repro import faults
from repro.serve import ServeClient, ServerThread, preregister
from repro.serve.client import encode_request, parse_response
from repro.service.workloads import build_service, forward_graph

from conftest import serving


@pytest.fixture(autouse=True)
def clean_hooks():
    faults.uninstall()
    yield
    faults.uninstall()


@pytest.fixture()
def shedding_server():
    """A server whose dispatch bound is zero: every work request sheds."""
    service = build_service(forward_graph(40, 2, seed=9), commit_timeout=30.0)
    with ServerThread(
        service, owns_service=True, max_inflight=0
    ) as harness:
        preregister(harness.server)
        host, port = harness.address
        with ServeClient(host, port) as client:
            yield harness, client


class TestShedding:
    def test_overloaded_txn_gets_503_with_retry_hints(self, shedding_server):
        _, client = shedding_server
        status, payload = client.submit("link-forward", [500, 501])
        assert status == 503
        assert "overloaded" in payload["error"]
        assert payload["retry_after"] >= 1

    def test_retry_after_header_is_on_the_wire(self, shedding_server):
        harness, _ = shedding_server
        host, port = harness.address
        with socket.create_connection((host, port), timeout=10.0) as raw:
            raw.sendall(encode_request("POST", "/read", {"scan": "E"}))
            blob = b""
            while b"\r\n\r\n" not in blob:
                blob += raw.recv(65536)
        head = blob.split(b"\r\n\r\n", 1)[0].decode("ascii")
        assert head.startswith("HTTP/1.1 503")
        assert "retry-after: 1" in head.lower()

    def test_health_degrades_while_shedding_and_stays_reachable(self, shedding_server):
        _, client = shedding_server
        client.submit("link-forward", [500, 501])  # force one shed
        health = client.health()
        assert health["status"] == "degraded"
        assert health["shed"] >= 1
        assert health["max_inflight"] == 0

    def test_submit_retrying_surfaces_the_last_503(self, shedding_server):
        _, client = shedding_server
        begun = time.monotonic()
        status, payload = client.submit_retrying(
            "link-forward", [500, 501], max_retries=1, backoff=0.01
        )
        assert status == 503
        # it really did back off before the retry (Retry-After honored)
        assert time.monotonic() - begun >= 0.5

    def test_pipelined_reads_beyond_the_bound_are_shed(self):
        service = build_service(forward_graph(40, 2, seed=9), commit_timeout=30.0)
        with ServerThread(service, owns_service=True, max_inflight=3) as harness:
            with socket.create_connection(harness.address, timeout=10.0) as raw:
                raw.sendall(b"".join(
                    encode_request("POST", "/read", {"scan": "E"})
                    for _ in range(8)
                ))
                blob, replies = b"", []
                while len(replies) < 8:
                    parsed = parse_response(blob)
                    if parsed is None:
                        blob += raw.recv(65536)
                        continue
                    reply, rest = parsed
                    replies.append((reply, blob[: len(blob) - len(rest)]))
                    blob = rest
        assert [status for (status, _), _raw in replies] == [200] * 3 + [503] * 5
        for (status, payload), wire in replies[3:]:
            assert payload["retry_after"] >= 1
            assert b"retry-after: 1\r\n" in wire.lower()


class TestHealthyPath:
    def test_health_reports_ok_with_capacity_fields(self, served):
        _, _, client = served
        health = client.health()
        assert health["status"] == "ok"
        assert health["inflight"] == 0
        assert health["max_inflight"] >= 1
        assert health["shed"] == 0

    def test_deadline_ms_is_validated(self, served):
        _, _, client = served
        for bad in (-5, 0, "soon"):
            status, payload = client.request(
                "POST", "/txn",
                {"template": "link-forward", "params": [500, 501],
                 "deadline_ms": bad},
            )
            assert status == 400
            assert "deadline_ms" in payload["error"]

    def test_generous_deadline_commits(self, served):
        _, _, client = served
        status, outcome = client.submit_retrying(
            "link-forward", [500, 501], deadline_ms=30_000
        )
        assert status == 200
        assert outcome["status"] == "committed"
        assert outcome["retryable"] is False

    def test_submit_retrying_rides_out_a_transient_commit_fault(self, served):
        service, _, client = served
        service.commit_retries = 0  # force the abort out to the client
        faults.install(
            faults.FaultPlan().site("storage.commit_batch", exc="storage", hits=(1,))
        )
        status, outcome = client.submit_retrying(
            "link-forward", [510, 511], max_retries=3, backoff=0.01
        )
        assert status == 200
        assert outcome["status"] == "committed"

    def test_retryable_abort_is_typed_on_the_wire(self, served):
        service, _, client = served
        service.commit_retries = 0
        faults.install(
            faults.FaultPlan().site("storage.commit_batch", exc="storage")
        )
        status, outcome = client.submit("link-forward", [512, 513])
        assert status == 200
        assert outcome["status"] == "aborted"
        assert outcome["retryable"] is True
        assert "commit failed" in outcome["reason"]


class TestDisconnects:
    def test_injected_write_reset_is_counted_not_crashed(self, served_metered):
        _, harness, client = served_metered
        faults.install(faults.FaultPlan().site("serve.write.reset", hits=(1,)))
        with pytest.raises(ConnectionError):
            client.submit("link-forward", [520, 521])
        faults.uninstall()
        # the server survived: a fresh connection works and the disconnect
        # was counted instead of tearing down the loop
        host, port = harness.address
        with ServeClient(host, port) as fresh:
            assert fresh.health()["status"] in ("ok", "degraded")
            text = fresh.metrics_text()
        count = _metric_value(text, "serve_client_disconnects")
        assert count >= 1

    def test_abrupt_client_close_mid_request_is_clean(self, served):
        _, harness, _ = served
        host, port = harness.address
        raw = socket.create_connection((host, port), timeout=10.0)
        # half a request, then a hard close
        raw.sendall(b"POST /txn HTTP/1.1\r\nContent-Length: 999\r\n\r\n{")
        raw.close()
        time.sleep(0.1)
        with ServeClient(host, port) as fresh:
            assert fresh.health()["status"] in ("ok", "degraded")

    def test_read_slow_site_only_adds_latency(self, served):
        _, _, client = served
        faults.install(
            faults.FaultPlan().site("serve.read.slow", latency=0.02, exc="none")
        )
        status, outcome = client.submit("link-forward", [530, 531])
        assert status == 200
        assert outcome["status"] == "committed"


def _metric_value(text: str, name: str) -> float:
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] == name:
            return float(parts[1])
    raise AssertionError(f"metric {name!r} not found")
