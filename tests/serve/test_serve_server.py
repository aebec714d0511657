"""The server over real sockets: conformance, batching, failure handling, drain.

The central test is an *oracle comparison*: the same deterministic submission
sequence is driven once over the wire and once directly through an in-process
``TransactionService``, and the outcomes and final states must agree exactly
— the network layer may add latency, never semantics.  Around it: the forced
one-batch pipelining test (wedge the group-commit leader, pipeline N
transactions, release — all N must commit at one version), malformed-input
and disconnect handling, tracing/metrics plumbing, and the graceful-shutdown
contract (drained commits, zero leaked threads).
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.obs import trace as _trace
from repro.serve import ServeClient, ServerThread, encode_request, preregister
from repro.service.workloads import build_service, forward_graph
from repro.settings import KNOBS

from conftest import serving


# a deterministic mixed sequence: forward links, risky adds (loops and
# back-edges), deletes, and an ad-hoc multi-op transaction
def _script():
    steps = []
    for i in range(6):
        steps.append({"template": "link-forward", "params": [100 + i, 200 + i]})
    steps.append({"template": "add-edge", "params": [7, 7]})        # loop: refused
    steps.append({"template": "add-edge", "params": [201, 101]})    # back-edge
    steps.append({"template": "unlink", "params": [100, 200]})
    steps.append({"ops": [
        {"insert": ["E", [300, 301]]},
        {"insert": ["E", [301, 302]]},
    ]})
    return steps


class TestConformance:
    def test_wire_outcomes_equal_in_process_oracle(self, served):
        service, _harness, client = served
        oracle = build_service(forward_graph(40, 2, seed=9), commit_timeout=30.0)
        try:
            from repro.serve.server import standard_wire_templates

            wires = {w.name: w for w in standard_wire_templates()}
            for step in _script():
                status, wire_outcome = client.request("POST", "/txn", step)
                assert status == 200
                if "template" in step:
                    name, params = step["template"], tuple(step["params"])
                    work = wires[name].tracked_work(params)
                    local = oracle.execute(work, template=name, params=params)
                else:
                    from repro.serve import WireTemplate

                    adhoc = WireTemplate({"name": "_adhoc", "ops": step["ops"]})
                    local = oracle.execute(adhoc.tracked_work(()))
                assert wire_outcome["status"] == local.status, step
            assert client.scan("E")["result"] == sorted(
                (list(row) for row in oracle.snapshot().relation("E")), key=repr
            )
            assert service.invariant_holds()
            assert oracle.invariant_holds()
        finally:
            oracle.close()

    def test_reads_are_pinned_and_consistent(self, served):
        service, _harness, client = served
        client.submit("link-forward", [500, 501])
        assert client.contains("E", [500, 501])["result"] is True
        assert client.contains("E", [501, 500])["result"] is False
        assert client.evaluate("exists y . E(x, y)", x=500)["result"] is True
        assert client.evaluate("forall u . ~E(u, u)")["result"] is True
        scan = client.scan("E")
        assert [500, 501] in scan["result"]
        assert scan["version"] == service.store.version

    def test_template_listing_reflects_registrations(self, served):
        _service, _harness, client = served
        listed = client.request("GET", "/templates")[1]["templates"]
        names = {t["name"] for t in listed}
        assert {"link-forward", "unlink", "add-edge"} <= names
        spec = {"name": "listed", "ops": [{"insert": ["E", ["$0", "$1"]]}]}
        assert client.register_template(spec) == {"registered": "listed"}
        listed = client.request("GET", "/templates")[1]["templates"]
        assert spec in listed
        # re-registering the same shape is idempotent; a different shape is not
        client.register_template(spec)
        status, payload = client.request(
            "POST", "/templates",
            {**spec, "ops": [{"delete": ["E", ["$0", "$1"]]}]},
        )
        assert status == 400 and "different shape" in payload["error"]

    def test_a_name_the_service_already_has_is_refused(self):
        """Without ``preregister`` the server does not know the service's
        ``unlink``; an insert registered under that name would be judged as
        the service's delete and commit a loop."""
        service = build_service(forward_graph(10, 2, seed=9), commit_timeout=30.0)
        with ServerThread(service, owns_service=True) as harness:
            with ServeClient(*harness.address) as client:
                spec = {"name": "unlink", "ops": [{"insert": ["E", ["$0", "$1"]]}]}
                status, payload = client.request("POST", "/templates", spec)
                assert status == 400 and "with the service" in payload["error"]
                assert client.submit("unlink", [7, 7])[0] == 400  # unknown here
            assert service.invariant_holds()

    def test_concurrent_registrations_of_one_name_admit_one_shape(self, served):
        service, harness, _client = served
        specs = [
            {"name": "race", "ops": [{"insert": ["E", ["$0", "$1"]]}]},
            {"name": "race", "ops": [{"delete": ["E", ["$0", "$1"]]}]},
        ]
        start, statuses = threading.Barrier(len(specs)), []

        def register(spec):
            with ServeClient(*harness.address) as client:
                start.wait(timeout=10)
                statuses.append(client.request("POST", "/templates", spec)[0])

        threads = [threading.Thread(target=register, args=(spec,)) for spec in specs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert sorted(statuses) == [200, 400]
        with ServeClient(*harness.address) as client:
            listed = client.request("GET", "/templates")[1]["templates"]
            race = [t for t in listed if t["name"] == "race"]
            assert len(race) == 1 and race[0] in specs
            client.submit("race", [7, 7])  # a loop, if the insert won
        assert service.invariant_holds()

class TestBatching:
    def test_pipelined_batch_commits_at_one_version(self, served):
        """One network flush -> one group-commit batch -> one store apply."""
        service, _harness, client = served
        count = 6
        batches_before = service.stats.as_dict()["batches"]
        # wedge the leader seat so every pipelined transaction queues up
        assert service._commit_lock.acquire(timeout=5)
        released = threading.Event()

        def release_when_queued():
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                with service._queue_lock:
                    if len(service._queue) >= count:
                        break
                time.sleep(0.002)
            with service._commit_cond:
                service._commit_lock.release()
                service._commit_cond.notify_all()
            released.set()

        releaser = threading.Thread(target=release_when_queued)
        releaser.start()
        try:
            outcomes = client.submit_many(
                [
                    {"template": "link-forward", "params": [600 + i, 700 + i]}
                    for i in range(count)
                ]
            )
        finally:
            releaser.join()
        assert released.is_set()
        statuses = [payload["status"] for _s, payload in outcomes]
        assert statuses == ["committed"] * count
        versions = {payload["version"] for _s, payload in outcomes}
        assert len(versions) == 1, (
            f"one pipelined flush must commit as one batch; saw versions {versions}"
        )
        stats = service.stats.as_dict()
        assert stats["max_batch"] >= count
        assert stats["batches"] == batches_before + 1

    def test_mixed_pipelined_batch_answers_in_order(self):
        """Reads, txns and bad requests in one flush: each reply in its place,
        each with the status the same request gets when sent alone."""
        batch = [
            ("POST", "/read", {"contains": ["E", [0, 1]]}),
            ("POST", "/txn", {"template": "link-forward", "params": [960, 961]}),
            ("POST", "/read", {"scan": "NoSuchRelation"}),
            # the same link again: conflicts with its twin inside the batch
            ("POST", "/txn", {"template": "link-forward", "params": [960, 961]}),
            ("POST", "/txn", None),
            ("POST", "/txn", {"template": "no-such-template", "params": []}),
            ("GET", "/health", None),
            ("POST", "/txn", {"template": "add-edge", "params": [962, 962]}),
            ("POST", "/read", {"evaluate": {"formula": "exists y . E(x, y)",
                                            "assignment": {"x": 0}}}),
        ]

        def fresh():
            return serving(
                build_service(forward_graph(40, 2, seed=9), commit_timeout=30.0)
            )

        with fresh() as (_service, _harness, client):
            alone = [client.request(*request) for request in batch]
        with fresh() as (service, _harness, client):
            pipelined = client.pipeline(batch)
            conflicts = service.stats.as_dict()["conflicts"]

        def shape(reply):
            status, payload = reply
            if status != 200:
                return status
            return status, payload.get("status"), payload.get("result")

        assert [shape(r) for r in pipelined] == [shape(r) for r in alone]
        assert [status for status, _ in pipelined] == [
            200, 200, 400, 200, 400, 400, 200, 200, 200
        ]
        assert pipelined[7][1]["status"] == "rejected"
        assert conflicts >= 1, "the twin links never met in one batch"

    def test_batch_metrics_are_recorded(self, served_metered):
        _service, _harness, client = served_metered
        client.submit_many(
            [{"template": "link-forward", "params": [800 + i, 900 + i]}
             for i in range(4)]
        )
        stats = client.stats()
        snapshot = stats["metrics"]
        assert snapshot["serve.batches"] >= 1
        assert snapshot["serve.batched_requests"] >= 4
        # the /stats request observing the gauge is control-plane: it is
        # neither shed nor counted against the dispatch-bound capacity
        assert snapshot["serve.inflight"] == 0
        assert snapshot["serve.txn.latency_ms"]["count"] >= 4
        # every commit handed the store its successor state: an operator sees
        # promotions, and would see a process that fell back to re-patching
        assert snapshot["store.snapshot_promoted"] >= 1
        store = stats["store"]["transactions"]
        assert store["snapshot_promoted"] >= 1 and store["snapshot_repatched"] == 0
        # guarded template requests: no run-time check, in full or otherwise
        assert stats["service"]["runtime_full_checks"] == 0


class TestFailureHandling:
    def test_malformed_requests_get_400_and_service_survives(self, served):
        service, harness, client = served
        host, port = harness.address
        # broken framing: 400 then the connection is closed
        with socket.create_connection((host, port), timeout=10) as raw:
            raw.sendall(b"COMPLETE GARBAGE\r\n\r\n")
            reply = raw.recv(65536)
            assert b"400" in reply.split(b"\r\n", 1)[0]
            assert raw.recv(65536) == b""
        # bad JSON, unknown route, unknown template, bad params: per-request
        # errors on a connection that stays usable
        status, _ = client.request("POST", "/txn", None)
        assert status == 400
        assert client.request("GET", "/nope")[0] == 404
        assert client.request("POST", "/txn", {"template": "ghost"})[0] == 400
        assert client.request("POST", "/txn", {"template": "unlink"})[0] == 400
        assert client.request("POST", "/read", {"scan": "NoSuchRelation"})[0] == 400
        assert client.request("POST", "/read", {"peek": "E"})[0] == 400
        # ...and the service still commits fine afterwards
        status, outcome = client.submit("link-forward", [950, 951])
        assert status == 200 and outcome["status"] == "committed"
        assert service.invariant_holds()

    def test_disconnect_mid_commit_still_commits(self, served):
        service, harness, client = served
        host, port = harness.address
        edge = [970, 971]
        raw = socket.create_connection((host, port), timeout=10)
        raw.sendall(encode_request(
            "POST", "/txn", {"template": "link-forward", "params": edge}
        ))
        raw.close()  # gone before the response
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if client.contains("E", edge)["result"]:
                break
            time.sleep(0.01)
        assert client.contains("E", edge)["result"] is True
        assert service.invariant_holds()


class TestObservability:
    def test_service_txn_spans_nest_under_serve_request(self, served):
        _service, _harness, client = served
        _trace.configure("on")
        try:
            _trace.clear()
            client.submit("link-forward", [980, 981])
            spans = _trace.finished()
        finally:
            _trace.configure("off")
        serves = [s for s in spans if s["name"] == "serve.request"]
        assert serves, "the txn endpoint must open a serve.request span"
        assert serves[-1].get("attrs", {}).get("route") == "txn"
        children = [
            s for s in spans
            if s["name"] == "service.txn" and s["parent_id"] == serves[-1]["span_id"]
        ]
        assert children, "service.txn must be parented under serve.request"

    def test_prometheus_exposition_includes_serve_metrics(self, served_metered):
        _service, _harness, client = served_metered
        client.submit("link-forward", [985, 986])
        text = client.metrics_text()
        assert "serve_requests" in text
        assert "serve_txn_latency_ms" in text


class TestLifecycle:
    def test_graceful_shutdown_drains_and_leaks_no_threads(self):
        baseline = set(threading.enumerate())
        service = build_service(forward_graph(30, 2, seed=4), commit_timeout=30.0)
        harness = ServerThread(service, owns_service=True).start()
        preregister(harness.server)
        host, port = harness.address
        with ServeClient(host, port) as client:
            outcomes = client.submit_many(
                [{"template": "link-forward", "params": [20 + i, 60 + i]}
                 for i in range(5)]
            )
            assert all(p["status"] == "committed" for _s, p in outcomes)
        harness.stop()
        # stop() must have closed the owned service (idempotent close proves it)
        assert service._owns_store is False
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            leaked = set(threading.enumerate()) - baseline
            if not leaked:
                break
            time.sleep(0.05)
        assert not leaked, f"threads leaked past shutdown: {leaked}"

    def test_stop_rejects_new_connections_but_finishes_started_work(self):
        service = build_service(forward_graph(30, 2, seed=5), commit_timeout=30.0)
        with ServerThread(service, owns_service=True) as harness:
            preregister(harness.server)
            host, port = harness.address
            with ServeClient(host, port) as client:
                status, outcome = client.submit("link-forward", [21, 61])
                assert status == 200 and outcome["status"] == "committed"
        # after the context exits the listener is gone
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=2)


class TestConfiguration:
    def test_stats_shows_every_knob_as_parsed(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEED", "11")
        monkeypatch.setenv("REPRO_SERVE_WORKERS", "a-few")
        service = build_service(forward_graph(20, 2, seed=3))
        with pytest.warns(RuntimeWarning, match="REPRO_SERVE_WORKERS"):
            with serving(service) as (_service, _harness, client):
                shown = client.stats()["settings"]
        assert sorted(shown) == sorted(knob.name for knob in KNOBS)
        assert shown["REPRO_SEED"] == 11
        # the invalid value shows the default the server fell back to
        assert shown["REPRO_SERVE_WORKERS"] == 8
        assert shown["REPRO_OPTIMIZER"] in ("on", "off")

    def test_stats_shows_what_the_server_runs(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_WORKERS", "5")
        monkeypatch.setenv("REPRO_SERVE_PORT", "9999")
        monkeypatch.setenv("REPRO_SEED", "11")
        service = build_service(forward_graph(20, 2, seed=3))
        # read when the service was built, not when /stats is asked
        monkeypatch.setenv("REPRO_SEED", "12")
        with serving(service, workers=3) as (_service, harness, client):
            shown = client.stats()["settings"]
            host, port = harness.address
        assert shown["REPRO_SERVE_WORKERS"] == 3
        assert (shown["REPRO_SERVE_HOST"], shown["REPRO_SERVE_PORT"]) == (host, port)
        assert shown["REPRO_SEED"] == 11

    def test_cli_port_typo_warns_and_listens_on_the_default(self, monkeypatch):
        from repro.serve import __main__ as cli

        started = []

        async def record(args):
            started.append(args)

        monkeypatch.setattr(cli, "_serve", record)
        monkeypatch.setenv("REPRO_SERVE_PORT", "abc")
        with pytest.warns(RuntimeWarning, match="REPRO_SERVE_PORT"):
            assert cli.main([]) == 0
        assert started[0].port == 7453
