"""Shared harness for the serving-layer tests: one server + one client."""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional, Tuple

import pytest

from repro.obs import metrics
from repro.serve import ServeClient, ServerThread, preregister
from repro.service import TransactionService
from repro.service.workloads import build_service, forward_graph


@contextlib.contextmanager
def serving(
    service: TransactionService,
    workers: Optional[int] = None,
) -> Iterator[Tuple[TransactionService, ServerThread, ServeClient]]:
    """Start ``service`` behind a server thread; yield (service, harness, client).

    The harness owns the service: exit drains in-flight batches, joins the
    worker pool and closes the service (releasing any WAL handles).
    """
    with ServerThread(service, workers=workers, owns_service=True) as harness:
        preregister(harness.server)
        host, port = harness.address
        with ServeClient(host, port) as client:
            yield service, harness, client


def _standard_server():
    service = build_service(forward_graph(40, 2, seed=9), commit_timeout=30.0)
    with serving(service) as bundle:
        yield bundle


@pytest.fixture()
def served():
    """A small standard service behind a freshly started server."""
    yield from _standard_server()


@pytest.fixture()
def metrics_on():
    """A real metrics registry for one test, whatever ``REPRO_METRICS`` says.

    Components capture their instruments when built, so this must run before
    the service and server are; the ambient mode is restored afterwards.
    """
    ambient = "on" if metrics.metrics_enabled() else "off"
    metrics.configure("on")
    yield
    metrics.configure(ambient)


@pytest.fixture()
def served_metered(metrics_on):
    """``served``, built after :func:`metrics_on` switched the registry on."""
    yield from _standard_server()
