"""E21 — serving at the socket: open-loop latency and batch amortisation.

E16 measured the service layer in-process; E21 puts the full network stack in
front of it.  A single benchmark process raises **1024 concurrent client
connections** against a :class:`~repro.serve.server.TransactionServer` backed
by a durable WAL engine, and drives an *open-loop* arrival schedule: every
request is sent at its scheduled time whether or not earlier ones finished, so
server-side queueing lands in the measured tail (p99) instead of silently
throttling the offered load — the methodology of open-loop benchmarking, as
opposed to the closed-loop E16 driver whose clients wait for replies.

Each client fires its requests as one pipelined burst, which is where the
tentpole claim becomes measurable end-to-end: the event loop decodes the burst
as one dispatch batch, the batch enters the group-commit queue together, and
the leader folds contending batches into single store applies — so the WAL
append count must come out **strictly below** the number of acknowledged
commits.  ``batch_amortization`` (acked commits per WAL append) is the
trajectory's regression-gated figure; wall-clock latency figures are recorded
but not gated (they are hardware-bound).
"""

import json
import os
import time

import pytest

from repro.db import WalStorageEngine
from repro.engine import active_backend
from repro.serve import ServerThread, drive_open_loop, encode_request, preregister
from repro.service import build_service, forward_graph
from repro.settings import setting

CLIENTS = 1024
REQUESTS_PER_CLIENT = 4
WINDOW_S = 6.0          # the arrival window: bursts spread uniformly across it
ACCOUNTS, EDGES_PER = 200, 6


def bench_seed() -> int:
    return setting("REPRO_SEED")


def emit_metric(name: str, payload: dict) -> None:
    print(f"BENCH-METRIC {json.dumps({'metric': name, **payload}, sort_keys=True)}")


def percentile(sorted_values, fraction):
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


def build_schedules(generation: int):
    """1024 pipelined bursts, uniformly staggered across the window.

    Every transaction links a distinct fresh edge (disjoint from the seeded
    graph, from each other, and — via ``generation`` — from earlier benchmark
    rounds against the same store), so admission commits all of them on the
    guarded fast path and the acked count is deterministic — the contention
    under test is *temporal* (arrival overlap at the commit queue), not
    logical (write-write conflicts), which is exactly what group commit
    amortises.
    """
    schedules = []
    index = generation * CLIENTS * REQUESTS_PER_CLIENT
    for client in range(CLIENTS):
        offset = (client / CLIENTS) * WINDOW_S
        burst = []
        for _ in range(REQUESTS_PER_CLIENT):
            a = 1_000_000 + 2 * index
            body = {"template": "link-forward", "params": [a, a + 1]}
            burst.append((offset, encode_request("POST", "/txn", body)))
            index += 1
        schedules.append(burst)
    return schedules


def test_e21_open_loop_serving(benchmark, tmp_path):
    """The headline: p50/p99 + txn/s at 1024 clients, WAL appends < acks."""
    if active_backend().name == "naive":
        pytest.skip("the serving stack rides the compiled engine's fast paths")
    seed = bench_seed()
    initial = forward_graph(ACCOUNTS, EDGES_PER, seed=1 + seed)
    engine = WalStorageEngine(
        str(tmp_path / "serve-wal"), fsync="commit", checkpoint_interval=0
    )
    service = build_service(initial, commit_timeout=120.0, engine=engine)
    total = CLIENTS * REQUESTS_PER_CLIENT
    generation = [0]

    def run():
        schedules = build_schedules(generation[0])
        generation[0] += 1
        with ServerThread(service, owns_service=False) as harness:
            preregister(harness.server)
            host, port = harness.address
            before = service.store.storage_stats()
            started = time.perf_counter()
            results = drive_open_loop(host, port, schedules, warmup=2.0)
            elapsed = time.perf_counter() - started - 2.0
            after = service.store.storage_stats()
        return results, elapsed, before, after

    try:
        results, elapsed, before, after = benchmark(run)
    finally:
        service.close()  # release the WAL handle even on a failed run

    dead = sum(1 for r in results if r is None)
    assert dead == 0, f"{dead}/{total} requests lost their connection"
    statuses = [status for _lat, status, _payload in results]
    assert statuses == [200] * total
    committed = sum(
        1 for _lat, _status, payload in results if payload["status"] == "committed"
    )
    assert committed == total, "disjoint fresh edges must all commit"

    latencies_ms = sorted(lat * 1000.0 for lat, _status, _payload in results)
    p50 = percentile(latencies_ms, 0.50)
    p99 = percentile(latencies_ms, 0.99)
    appends = after["wal_appends"] - before["wal_appends"]
    fsyncs = after["fsyncs"] - before["fsyncs"]
    stats = service.stats.as_dict()
    mean_batch = (
        stats["batched_commits"] / stats["batches"] if stats["batches"] else 0.0
    )
    amortization = committed / appends if appends else float(committed)

    emit_metric(
        "e21-open-loop",
        {
            "cpus": os.cpu_count(),
            "seed": seed,
            "clients": CLIENTS,
            "requests": total,
            "window_s": WINDOW_S,
            "offered_txn_s": round(total / WINDOW_S, 1),
            "txn_s": round(committed / elapsed, 1) if elapsed > 0 else 0.0,
            "p50_ms": round(p50, 3),
            "p99_ms": round(p99, 3),
            "max_ms": round(latencies_ms[-1], 3),
            "wal_appends": appends,
            "fsyncs": fsyncs,
            "batch_amortization": round(amortization, 2),
            "mean_batch": round(mean_batch, 2),
            "max_batch": stats["max_batch"],
        },
    )
    # the batching acceptance criterion: acks outnumber WAL appends — the
    # network layer preserved (not serialised away) group-commit amortisation
    assert 0 < appends < committed, (
        f"{committed} acked commits cost {appends} WAL appends; serving must "
        f"amortise durable writes below one append per commit"
    )
    assert stats["max_batch"] >= REQUESTS_PER_CLIENT, (
        "at least one pipelined burst must have committed as a single batch"
    )
    assert p50 <= p99 <= latencies_ms[-1] + 1e-9


def test_e21_served_state_is_consistent(tmp_path):
    """After the storm: recover the WAL and check it equals the served state.

    A cheap end-to-end coda (not a timing benchmark): a small burst against a
    durable service, then an independent recovery of the WAL directory must
    reproduce exactly the state the server acknowledged.
    """
    if active_backend().name == "naive":
        pytest.skip("the serving stack rides the compiled engine's fast paths")
    from repro.db import GRAPH_SCHEMA, Store
    from repro.serve import ServeClient

    directory = str(tmp_path / "coda-wal")
    service = build_service(
        forward_graph(40, 2, seed=7),
        commit_timeout=60.0,
        engine=WalStorageEngine(directory, checkpoint_interval=0),
    )
    with ServerThread(service, owns_service=False) as harness:
        preregister(harness.server)
        with ServeClient(*harness.address) as client:
            outcomes = client.submit_many(
                [{"template": "link-forward", "params": [2_000_000 + i, 3_000_000 + i]}
                 for i in range(32)]
            )
            assert all(p["status"] == "committed" for _s, p in outcomes)
        served = service.snapshot()
    service.close()

    with Store(GRAPH_SCHEMA, engine=WalStorageEngine(directory)) as recovered:
        assert recovered.snapshot() == served
