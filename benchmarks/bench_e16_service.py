"""E16 — the serving layer: concurrent throughput versus serial monitoring.

The tentpole claim of the service subsystem: turning the store into a
multi-client transaction processor — MVCC snapshots + WPC-verified admission
+ group commit — multiplies throughput over the pre-service execution model
(one transaction at a time, every constraint re-checked on every post-state
before each individual commit) while maintaining exactly the same integrity
guarantee.

The comparison is deliberately engine-fair: both sides run the same compiled
backend, so the measured gap is what the *service layer itself* adds —

* **admission fast paths**: statically-safe shapes commit with zero
  constraint work, guarded shapes pay one small pre-state guard instead of
  the join-shaped constraint re-check, and nothing ever rolls back;
* **group commit**: contending commits are validated against composed deltas
  and applied to the canonical store as one batch ``apply_delta``;
* **overlapped execution**: transaction bodies run in parallel against
  pinned snapshots and only validation is serialised.

Acceptance: on the mixed workload at 8 workers, service throughput must be
at least **2x** the serial baseline (it is typically far higher).  Numbers
are reproducible via ``--seed``/``--jobs`` in ``benchmarks/run_all.py``
(``REPRO_SEED`` / ``REPRO_SERVICE_WORKERS`` here), and every run emits a
``BENCH-METRIC {...}`` line that the runner folds into ``BENCH_<rev>.json``.
"""

import json

import pytest

from repro.db import GRAPH_SCHEMA, Store
from repro.engine import active_backend
from repro.service import (
    SCENARIOS,
    build_service,
    build_streams,
    forward_graph,
    run_serial_baseline,
    run_workload,
    standard_constraints,
)
from repro.settings import setting

# (accounts, edges_per, clients, ops_per_client)
SIZES = {"small": (60, 3, 4, 40), "production": (200, 6, 8, 120)}


def bench_seed() -> int:
    return setting("REPRO_SEED")


def emit_metric(name: str, payload: dict) -> None:
    """One machine-readable line per headline figure (picked up by run_all)."""
    print(f"BENCH-METRIC {json.dumps({'metric': name, **payload}, sort_keys=True)}")


def latency_fields(report) -> dict:
    """The per-scenario tail-latency slice of a WorkloadReport."""
    return {
        "p50_ms": round(report.latency_p50_ms, 3),
        "p95_ms": round(report.latency_p95_ms, 3),
        "p99_ms": round(report.latency_p99_ms, 3),
        "max_ms": round(report.latency_max_ms, 3),
    }


def test_e16_mixed_throughput_vs_serial(benchmark):
    """The headline: mixed workload, 8 workers, >= 2x the serial baseline."""
    backend = active_backend()
    if backend.name == "naive":
        pytest.skip("the service rides the compiled engine's fast paths")
    accounts, edges_per, clients, ops_per_client = SIZES["production"]
    seed = bench_seed()
    workers = setting("REPRO_SERVICE_WORKERS")
    initial = forward_graph(accounts, edges_per, seed=1 + seed)
    streams = build_streams("mixed", clients, ops_per_client, accounts, seed=seed)

    store = Store(GRAPH_SCHEMA, initial)
    serial = run_serial_baseline(store, standard_constraints(), streams)
    serial.scenario = "mixed"

    def run():
        service = build_service(initial)
        report = run_workload(service, streams, workers=workers)
        report.scenario = "mixed"
        return service, report

    service, report = benchmark(run)
    assert service.invariant_holds()
    assert report.committed > 0
    assert report.rejected + report.aborted > 0   # the risky path was exercised
    # both executions refuse integrity-violating ops (service: rejected by
    # admission guards; serial: aborted post-hoc); the counts may differ by
    # the handful of risky ops whose guard outcome is order-sensitive
    assert abs(report.committed - serial.committed) <= max(5, report.ops // 50)
    speedup = report.throughput / serial.throughput if serial.throughput else 0.0
    emit_metric(
        "e16-mixed",
        {
            "workers": workers,
            "seed": seed,
            "serial_txn_s": round(serial.throughput, 1),
            "service_txn_s": round(report.throughput, 1),
            "speedup": round(speedup, 2),
            "abort_rate": round(report.abort_rate, 4),
            "mean_batch": round(report.mean_batch, 2),
            "committed": report.committed,
            "rejected": report.rejected,
            "aborted": report.aborted,
            "conflicts": report.conflicts,
            "serial_fallbacks": report.serial_fallbacks,
            "serial_p99_ms": round(serial.latency_p99_ms, 3),
            **latency_fields(report),
        },
    )
    if workers >= 8:
        assert speedup >= 2.0, (
            f"service throughput ({report.throughput:.0f} txn/s) must be at "
            f"least 2x the serial baseline ({serial.throughput:.0f} txn/s)"
        )
    else:
        assert speedup >= 1.0


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_e16_scenario_sweep(benchmark, scenario):
    """All contention profiles stay correct and report their shape."""
    backend = active_backend()
    if backend.name == "naive":
        pytest.skip("the service rides the compiled engine's fast paths")
    accounts, edges_per, clients, ops_per_client = SIZES["small"]
    seed = bench_seed()
    initial = forward_graph(accounts, edges_per, seed=1 + seed)
    streams = build_streams(scenario, clients, ops_per_client, accounts, seed=seed)

    def run():
        service = build_service(initial)
        report = run_workload(service, streams)
        report.scenario = scenario
        return service, report

    service, report = benchmark(run)
    assert service.invariant_holds()
    assert report.ops == clients * ops_per_client
    assert report.committed > 0
    if scenario == "constraint-heavy":
        assert report.rejected > 0          # guards must actually refuse work
    emit_metric(
        f"e16-sweep-{scenario}",
        {
            "txn_s": round(report.throughput, 1),
            "committed": report.committed,
            "rejected": report.rejected,
            "aborted": report.aborted,
            "conflicts": report.conflicts,
            "abort_rate": round(report.abort_rate, 4),
            "mean_batch": round(report.mean_batch, 2),
            "serial_fallbacks": report.serial_fallbacks,
            **latency_fields(report),
        },
    )
    benchmark.extra_info.update(
        committed=report.committed, rejected=report.rejected,
        abort_rate=report.abort_rate,
    )


def test_e16_hot_key_contention(benchmark):
    """Zipfian key skew makes optimistic overlap observable: abort_rate > 0.

    Uniform scenarios almost never retry — the account pool is wide enough
    that concurrent writers touch disjoint edges.  ``hot-key`` concentrates
    writes on a handful of accounts (Zipf s=1.5) and validates before
    linking, so contending commits overlap on the same hot rows and the
    optimistic path visibly conflicts and retries.
    """
    backend = active_backend()
    if backend.name == "naive":
        pytest.skip("the service rides the compiled engine's fast paths")
    accounts, edges_per, _, _ = SIZES["production"]
    clients, ops_per_client = 16, 60      # oversubscribed: overlap regardless of cores
    seed = bench_seed()
    initial = forward_graph(accounts, edges_per, seed=1 + seed)
    streams = build_streams("hot-key", clients, ops_per_client, accounts, seed=seed)

    def run():
        service = build_service(initial)
        report = run_workload(service, streams, workers=clients)
        report.scenario = "hot-key"
        return service, report

    service, report = benchmark(run)
    assert service.invariant_holds()
    assert report.ops == clients * ops_per_client
    assert report.committed > 0
    if report.conflicts == 0:
        # conflict counts are timing-dependent; one extra attempt keeps the
        # assertion robust on slow or single-core runners
        service, report = run()
        report.scenario = "hot-key"
        assert service.invariant_holds()
    emit_metric(
        "e16-hot-key",
        {
            "workers": clients,
            "seed": seed,
            "txn_s": round(report.throughput, 1),
            "committed": report.committed,
            "rejected": report.rejected,
            "aborted": report.aborted,
            "conflicts": report.conflicts,
            "abort_rate": round(report.abort_rate, 4),
            "mean_batch": round(report.mean_batch, 2),
            "serial_fallbacks": report.serial_fallbacks,
            **latency_fields(report),
        },
    )
    assert report.conflicts > 0, (
        "the hot-key scenario exists to surface optimistic contention; "
        f"got zero conflicts across {report.ops} ops at {clients} workers"
    )


def test_e16_admission_fast_path_counters(benchmark):
    """The write-heavy profile demonstrates the zero-check commit path."""
    backend = active_backend()
    if backend.name == "naive":
        pytest.skip("the service rides the compiled engine's fast paths")
    accounts, edges_per, clients, ops_per_client = SIZES["small"]
    initial = forward_graph(accounts, edges_per, seed=3)
    streams = build_streams(
        "write-heavy", clients, ops_per_client, accounts, seed=bench_seed()
    )

    def run():
        service = build_service(initial)
        run_workload(service, streams)
        return service

    service = benchmark(run)
    stats = service.stats.as_dict()
    # every unlink commit skipped both constraints statically; every
    # link-forward commit skipped no-loops and paid one small guard for
    # no-triangles; nothing fell back to a post-state constraint check
    assert stats["static_skips"] > 0
    assert stats["runtime_checks"] == 0
    assert service.invariant_holds()
