"""The traced runs: each workload replayed in this process, spans around every layer.

End-to-end figures come from the untraced runs (``serve_bench``,
``engine_bench``).  A traced run answers a different question — *where does
a request's time go* — and is allowed to be slower: it replays the
workload's request stream closed-loop with fixed counts inside the
benchmark's own process (the socket workloads through ``ServerThread`` over a
``WalStorageEngine`` with ``fsync=commit``), first with no wrappers, then
with :mod:`spans` wrappers installed; the ratio of the two is
``bench.trace.overhead``.  Counts come from ``service.observability()`` (the
``/stats`` payload) and ``cache_stats()`` deltas over the traced replay.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import tempfile
import threading
import time
from dataclasses import replace
from typing import Dict, List, Sequence

import engine_bench
import gen
from calib import Uncalibrated
from serve_bench import (
    GRAPH_SEED, SMOKE, SPECS, base_graph, connections, scan_edges, warm_up,
)
from server import OUT
from spans import HOT_TARGETS, SETUP_TARGETS, Aggregate, Tracer
from workloads import FORMULAS, Op, Oracle, Traffic

__all__ = ["run_serve", "run_engine"]

#: requests in each replay (untraced, traced, and without the socket)
TRACE_OPS = {"serve-write": 1500, "serve-read": 6000, "serve-mixed-large": 500}
FLOOR_OPS = 200


def _ratio(top: float, bottom: float) -> float:
    return top / bottom if bottom else 0.0


_REGISTRY_COUNTERS = (
    "serve.batches", "serve.batched_requests", "serve.shed", "serve.errors",
    "engine.delta.hits", "engine.delta.misses",
    "engine.plan_cache.hits", "engine.plan_cache.misses",
)


def _registry_counters() -> Dict[str, float]:
    """The process-wide registry counters the metrics need (0 where unborn)."""
    from repro.obs import metrics

    snapshot = metrics.get_registry().snapshot()
    return {name: snapshot.get(name, 0) for name in _REGISTRY_COUNTERS}


def _flat_counters(service) -> Dict[str, float]:
    """Those, plus the numeric leaves of ``service.observability()`` (``/stats``)."""
    seen = service.observability()
    flat = _registry_counters()
    flat.update({f"service.{k}": v for k, v in seen["service"].items()})
    flat["admission.guard_cache_hits"] = seen["admission"]["guard_cache_hits"]
    for key in ("wal_appends", "fsyncs", "checkpoints"):
        flat[f"wal.{key}"] = seen["store"]["engine"].get(key, 0)
    return flat


def layer_metrics(
    replay: Dict[str, Aggregate],
    whole_run: Dict[str, Aggregate],
    ops: int,
    delta: Dict[str, float],
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Every per-layer metric of BENCHMARK.json (zero where a layer did nothing)."""
    empty = Aggregate()

    def of(name: str) -> Aggregate:
        return replay.get(name, empty)

    def whole(name: str) -> Aggregate:
        return whole_run.get(name, empty)

    def per_op_ms(aggregate: Aggregate) -> float:
        return _ratio(aggregate.total_s * 1e3, ops)

    def mean_self(aggregate: Aggregate, scale: float) -> float:
        return _ratio(aggregate.self_s * scale, aggregate.calls)

    def d(name: str) -> float:
        return delta.get(name, 0)

    commits = d("service.batched_commits")
    execute, handle = of("service.scheduler.execute"), of("serve.server.handle")
    root = handle if handle.calls else of("core.maintenance.run")
    values = {
        "serve.protocol.decode_us": _ratio(of("serve.protocol.decode").total_s * 1e6, ops),
        "serve.protocol.encode_us": of("serve.protocol.encode").mean_us,
        "serve.server.mean_batch": _ratio(d("serve.batched_requests"), d("serve.batches")),
        "serve.server.shed": d("serve.shed"),
        "serve.server.errors": d("serve.errors"),
        "service.admission.register_ms": whole("service.admission.register").total_s * 1e3,
        "service.admission.guard_checks": _ratio(d("service.guard_checks"), ops),
        "service.admission.static_skips": _ratio(d("service.static_skips"), ops),
        "service.admission.guard_cache_hit_rate": _ratio(
            d("admission.guard_cache_hits"), of("service.admission.guard_for").calls
        ),
        "service.snapshots.begin_us": of("service.snapshots.begin").mean_us,
        "service.snapshots.validate_us": of("service.snapshots.validate").mean_us,
        "service.snapshots.conflicts": _ratio(d("service.conflicts"), ops),
        "service.snapshots.retries": _ratio(d("service.retries"), ops),
        "service.scheduler.execute_ms": execute.mean_us / 1e3,
        "service.scheduler.commit_wait_ms": mean_self(execute, 1e3),
        "service.scheduler.mean_batch": _ratio(commits, d("service.batches")),
        "service.scheduler.max_batch": extra.get("max_batch", 0),
        "service.scheduler.serial_fallbacks": d("service.serial_fallbacks"),
        "db.database.apply_delta_us": of("db.database.apply_delta").mean_us,
        "db.database.apply_calls_per_commit": _ratio(
            of("db.database.apply_delta").calls, commits
        ),
        "db.database.index_build_ms": per_op_ms(of("db.database.index")),
        "db.storage.pin_us": of("db.storage.pin").mean_us,
        "db.storage.commit_us": mean_self(of("db.storage.commit"), 1e6),
        "db.wal.commit_batch_us": of("db.wal.commit_batch").mean_us,
        "db.wal.appends_per_commit": _ratio(d("wal.wal_appends"), commits),
        "db.wal.fsyncs_per_commit": _ratio(d("wal.fsyncs"), commits),
        "db.wal.bytes_per_commit": _ratio(extra.get("wal_bytes", 0), commits),
        "db.wal.checkpoint_ms": of("db.wal.checkpoint").mean_us / 1e3,
        "db.wal.checkpoints": d("wal.checkpoints"),
        "engine.backend.evaluate_us": of("engine.backend.evaluate").mean_us,
        "engine.backend.evaluate_calls_per_txn": _ratio(
            of("engine.backend.evaluate").calls, ops
        ),
        "engine.compile.plan_ms": per_op_ms(of("engine.compile.plan")),
        "engine.optimize.optimize_ms": per_op_ms(of("engine.optimize.optimize")),
        "engine.delta.hit_rate": _ratio(
            d("engine.delta.hits"), d("engine.delta.hits") + d("engine.delta.misses")
        ),
        "engine.plan_cache.hit_rate": _ratio(
            d("engine.plan_cache.hits"),
            d("engine.plan_cache.hits") + d("engine.plan_cache.misses"),
        ),
        "core.wpc.wpc_ms": whole("core.wpc.wpc").self_s * 1e3,
        "core.wpc.classify_ms": whole("core.wpc.classify").total_s * 1e3,
        "core.maintenance.run_ms": of("core.maintenance.run").mean_us / 1e3,
        "logic.parser.parse_us": whole("logic.parser.parse").mean_us,
        "bench.gen.sent": ops,
        # the share of handler (or maintained-transaction) time spent inside
        # wrapped entry points below it — what the per-layer figures explain
        "bench.trace.coverage": 1.0 - _ratio(root.self_s, root.total_s),
    }
    for name in (
        "serve.server.overhead_ms", "serve.server.socket_vs_inproc", "db.wal.recover_ms",
        "core.maintenance.scale_ratio", "bench.trace.overhead",
    ):
        values[name] = extra.get(name, 0.0)
    return values


def _self_time_table(replay: Dict[str, Aggregate]) -> List[Dict[str, object]]:
    """Self time per span name, largest first — the run's answer to 'where'."""
    total = sum(entry.self_s for entry in replay.values()) or 1.0
    return [
        {"span": name, "calls": entry.calls, "self_ms": entry.self_s * 1e3,
         "share": entry.self_s / total}
        for name, entry in sorted(replay.items(), key=lambda kv: -kv[1].self_s)
    ]


class _WalBytes:
    """Counts the bytes each ``commit_batch`` appends, by file size."""

    def __init__(self) -> None:
        self.total = 0
        self._original = None

    def install(self) -> None:
        from repro.db.wal import WalStorageEngine

        original = self._original = WalStorageEngine.__dict__["commit_batch"]
        counter = self

        def commit_batch(engine, delta, version):
            path = os.path.join(engine.directory, "wal.log")
            before = os.path.getsize(path)
            try:
                return original(engine, delta, version)
            finally:
                counter.total += os.path.getsize(path) - before

        WalStorageEngine.commit_batch = commit_batch

    def uninstall(self) -> None:
        from repro.db.wal import WalStorageEngine

        if self._original is not None:
            WalStorageEngine.commit_batch = self._original
            self._original = None


def _without_socket(service, ops: Sequence[Op], threads: int = 8) -> gen.Phase:
    """The handlers' work with no socket, JSON or event loop: ``threads`` callers."""
    from repro.logic.parser import parse
    from repro.serve import standard_wire_templates

    templates = {t.name: t for t in standard_wire_templates()}
    formulas = [parse(source) for source in FORMULAS]
    phase = gen.Phase.of(len(ops))
    cursor = iter(range(len(ops)))
    lock = threading.Lock()

    def worker() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            op = ops[index]
            phase.due[index] = phase.sent[index] = time.perf_counter()
            if op.is_write:
                params = (op.a, op.b)
                outcome = service.execute(
                    templates[op.template].tracked_work(params),
                    template=op.template, params=params,
                )
                payload = {"status": outcome.status, "reason": outcome.reason,
                           "version": outcome.version}
            else:
                handle = service.begin()
                if op.kind == "contains":
                    result = handle.contains("E", (op.a, op.b))
                else:
                    result = handle.evaluate(formulas[op.b], x=op.a)
                payload = {"version": handle.version, "result": result}
            phase.done[index] = time.perf_counter()
            phase.status[index] = 200
            phase.body[index] = json.dumps(payload).encode("utf-8")

    pool = [threading.Thread(target=worker) for _ in range(threads)]
    phase.started = time.perf_counter()
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    phase.ended = time.perf_counter()
    return phase


def run_serve(workload: str, seed: int, smoke: bool = False) -> Dict[str, object]:
    """The traced run of one socket workload."""
    from repro.db import GRAPH_SCHEMA, Store, WalStorageEngine
    from repro.serve import ServerThread, preregister
    from repro.service import build_service, forward_graph

    spec = SPECS[workload]
    count, floor_count = TRACE_OPS[workload], FLOOR_OPS
    if smoke:
        spec = replace(spec, **SMOKE[workload])
        count, floor_count = count // 10, 40
    OUT.mkdir(exist_ok=True)
    wal_dir = tempfile.mkdtemp(prefix=f"trace-{workload}-", dir=OUT)
    # one tracer for the work done once (classification, parsing, recovery),
    # wrapped for the whole run; one for the request path, wrapped only while
    # the traced replay runs
    once, tracer = Tracer(), Tracer()
    wal_bytes = _WalBytes()
    traffic = Traffic(workload, seed, spec.accounts, base_graph(spec.accounts))
    oracle = Oracle(traffic)
    extra: Dict[str, float] = {}
    once.install(SETUP_TARGETS)
    try:
        service = build_service(
            forward_graph(spec.accounts, 6, seed=GRAPH_SEED),
            engine=WalStorageEngine(wal_dir, fsync="commit"),
        )
        try:
            with ServerThread(service) as harness:
                preregister(harness.server)
                address = harness.address

                def closed(ops_count: int, conns: int, outstanding: int):
                    blobs, ops = traffic.take(ops_count)
                    phase = asyncio.run(
                        gen.closed_loop(*address, blobs, conns, outstanding)
                    )
                    oracle.check(phase, ops)
                    return phase

                asyncio.run(warm_up(address, spec, traffic, oracle))
                untraced = closed(count, connections(), 8)

                wal_bytes.install()
                tracer.install(HOT_TARGETS)
                floor = closed(floor_count, 1, 1)
                floor_spans = tracer.take()
                wal_bytes.total = 0
                before = _flat_counters(service)
                traced = closed(count, connections(), 8)
                spans = tracer.take()
                after = _flat_counters(service)
                tracer.uninstall()
                wal_bytes.uninstall()

                _blobs, ops = traffic.take(count)
                direct = _without_socket(service, ops)
                oracle.check(direct, ops)
                oracle.check_scan(asyncio.run(scan_edges(address)), "final state")
        finally:
            service.close()
        begun = time.perf_counter()
        Store(GRAPH_SCHEMA, engine=WalStorageEngine(wal_dir, fsync="commit")).close()
        extra["db.wal.recover_ms"] = (time.perf_counter() - begun) * 1e3
        whole_run = Tracer.aggregate(once.take())
    finally:
        tracer.uninstall()
        wal_bytes.uninstall()
        once.uninstall()
        shutil.rmtree(wal_dir, ignore_errors=True)

    floor_ms = sorted(floor.latency_ms(i) for i in range(len(floor)))
    handled = sorted(
        (ended - begun) * 1e3
        for _id, _parent, _request, name, begun, ended in floor_spans
        if name == "serve.server.handle"
    )
    extra["serve.server.overhead_ms"] = (
        gen.percentile(floor_ms, 0.5) - gen.percentile(handled, 0.5)
    )
    extra["serve.server.socket_vs_inproc"] = _ratio(
        len(direct) / direct.seconds, len(untraced) / untraced.seconds
    )
    extra["bench.trace.overhead"] = _ratio(traced.seconds, untraced.seconds)
    extra["max_batch"] = after["service.max_batch"]
    extra["wal_bytes"] = wal_bytes.total
    replay = Tracer.aggregate(spans)
    delta = {name: after[name] - before.get(name, 0) for name in after}
    Tracer.write(spans, OUT / f"trace-{workload}.jsonl")
    return {
        "metrics": layer_metrics(replay, whole_run, count, delta, extra),
        "attempted": oracle.attempted, "failed": oracle.failed,
        "failures": oracle.first_failures,
        "detail": {
            "self_time": _self_time_table(replay),
            "replay_ops": count,
            "untraced_ops_s": len(untraced) / untraced.seconds,
            "traced_ops_s": len(traced) / traced.seconds,
            "without_socket_ops_s": len(direct) / direct.seconds,
            "spans": len(spans),
        },
    }


def run_engine(seed: int, smoke: bool = False) -> Dict[str, object]:
    """The traced run of ``engine-maintain``: the same phases, shorter, twice."""
    scale = 0.4
    untraced = engine_bench.run(
        seed, smoke=smoke, scale=scale, naive_check=False, calibrator=Uncalibrated()
    )
    tracer = Tracer()
    tracer.install(SETUP_TARGETS + HOT_TARGETS)
    before = _registry_counters()
    try:
        traced = engine_bench.run(
            seed, smoke=smoke, scale=scale, naive_check=False, calibrator=Uncalibrated()
        )
    finally:
        tracer.uninstall()
    after = _registry_counters()
    spans = tracer.take()
    replay = Tracer.aggregate(spans)
    OUT.mkdir(exist_ok=True)
    Tracer.write(spans, OUT / "trace-engine-maintain.jsonl")
    ops = replay.get("core.maintenance.run", Aggregate()).calls
    slow, fast = (
        run["detail"]["large"]["runtime"]["total_s"] for run in (traced, untraced)
    )
    extra = {
        "bench.trace.overhead": _ratio(slow, fast),
        "core.maintenance.scale_ratio": traced["detail"]["scale_ratio"],
    }
    delta = {name: after[name] - before[name] for name in after}
    return {
        "metrics": layer_metrics(replay, replay, ops, delta, extra),
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
        "failures": untraced["failures"] + traced["failures"],
        "detail": {"self_time": _self_time_table(replay), "replay_ops": ops,
                   "spans": len(spans)},
    }
