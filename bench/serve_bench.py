"""The three socket workloads, measured end to end with tracing off.

One run of a workload is, in order: start the server on a fresh WAL
directory, warm up, **floor** (one connection, one outstanding request: the
two request classes' median latency with nothing queued), closed-loop
**capacity** (2 connections x 8 outstanding, fixed count), with ``--ladder``
the open-loop **rate ladder**, then ``SIGKILL`` and a restart on the same WAL
directory, twice (``recovery_s`` is the median), and one more start on a
fresh directory (``setup_s`` is the median of the two fresh starts).  Every
response is checked against the oracle; the final ``scan E`` must equal the
client-side model before the kill and after each restart.

The gated figures come from the two closed-loop phases.  The open-loop
ladder is printed, not gated: on this two-CPU sandbox ten runs of one 10 s
step repeat within 10 % at the median on the small workloads, within 60-80 %
on ``serve-mixed-large``, and its tails within 20-160 %.

Times are reported at nominal machine speed (see :mod:`calib`): each phase's
raw figure is divided by the calibration factor measured while it ran.
"""

from __future__ import annotations

import asyncio
import gc
import os
import random
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Sequence, Tuple

import gen
from calib import Calibrator
from server import OUT, ServerProcess
from workloads import Op, Oracle, Traffic

__all__ = [
    "GRAPH_SEED", "SMOKE", "SPECS", "ServeSpec", "base_graph", "connections",
    "scan_edges", "warm_up", "run",
]

#: a step whose generator ran later than this (p99) measured the generator
LATE_LIMIT_MS = 5.0

#: the tail quantile the ladder's limits apply to; p99 is printed beside it
TAIL = 0.95


#: the data set is part of the workload: every seed loads the same graph
GRAPH_SEED = 1


@dataclass(frozen=True)
class ServeSpec:
    accounts: int
    #: request kinds of the workload's cheaper class (the rest are "heavy")
    light: FrozenSet[str]
    warmup: int
    #: requests of the floor and the capacity phase at ``--seconds 20``
    floor: int
    capacity: int
    #: offered rates (ops/s), x1.4 apart; ``reference`` is about a third of
    #: the closed-loop capacity measured when the benchmark was written
    ladder: Tuple[int, ...]
    reference: int
    #: tail-latency limits (ms) of the light and the heavy class
    limits: Tuple[float, float]


SPECS: Dict[str, ServeSpec] = {
    "serve-write": ServeSpec(
        accounts=200, light=frozenset({"unlink"}), warmup=300,
        floor=3000, capacity=4000,
        ladder=(200, 280, 400, 560, 800), reference=280, limits=(100.0, 100.0),
    ),
    "serve-read": ServeSpec(
        accounts=200, light=frozenset({"contains"}), warmup=300,
        floor=8000, capacity=12000,
        ladder=(570, 800, 1100, 1550, 2200), reference=800, limits=(25.0, 25.0),
    ),
    "serve-mixed-large": ServeSpec(
        accounts=4000, light=frozenset({"contains", "evaluate"}), warmup=300,
        floor=700, capacity=700,
        ladder=(25, 35, 50, 70, 100), reference=35, limits=(250.0, 400.0),
    ),
}

#: ``--smoke``: same phases, toy sizes (a wiring check, not a measurement)
SMOKE = {
    "serve-write": dict(accounts=40, warmup=60, floor=600, capacity=3000),
    "serve-read": dict(accounts=40, warmup=60, floor=1500, capacity=15000),
    "serve-mixed-large": dict(accounts=300, warmup=60, floor=600, capacity=2000),
}


def connections() -> int:
    """Two generator connections, one where there is a single CPU."""
    return 1 if (os.cpu_count() or 1) == 1 else 2


def base_graph(accounts: int) -> FrozenSet[Tuple[int, int]]:
    """The graph ``repro.serve --accounts A --edges-per 6 --seed 1`` starts from."""
    from repro.service.workloads import forward_graph

    return frozenset(forward_graph(accounts, 6, seed=GRAPH_SEED).relation("E"))


def by_class(
    phase: gen.Phase, ops: Sequence[Op], light: FrozenSet[str]
) -> Dict[str, List[int]]:
    """Indexes of the answered requests of the light and of the heavy class."""
    chosen: Dict[str, List[int]] = {"light": [], "heavy": []}
    for index, op in enumerate(ops):
        if phase.status[index] == 200:
            chosen["light" if op.kind in light else "heavy"].append(index)
    return {name: indexes for name, indexes in chosen.items() if indexes}


def class_stats(phase: gen.Phase, chosen: Dict[str, List[int]]) -> Dict[str, Dict]:
    """Raw median and tail latency per class, at the speed the machine had."""
    stats: Dict[str, Dict] = {}
    for name, indexes in chosen.items():
        sample = sorted(phase.latency_ms(i) for i in indexes)
        stats[name] = {
            "n": len(sample),
            "p50_ms": gen.percentile(sample, 0.50),
            "tail_ms": gen.percentile(sample, TAIL),
            "p99_ms": gen.percentile(sample, 0.99),
        }
    return stats


def backlog_grew(phase: gen.Phase) -> bool:
    """Last-quarter median latency above twice the first quarter's."""
    quarter = len(phase) // 4
    if quarter == 0:
        return False
    first = statistics.median(phase.latency_ms(i) for i in range(quarter))
    last = statistics.median(
        phase.latency_ms(i) for i in range(len(phase) - quarter, len(phase))
    )
    return last > 2.0 * first


async def open_step(
    address, spec: ServeSpec, traffic: Traffic, oracle: Oracle,
    rate: int, seconds: float, rng: random.Random,
) -> Dict[str, object]:
    """One open-loop step: ``rate * seconds`` requests on a Poisson schedule.

    The verdict is taken on the raw figures, at the speed the machine had.
    """
    count = int(rate * seconds)
    blobs, ops = traffic.take(count)
    phase = await gen.open_loop(
        *address, blobs, gen.poisson_schedule(rate, count, rng), connections()
    )
    failed = oracle.check(phase, ops)
    stats = class_stats(phase, by_class(phase, ops, spec.light))
    late_p99 = gen.percentile(sorted(phase.late_ms()), 0.99)
    within = all(
        stats[name]["tail_ms"] <= limit
        for name, limit in zip(("light", "heavy"), spec.limits)
        if name in stats
    )
    if late_p99 > LATE_LIMIT_MS:
        verdict = "generator_limited"
    elif failed or not within or backlog_grew(phase):
        verdict = "fail"
    else:
        verdict = "pass"
    return {
        "rate": rate, "sent": count, "seconds": phase.seconds, "failed": failed,
        "late_p99_ms": late_p99, "verdict": verdict,
        "reference": rate == spec.reference, **stats,
    }


async def scan_edges(address) -> object:
    """The server's ``scan E`` (``None`` if it did not answer 200)."""
    status, payload = await gen.request_once(
        *address, gen.encode("POST", "/read", {"scan": "E"})
    )
    return payload["result"] if status == 200 else None


async def warm_up(address, spec: ServeSpec, traffic: Traffic, oracle: Oracle) -> None:
    """Connections, worker threads, plan cache — checked, not reported."""
    if traffic.read_share == 1.0 and spec.accounts * 8 <= 2048:
        blobs, ops = traffic.every_evaluate()
        oracle.check(await gen.closed_loop(*address, blobs, connections(), 4), ops)
    blobs, ops = traffic.take(spec.warmup)
    oracle.check(await gen.closed_loop(*address, blobs, connections(), 4), ops)


async def _measure(
    server: ServerProcess, spec: ServeSpec, traffic: Traffic, oracle: Oracle,
    seconds: float, ladder: bool, seed: int,
) -> Dict[str, object]:
    """Drive the phases against a healthy server; raw phases, nothing scaled."""
    address = server.address
    oracle.check_scan(await scan_edges(address), "initial state")
    detail: Dict[str, object] = {}
    await warm_up(address, spec, traffic, oracle)

    scale = seconds / 20.0
    blobs, ops = traffic.take(max(50, int(spec.floor * scale)))
    floor = await gen.closed_loop(*address, blobs, 1, 1)
    oracle.check(floor, ops)
    detail["floor"] = {"phase": floor, "ops": ops}

    blobs, ops = traffic.take(max(50, int(spec.capacity * scale)))
    detail["capacity"] = await gen.closed_loop(*address, blobs, connections(), 8)
    oracle.check(detail["capacity"], ops)
    # before the ladder, whose overloaded steps inflate it
    detail["peak_rss_mb"] = server.peak_rss_mb()

    if ladder:
        # open loop, after everything gated; stops after the first failing step
        rng = random.Random(f"arrivals/{seed}")
        steps = []
        for rate in spec.ladder:
            steps.append(await open_step(
                address, spec, traffic, oracle, rate, seconds / 2, rng
            ))
            if steps[-1]["verdict"] == "fail":
                break
        detail["ladder"] = steps
        passed = [step["rate"] for step in steps if step["verdict"] == "pass"]
        detail["max_rate_ok"] = max(passed) if passed else 0

    oracle.check_scan(await scan_edges(address), "final state")
    return detail


def _timed_start(server: ServerProcess) -> Tuple[float, float]:
    begun = time.perf_counter()
    server.start()
    return begun, time.perf_counter()


def run(
    workload: str, seed: int, seconds: float, ladder: bool = False, smoke: bool = False
) -> Dict[str, object]:
    """Measure one socket workload; returns metrics, counts and the details."""
    spec = SPECS[workload]
    if smoke:
        spec = replace(spec, ladder=(spec.reference,), **SMOKE[workload])
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    log_path = OUT / f"server-{workload}.log"
    log_path.write_bytes(b"")
    traffic = Traffic(workload, seed, spec.accounts, base_graph(spec.accounts))
    oracle = Oracle(traffic)
    server = ServerProcess(spec.accounts, os.path.join(scratch, "wal"), log_path, GRAPH_SEED)
    spare = ServerProcess(spec.accounts, os.path.join(scratch, "wal-2"), log_path, GRAPH_SEED)
    # the generator allocates no cycles worth collecting while it measures,
    # and a collection pass over its request lists would stall its schedule
    gc.collect()
    gc.disable()
    try:
        with Calibrator() as calibrator:
            setups = [_timed_start(server)]
            detail = asyncio.run(
                _measure(server, spec, traffic, oracle, seconds, ladder, seed)
            )
            recoveries = []
            for attempt in range(1 if smoke else 2):
                begun = time.perf_counter()
                server.kill()
                server.start()
                recoveries.append((begun, time.perf_counter()))
                oracle.check_scan(
                    asyncio.run(scan_edges(server.address)),
                    f"after SIGKILL + restart {attempt + 1}",
                )
            server.stop()
            if not smoke:
                setups.append(_timed_start(spare))
    finally:
        gc.enable()
        server.stop()
        spare.stop()
        shutil.rmtree(scratch, ignore_errors=True)

    def nominal_seconds(intervals: Sequence[Tuple[float, float]]) -> float:
        return statistics.median(
            (ended - begun) / calibrator.factor(begun, ended) for begun, ended in intervals
        )

    floor, capacity = detail.pop("floor"), detail.pop("capacity")
    phase = floor["phase"]
    chosen = by_class(phase, floor["ops"], spec.light)
    metrics = {
        "setup_s": nominal_seconds(setups),
        "peak_rss_mb": detail["peak_rss_mb"],
        "capacity_ops_s": calibrator.nominal_rate(
            capacity.done, capacity.started, capacity.ended
        ),
        "recovery_s": nominal_seconds(recoveries),
    }
    for name in ("light", "heavy"):
        indexes = chosen.get(name)
        metrics[f"{name}_p50_ms"] = calibrator.nominal_quantile(
            [phase.due[i] for i in indexes], [phase.latency_ms(i) for i in indexes],
            0.50, phase.started, phase.ended,
        ) if indexes else None
    raw = {
        "setup_s": [ended - begun for begun, ended in setups],
        "recovery_s": [ended - begun for begun, ended in recoveries],
        "capacity_ops_s": len(capacity) / capacity.seconds,
        "floor": class_stats(phase, chosen),
        "speed_factor": {
            "floor": calibrator.factor(phase.started, phase.ended),
            "capacity": calibrator.factor(capacity.started, capacity.ended),
        },
    }
    detail["raw"] = raw
    detail["server_env"] = {
        k: ("<private dir>" if k == "REPRO_WAL_DIR" else v)
        for k, v in server.effective_env.items()
    }
    detail["connections"] = connections()
    return {
        "metrics": metrics, "attempted": oracle.attempted, "failed": oracle.failed,
        "failures": oracle.first_failures, "detail": detail,
    }
