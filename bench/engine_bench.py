"""``engine-maintain``: the paper's integrity-maintenance loop, in process.

No socket, no service, no WAL: a :class:`~repro.db.storage.Store` on the
``MemoryEngine`` holding a forward graph, at two sizes (300x8 = 2.4k rows
and 2400x8 = 19.2k rows).  Per size:

* **cold checks** — eight constraint sentences evaluated on a freshly built
  database with every engine cache cleared, repeated;
* **run-time stream** — single-tuple transactions in the E15 mix (forward
  inserts, back edges, loops, deletions) through ``IntegrityMaintainer``
  under ``RuntimeCheckPolicy`` with ``no-loops`` and ``no-triangles``;
* **static stream** — E13-shape transactions (insert, insert-loop, prune)
  under ``StaticPreconditionPolicy`` with ``WpcCalculator``-derived
  preconditions for ``no-loops``, and the same stream again under the
  run-time policy, which must end in the same state.

Every decision of the run-time stream is compared with a plain-Python
model; the first 100 decisions of a toy-sized stream are compared with the
``naive`` backend's (at 2.4k rows one naive evaluation of ``no-triangles``
takes over a minute, so the naive comparison runs on 20 accounts).
"""

from __future__ import annotations

import random
import resource
import statistics
import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

import gen
from calib import Calibrator
from workloads import Deck

__all__ = ["SIZES", "SENTENCES", "run"]

#: name -> (accounts, edges per account, cold repetitions, run-time stream
#: length, static stream length); the static stream is the shorter one because
#: at 19.2k rows one precondition evaluation costs eight run-time checks
SIZES = {"small": (300, 8, 3, 150, 100), "large": (2400, 8, 3, 300, 100)}
SMOKE_SIZES = {"small": (60, 4, 1, 40, 20), "large": (240, 4, 1, 40, 20)}

SENTENCES = (
    "forall x . ~E(x, x)",
    "forall x . forall y . forall z . (E(x, y) & E(y, z)) -> ~E(z, x)",
    "forall x . ~(exists>=40 y . E(x, y))",
    "forall x . forall y . E(x, y) -> ~E(y, x)",
    "exists x . exists y . E(x, y)",
    "forall x . (exists y . E(y, x)) -> (exists z . E(x, z) | E(z, x))",
    "exists x . exists y . exists z . E(x, y) & E(y, z)",
    "forall x . forall y . (E(x, y) & E(y, x)) -> x = y",
)

Edge = Tuple[int, int]


def e15_stream(accounts: int, length: int, rng: random.Random) -> List[Tuple[str, Edge]]:
    """Single-tuple updates in the E15 proportions, as ``(kind, edge)`` pairs."""
    # E15's 8 % loops, 60 % forward, 14 % back, 18 % deletions — dealt from a
    # deck, so every 50 updates hold exactly those shares whatever the seed
    kinds = Deck(["loop"] * 4 + ["forward"] * 30 + ["back"] * 7 + ["delete"] * 9, rng)
    updates = []
    for _ in range(length):
        a, b = rng.randrange(accounts), rng.randrange(accounts)
        kind = kinds.draw()
        if a == b or kind == "loop":
            updates.append(("insert", (a, a)))
        elif kind == "forward":
            updates.append(("insert", (min(a, b), max(a, b))))
        elif kind == "back":
            updates.append(("insert", (max(a, b), min(a, b))))
        else:
            updates.append(("delete", (min(a, b), max(a, b))))
    return updates


def e13_stream(accounts: int, length: int, rng: random.Random) -> List[Tuple[str, Edge]]:
    """E13's shapes without ``symmetrise`` (which would double the data)."""
    kinds = Deck(["insert", "insert", "insert-loop", "prune"], rng)
    updates = []
    for _ in range(length):
        kind = kinds.draw()
        a, b = rng.randrange(accounts), rng.randrange(accounts)
        if kind == "insert-loop":
            updates.append(("insert", (a, a)))
        elif kind == "insert":
            updates.append(("insert", (a, b)))
        else:
            updates.append(("prune", (0, 0)))
    return updates


def _programs(updates: Sequence[Tuple[str, Edge]]):
    from repro.logic import parse
    from repro.transactions import DeleteWhere, FOProgram, InsertTuple

    programs = []
    for kind, (a, b) in updates:
        if kind == "insert":
            programs.append(FOProgram([InsertTuple("E", a, b)], name=f"insert-{a}-{b}"))
        elif kind == "delete":
            condition = parse(f"x = {a} & y = {b}")
            programs.append(
                FOProgram([DeleteWhere("E", ("x", "y"), condition)], name=f"delete-{a}-{b}")
            )
        else:
            programs.append(
                FOProgram([DeleteWhere("E", ("x", "y"), parse("x = y"))], name="prune")
            )
    return programs


def _model_accepts(edges: Set[Edge], onward: Dict[int, Set[int]], kind: str, edge: Edge) -> bool:
    """Apply one E15 update to the plain-Python model; was it kept?"""
    a, b = edge
    if kind == "delete":
        if edge in edges:
            edges.discard(edge)
            onward[a].discard(b)
        return True
    if edge in edges:
        return True
    if a == b:
        return False
    # the new edge a -> b closes a triangle iff some b -> w -> a exists
    if any(a in onward.get(w, ()) for w in onward.get(b, ())):
        return False
    edges.add(edge)
    onward.setdefault(a, set()).add(b)
    return True


def _timed_stream(maintainer, programs) -> Tuple[Dict[str, object], List[bool]]:
    """Run the stream one transaction at a time: its timings, and what was kept."""
    at, times, kept = [], [], []
    for program in programs:
        begun = time.perf_counter()
        report = maintainer.run([program])
        ended = time.perf_counter()
        at.append(begun)
        times.append((ended - begun) * 1e3)
        kept.append(report.committed == 1)
    ordered = sorted(times)
    return {
        "n": len(times),
        "p50_ms": gen.percentile(ordered, 0.50),
        "tail_ms": gen.percentile(ordered, 0.95),
        "p99_ms": gen.percentile(ordered, 0.99),
        "total_s": sum(times) / 1e3,
        # per transaction, for scaling to nominal speed once the run is over
        "at": at, "ms": times, "window": (at[0], ended),
    }, kept


class _Check:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def that(self, ok: bool, why: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(why)


def _one_size(
    label: str, shape, seed: int, check: _Check, setups: int, scale: float
) -> Dict[str, object]:
    from repro.core import (
        Constraint, IntegrityMaintainer, PrerelationSpec, RuntimeCheckPolicy,
        StaticPreconditionPolicy, WpcCalculator,
    )
    from repro.db import GRAPH_SCHEMA, Database, MemoryEngine, Store
    from repro.engine import active_backend
    from repro.logic import parse
    from repro.service.workloads import forward_graph

    accounts, edges_per, cold_reps, runtime_length, static_length = shape
    backend = active_backend()
    sentences = [parse(source) for source in SENTENCES]
    no_loops, no_triangles = sentences[0], sentences[1]
    out: Dict[str, object] = {"accounts": accounts}

    # set-up as a user pays it: data, store, maintainer, first evaluation
    setup_windows = []
    for _ in range(setups):
        backend.clear_caches()
        begun = time.perf_counter()
        graph = forward_graph(accounts, edges_per, seed=1)  # the data set is fixed
        constraints = [
            Constraint("no-loops", no_loops), Constraint("no-triangles", no_triangles)
        ]
        store = Store(GRAPH_SCHEMA, graph, engine=MemoryEngine())
        maintainer = IntegrityMaintainer(store, constraints, RuntimeCheckPolicy())
        consistent = maintainer.invariant_holds()
        setup_windows.append((begun, time.perf_counter()))
        check.that(consistent, f"{label}: the initial graph violates a constraint")
    out["setup_windows"] = setup_windows
    rows = sorted(graph.relation("E"))
    out["rows"] = len(rows)

    # cold checks: fresh database object, every cache cleared, each repetition
    cold_windows, cold_each = [], []
    for _ in range(cold_reps):
        backend.clear_caches()
        database = Database.graph(rows)
        first = time.perf_counter()
        for sentence in sentences:
            begun = time.perf_counter()
            backend.evaluate(sentence, database)
            cold_each.append((time.perf_counter() - begun) * 1e3)
        cold_windows.append((first, time.perf_counter()))
    out["cold_windows"] = cold_windows
    out["cold_check_ms"] = statistics.median(cold_each)

    # the run-time stream, checked decision by decision against the model
    updates = e15_stream(
        accounts, max(10, int(runtime_length * scale)), random.Random(f"e15/{seed}/{label}")
    )
    out["runtime"], kept = _timed_stream(maintainer, _programs(updates))
    edges = set(rows)
    onward: Dict[int, Set[int]] = {}
    for a, b in rows:
        onward.setdefault(a, set()).add(b)
    for (kind, edge), committed in zip(updates, kept):
        accepted = _model_accepts(edges, onward, kind, edge)
        check.that(
            committed == accepted,
            f"{label}: {kind}{edge} was {'kept' if committed else 'rolled back'}, "
            f"the model says {'keep' if accepted else 'reject'}",
        )
    check.that(
        set(store.snapshot().relation("E")) == edges,
        f"{label}: the run-time stream's final state differs from the model",
    )

    # the static stream, and the same stream under the run-time policy
    updates = e13_stream(
        accounts, max(10, int(static_length * scale)), random.Random(f"e13/{seed}/{label}")
    )
    programs = _programs(updates)
    begun = time.perf_counter()
    preconditions = {
        program.name: WpcCalculator(PrerelationSpec.from_fo_program(program)).wpc(no_loops)
        for program in {p.name: p for p in programs}.values()
    }
    out["wpc_derive_s"] = time.perf_counter() - begun
    finals = []
    for policy, table in (
        (StaticPreconditionPolicy(), preconditions), (RuntimeCheckPolicy(), {}),
    ):
        store = Store(GRAPH_SCHEMA, graph, engine=MemoryEngine())
        constraint = Constraint("no-loops", no_loops, dict(table))
        maintainer = IntegrityMaintainer(store, [constraint], policy)
        maintainer.invariant_holds()  # warm, as a long-lived maintainer is
        out[policy.name], _kept = _timed_stream(maintainer, programs)
        finals.append(store.snapshot())
        check.that(maintainer.invariant_holds(), f"{label}: {policy.name} broke no-loops")
    check.that(
        finals[0] == finals[1], f"{label}: the two policies ended in different states"
    )
    return out


def _naive_agreement(seed: int, check: _Check) -> None:
    """First 100 decisions of a toy stream: active backend vs the interpreter."""
    from repro.engine import NaiveBackend, active_backend
    from repro.logic import parse
    from repro.db import Delta
    from repro.service.workloads import forward_graph

    backend, naive = active_backend(), NaiveBackend()
    constraints = [parse(SENTENCES[0]), parse(SENTENCES[1])]
    database = forward_graph(20, 3, seed=1)
    decided = 0
    for kind, edge in e15_stream(20, 400, random.Random(f"naive/{seed}")):
        delta = Delta.insertion("E", edge) if kind == "insert" else Delta.deletion("E", edge)
        candidate = database.apply_delta(delta)
        if candidate is database:
            continue
        verdict = all(backend.evaluate(c, candidate) for c in constraints)
        check.that(
            verdict == all(naive.evaluate(c, candidate) for c in constraints),
            f"naive backend disagrees on {kind}{edge}",
        )
        if verdict:
            database = candidate
        decided += 1
        if decided == 100:
            break


def run(
    seed: int, smoke: bool = False, scale: float = 1.0, naive_check: bool = True,
    calibrator: Optional[Calibrator] = None,
) -> Dict[str, object]:
    """Measure ``engine-maintain``; returns metrics, counts and the details.

    ``scale`` multiplies the stream lengths (1.0 is the 20-second plan).
    Times are reported at nominal machine speed (see :mod:`calib`).
    """
    sizes = SMOKE_SIZES if smoke else SIZES
    check = _Check()
    calibrator = calibrator if calibrator is not None else Calibrator()
    with calibrator:
        small = _one_size("small", sizes["small"], seed, check, 1, scale)
        large = _one_size("large", sizes["large"], seed, check, 1 if smoke else 3, scale)
    if naive_check:
        _naive_agreement(seed, check)

    def nominal_seconds(windows) -> float:
        return statistics.median(
            (ended - begun) / calibrator.factor(begun, ended) for begun, ended in windows
        )

    def nominal_ms(stream: Dict[str, object], q: float) -> float:
        return calibrator.nominal_quantile(stream["at"], stream["ms"], q, *stream["window"])

    runtime, static = large["runtime"], large["static-precondition"]
    finished = [at + ms / 1e3 for at, ms in zip(runtime["at"], runtime["ms"])]
    metrics = {
        "setup_s": nominal_seconds(large["setup_windows"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "light_p50_ms": nominal_ms(static, 0.50),
        "heavy_p50_ms": nominal_ms(runtime, 0.50),
        "capacity_ops_s": calibrator.nominal_rate(finished, *runtime["window"]),
        "recovery_s": nominal_seconds(large["cold_windows"]),
    }
    detail = {
        "small": small, "large": large,
        "scale_ratio": metrics["heavy_p50_ms"] / nominal_ms(small["runtime"], 0.50),
    }

    return {
        "metrics": metrics, "attempted": check.attempted, "failed": check.failed,
        "failures": check.failures, "detail": detail,
    }
