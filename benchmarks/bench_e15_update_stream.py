"""E15 — the update stream: single-tuple maintenance cost scales with |Δ|.

The PR-1 engine made *checking* a constraint fast (one compiled plan per
formula, memoised per database); this experiment measures the *update* hot
path it left O(database): a long stream of single-tuple transactions, each
followed by a re-check of the integrity constraints, in the style of the E13
maintenance workload but at a per-update granularity.

Under ``REPRO_BACKEND=compiled`` (delta evaluation on, the default) every
re-check walks the post-state's ``apply_delta`` provenance and re-derives the
compiled plan node by node from the previous result — O(delta) work.  Under
``compiled-nodelta`` the same engine re-executes the full plan per update —
O(database) work.  ``benchmarks/run_all.py`` runs this file under both (plus
``naive`` for the small oracle case) and records ``delta_speedup`` in the
``BENCH_<rev>.json`` trajectory; the asymptotic claim is that the ratio grows
with the database size.

The constraints are deliberately join-shaped (triangle-freedom plus
loop-freedom) so a full re-check costs O(|E| * degree) while a single-tuple
delta touches O(degree) intermediate rows.

That the price of a step is the price of the *update*, not of the database,
is recorded in its hardware-independent form: the per-transaction median of
the same mix at 19.2k rows over the one at 2.4k rows (``BENCH-METRIC
e15-scale``, folded into ``BENCH_<rev>.json``; ``run_all.py`` holds it under
a ceiling on every run).
"""

import json
import random
import time

import pytest

from repro.db import Database, Delta, GRAPH_SCHEMA, Store
from repro.engine import NaiveBackend, active_backend
from repro.logic import parse
from repro.core import Constraint, IntegrityMaintainer, RuntimeCheckPolicy
from repro.transactions import FOProgram, InsertTuple

NO_TRIANGLES = parse(
    "forall x . forall y . forall z . (E(x, y) & E(y, z)) -> ~E(z, x)"
)
NO_LOOPS = parse("forall x . ~E(x, x)")


def initial_database(accounts, edges_per, seed=1):
    """A triangle-free referral network: all edges point 'forward' (a < b)."""
    rng = random.Random(seed)
    edges = set()
    while len(edges) < accounts * edges_per:
        a, b = rng.randrange(accounts), rng.randrange(accounts)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return Database.graph(edges)


def build_updates(accounts, length, seed=2):
    """Single-tuple deltas: mostly forward inserts, some back-edges and loops
    (candidate violations), some deletions."""
    rng = random.Random(seed)
    updates = []
    for _ in range(length):
        a, b = rng.randrange(accounts), rng.randrange(accounts)
        roll = rng.random()
        if a == b or roll < 0.08:
            updates.append(Delta.insertion("E", (a, a)))      # loop: rejected
        elif roll < 0.68:
            updates.append(Delta.insertion("E", (min(a, b), max(a, b))))
        elif roll < 0.82:
            updates.append(Delta.insertion("E", (max(a, b), min(a, b))))
        else:
            updates.append(Delta.deletion("E", (min(a, b), max(a, b))))
    return updates


def run_stream(db, updates, constraints, backend):
    """Apply each delta, re-check the constraints, keep or discard — the
    runtime-monitoring policy at single-tuple granularity."""
    committed = 0
    for delta in updates:
        candidate = db.apply_delta(delta)
        if candidate is db:
            continue
        if all(backend.evaluate(c, candidate) for c in constraints):
            db = candidate
            committed += 1
    return db, committed


# the production-scale point: 300 accounts * 8 referrals = 2400 edges
SIZES = {"small": (40, 4, 120), "production": (300, 8, 400)}


@pytest.mark.parametrize("size", sorted(SIZES))
def test_e15_single_tuple_update_stream(benchmark, size):
    accounts, edges_per, length = SIZES[size]
    backend = active_backend()
    if backend.name == "naive" and size != "small":
        pytest.skip("tuple-at-a-time interpretation is infeasible at this size")
    start = initial_database(accounts, edges_per)
    updates = build_updates(accounts, length)
    constraints = (NO_TRIANGLES, NO_LOOPS)
    assert all(backend.evaluate(c, start) for c in constraints)

    def run():
        return run_stream(start, updates, constraints, backend)

    final, committed = benchmark(run)
    # both the commit and the reject path must have been exercised
    assert 0 < committed < length
    assert all(backend.evaluate(c, final) for c in constraints)
    benchmark.extra_info["committed"] = committed
    benchmark.extra_info["delta_hits"] = getattr(backend, "delta_hits", 0)


def test_e15_update_cost_scale_ratio(benchmark):
    """What a single-tuple transaction costs at 8x the rows.

    The mix above at 300x8 and at 2400x8 rows, one transaction at a time
    (apply, re-check, keep or discard); the figure is the ratio of the
    per-transaction medians.  The first two transactions of each stream are
    the cold ones — the first full evaluation, and the first incremental step,
    which builds the join state — and are left out.  A claim about the
    incremental engine, so the interpreter and the delta-off engine sit out.
    """
    backend = active_backend()
    if backend.name != "compiled" or backend.delta_mode == "off":
        pytest.skip("update cost against |D| is a property of the incremental engine")
    constraints = (NO_TRIANGLES, NO_LOOPS)

    def median_ms(accounts):
        db = initial_database(accounts, 8)
        times = []
        for delta in build_updates(accounts, 160, seed=accounts):
            begun = time.perf_counter()
            candidate = db.apply_delta(delta)
            if candidate is db:
                continue
            if all(backend.evaluate(c, candidate) for c in constraints):
                db = candidate
            times.append(time.perf_counter() - begun)
        warm = sorted(times[2:])
        assert len(warm) >= 100 and backend.delta_hits > 0
        return warm[len(warm) // 2] * 1e3

    def run():
        return median_ms(300), median_ms(2400)

    small_ms, large_ms = benchmark(run)
    payload = {
        "metric": "e15-scale",
        "small_ms": round(small_ms, 3),
        "large_ms": round(large_ms, 3),
        "scale_ratio": round(large_ms / small_ms, 2),
    }
    print(f"BENCH-METRIC {json.dumps(payload, sort_keys=True)}")
    benchmark.extra_info.update(payload)


def test_e15_maintenance_policy_stream(benchmark):
    """The same claim through the full E13 machinery: store, transactions,
    runtime-check policy — per-transaction cost rides the delta path end to
    end (patched snapshots, provenance-routed apply_database, incremental
    constraint re-checks)."""
    backend = active_backend()
    if backend.name == "naive":
        pytest.skip("tuple-at-a-time interpretation is infeasible at this size")
    accounts = 250
    rng = random.Random(11)
    start = initial_database(accounts, 8)
    workload = []
    for i in range(120):
        a, b = rng.randrange(accounts), rng.randrange(accounts)
        if rng.random() < 0.12 or a == b:
            workload.append(FOProgram([InsertTuple("E", a, a)], name=f"loop-{i}"))
        else:
            workload.append(
                FOProgram([InsertTuple("E", min(a, b), max(a, b))], name=f"ref-{i}")
            )
    constraints = [Constraint("no-loops", NO_LOOPS), Constraint("no-triangles", NO_TRIANGLES)]

    def run():
        store = Store(GRAPH_SCHEMA, start)
        maintainer = IntegrityMaintainer(store, constraints, RuntimeCheckPolicy())
        report = maintainer.run(workload)
        return report, maintainer.invariant_holds()

    report, invariant = benchmark(run)
    assert invariant
    assert report.committed > 0
    assert report.rolled_back > 0
    benchmark.extra_info["committed"] = report.committed
    benchmark.extra_info["incremental"] = report.incremental_evaluations


def test_e15_stream_oracle(benchmark):
    """Small-size ground truth: the active backend's accept/reject decisions
    along the stream equal the naive interpreter's, state by state."""
    backend = active_backend()
    naive = NaiveBackend()
    start = initial_database(14, 2, seed=5)
    updates = build_updates(14, 60, seed=6)
    constraints = (NO_TRIANGLES, NO_LOOPS)

    def run():
        db = start
        decisions = []
        for delta in updates:
            candidate = db.apply_delta(delta)
            if candidate is db:
                continue
            verdict = all(backend.evaluate(c, candidate) for c in constraints)
            assert verdict == all(naive.evaluate(c, candidate) for c in constraints)
            decisions.append(verdict)
            if verdict:
                db = candidate
        return decisions

    decisions = benchmark(run)
    assert True in decisions and False in decisions
