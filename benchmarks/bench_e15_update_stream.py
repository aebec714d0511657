"""E15 — the update stream: single-tuple maintenance cost scales with |Δ|.

Checking a constraint is fast on the compiled engine (one compiled plan per
formula, memoised per database); this experiment measures the *update* hot
path: a long stream of single-tuple transactions, each followed by a
re-check of the integrity constraints, in the style of the E13 maintenance
workload but at a per-update granularity.

Every re-check starts from a state known to satisfy the constraints, so it
is the paper's simplified check (Nicolas-style, what ``RuntimeCheckPolicy``
and the transaction service run):
:func:`~repro.core.simplification.holds_after_update` evaluates each denial
constraint only at the rows the update inserted, a handful of index probes
through the backend's prepared door — O(delta) work, and nothing for a
deletion.  A full re-check would cost O(database).  ``benchmarks/run_all.py``
runs this file under the compiled engine and ``naive`` (the small oracle
case).

The constraints are deliberately join-shaped (triangle-freedom plus
loop-freedom) so a full re-check costs O(|E| * degree) while a single-tuple
delta touches O(degree) rows.

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
from repro.core.simplification import holds_after_update
from repro.transactions import FOProgram, InsertTuple

NO_TRIANGLES = parse(
    "forall x . forall y . forall z . (E(x, y) & E(y, z)) -> ~E(z, x)"
)
NO_LOOPS = parse("forall x . ~E(x, x)")
CONSTRAINTS = (Constraint("no-triangles", NO_TRIANGLES), Constraint("no-loops", NO_LOOPS))


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


def step(db, delta, constraints, backend):
    """One transaction from ``db``, a state known to satisfy ``constraints``:
    ``(candidate, holds, full_checks)``, or ``None`` for an ineffective delta.
    Each constraint is re-checked at the rows ``delta`` inserted, stopping at
    the first that fails."""
    effective = delta.normalized(db)
    if effective.is_empty():
        return None
    candidate = db.apply_delta(effective)
    full_checks = 0
    for constraint in constraints:
        holds, full = holds_after_update(constraint, candidate, effective, backend=backend)
        full_checks += full
        if not holds:
            return candidate, False, full_checks
    return candidate, True, full_checks


def run_stream(db, updates, constraints, backend):
    """Apply each delta, re-check the constraints, keep or discard — the
    runtime-monitoring policy at single-tuple granularity.  Returns the final
    state, the commits and the full checks that ran."""
    committed = full_checks = 0
    for delta in updates:
        outcome = step(db, delta, constraints, backend)
        if outcome is None:
            continue
        candidate, holds, full = outcome
        full_checks += full
        if holds:
            db = candidate
            committed += 1
    return db, committed, full_checks


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
    assert all(c.holds(start, backend=backend) for c in CONSTRAINTS)

    def run():
        return run_stream(start, updates, CONSTRAINTS, backend)

    final, committed, full_checks = benchmark(run)
    # both the commit and the reject path must have been exercised, each
    # re-check at the touched tuples alone
    assert 0 < committed < length
    assert full_checks == 0
    assert all(c.holds(final, backend=backend) for c in CONSTRAINTS)
    benchmark.extra_info["committed"] = committed


def test_e15_update_cost_scale_ratio(benchmark):
    """What a single-tuple transaction costs at 8x the rows.

    The mix above at 300x8 and at 2400x8 rows, one transaction at a time
    (apply, re-check at the touched tuples, keep or discard); the figure is
    the ratio of the per-transaction medians.  The first two transactions of
    each stream are the cold ones — they compile the instances' plans — and
    are left out.  A claim about the compiled engine's index probes, so the
    interpreter sits out.
    """
    backend = active_backend()
    if backend.name != "compiled":
        pytest.skip("update cost against |D| is a property of the compiled engine")

    def median_ms(accounts):
        db = initial_database(accounts, 8)
        times, full_checks = [], 0
        for delta in build_updates(accounts, 160, seed=accounts):
            begun = time.perf_counter()
            outcome = step(db, delta, CONSTRAINTS, backend)
            if outcome is None:
                continue
            candidate, holds, full = outcome
            if holds:
                db = candidate
            times.append(time.perf_counter() - begun)
            full_checks += full
        warm = sorted(times[2:])
        assert len(warm) >= 100 and full_checks == 0
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
    end (patched snapshots, provenance-routed apply_database, constraint
    re-checks at the touched tuples once the first commit is known good)."""
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
    benchmark.extra_info["full_checks"] = report.full_checks


def test_e15_stream_oracle(benchmark):
    """Small-size ground truth: the active backend's accept/reject decisions
    at the touched tuples equal the naive interpreter's full checks, state by
    state."""
    backend = active_backend()
    naive = NaiveBackend()
    start = initial_database(14, 2, seed=5)
    updates = build_updates(14, 60, seed=6)

    def run():
        db = start
        decisions = []
        for delta in updates:
            outcome = step(db, delta, CONSTRAINTS, backend)
            if outcome is None:
                continue
            candidate, verdict, _full = outcome
            assert verdict == all(naive.evaluate(c.formula, candidate) for c in CONSTRAINTS)
            decisions.append(verdict)
            if verdict:
                db = candidate
        return decisions

    decisions = benchmark(run)
    assert True in decisions and False in decisions
