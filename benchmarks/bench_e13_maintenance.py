"""E13 — the introduction's motivation: integrity maintenance strategies.

Workload: a referral-network database of growing size processes a mixed stream
of first-order transactions (some of which would violate the constraints).
Compared policies:

* ``unchecked``          — no checking (baseline; lets violations through),
* ``runtime-check``      — execute, re-check constraints, roll back,
* ``static-precondition``— evaluate precomputed weakest preconditions first.

The qualitative shape asserted: both safe policies keep the invariant and end
in the same state; only the run-time policy performs roll-backs; the unchecked
baseline misses violations.  Timings per database size are recorded by
pytest-benchmark.

The paper's cost argument is recorded in its hardware-independent form: at
the largest size, the per-transaction time under the static-precondition
policy over the same under the run-time policy (``BENCH-METRIC
e13-static-vs-runtime``, folded into ``BENCH_<rev>.json``; ``run_all.py``
holds it under a ceiling on every run).
"""

import json
import random
import time

import pytest

from repro.db import Database, GRAPH_SCHEMA, Store
from repro.engine import active_backend
from repro.logic import parse
from repro.core import (
    Constraint,
    IntegrityMaintainer,
    PrerelationSpec,
    RuntimeCheckPolicy,
    StaticPreconditionPolicy,
    UncheckedPolicy,
    WpcCalculator,
)
from repro.transactions import DeleteWhere, FOProgram, InsertTuple, InsertWhere


NO_LOOPS = parse("forall x . ~E(x, x)")


def build_workload(length, accounts, seed=0):
    rng = random.Random(seed)
    workload = []
    for _ in range(length):
        kind = rng.choice(["symmetrise", "insert", "insert-loop", "prune"])
        if kind == "symmetrise":
            workload.append(FOProgram(
                [InsertWhere("E", ("x", "y"), parse("E(y, x)"))], name="symmetrise"))
        elif kind == "insert":
            a, b = rng.randrange(accounts), rng.randrange(accounts)
            workload.append(FOProgram(
                [InsertTuple("E", a, b)], name=f"insert-{a}-{b}"))
        elif kind == "insert-loop":
            a = rng.randrange(accounts)
            workload.append(FOProgram([InsertTuple("E", a, a)], name=f"loop-{a}"))
        else:
            workload.append(FOProgram(
                [DeleteWhere("E", ("x", "y"), parse("x = y"))], name="prune"))
    return workload


def initial_database(accounts, seed=1):
    rng = random.Random(seed)
    edges = set()
    for a in range(accounts):
        b = rng.randrange(accounts)
        if a != b:
            edges.add((a, b))
    return Database.graph(edges)


def attach_preconditions(workload):
    preconditions = {}
    for program in {p.name: p for p in workload}.values():
        spec = PrerelationSpec.from_fo_program(program)
        preconditions[program.name] = WpcCalculator(spec).wpc(NO_LOOPS)
    return [Constraint("no-loops", NO_LOOPS, preconditions)]


POLICIES = {
    "unchecked": UncheckedPolicy,
    "runtime-check": RuntimeCheckPolicy,
    "static-precondition": StaticPreconditionPolicy,
}


@pytest.mark.parametrize("accounts", [10, 30, 250])
@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_e13_policy_cost(benchmark, policy_name, accounts):
    # 250 accounts is the production-scale point: evaluating the rank-3
    # precondition per transaction is what separates the engines
    workload = build_workload(30, accounts, seed=7)
    constraints = attach_preconditions(workload)
    start = initial_database(accounts)

    def run():
        store = Store(GRAPH_SCHEMA, start)
        maintainer = IntegrityMaintainer(store, constraints, POLICIES[policy_name]())
        report = maintainer.run(workload)
        return report, maintainer.invariant_holds(), store.snapshot()

    report, invariant, _final = benchmark(run)
    if policy_name == "unchecked":
        # violations slip through mid-stream (the invariant may happen to be
        # restored by a later "prune" transaction, so only the miss count is
        # asserted)
        assert report.violations_missed > 0
    else:
        assert invariant
        assert report.violations_missed == 0
        if policy_name == "static-precondition":
            assert report.rolled_back == 0
            assert report.rejected_statically > 0
        else:
            assert report.rolled_back > 0
    benchmark.extra_info["committed"] = report.committed
    benchmark.extra_info["rolled_back"] = report.rolled_back
    benchmark.extra_info["rejected_statically"] = report.rejected_statically


def test_e13_ablation_simplified_preconditions(benchmark):
    """The concluding-remarks ablation: guards exact under the invariant.

    Each program of tuple inserts and deletions is guarded by its shape's
    guard (:func:`repro.core.simplification.shape_guard` — the derived
    ``Delta``, often ``true`` or ``false``) bound to its constants instead of
    by its ``wpc``; ``symmetrise`` has no shape and keeps its (folded)
    ``wpc``.  The policy then evaluates strictly smaller formulas while still
    maintaining the invariant.
    """
    from repro.core.simplification import bind_slots, program_shape, shape_guard

    workload = build_workload(30, 10, seed=7)
    original = attach_preconditions(workload)[0]
    simplified_preconditions = {}
    reductions = []
    for program in {p.name: p for p in workload}.values():
        precondition = guard = original.preconditions[program.name]
        if program_shape(program) is not None:
            _source, slotted, values = shape_guard(program, NO_LOOPS)
            guard = bind_slots(slotted, values)
        simplified_preconditions[program.name] = guard
        reductions.append(1.0 - guard.size() / precondition.size())
    simplified_constraint = Constraint(original.name, original.formula, simplified_preconditions)
    start = initial_database(10)

    def run():
        store = Store(GRAPH_SCHEMA, start)
        maintainer = IntegrityMaintainer(store, [simplified_constraint], StaticPreconditionPolicy())
        report = maintainer.run(workload)
        return report, maintainer.invariant_holds()

    report, invariant = benchmark(run)
    assert invariant
    assert report.rolled_back == 0
    benchmark.extra_info["mean_size_reduction"] = round(sum(reductions) / len(reductions), 3)


def test_e13_safe_policies_agree_on_final_state(benchmark):
    workload = build_workload(30, 15, seed=9)
    constraints = attach_preconditions(workload)
    start = initial_database(15)

    def run():
        states = []
        for policy in (RuntimeCheckPolicy(), StaticPreconditionPolicy()):
            store = Store(GRAPH_SCHEMA, start)
            IntegrityMaintainer(store, constraints, policy).run(workload)
            states.append(store.snapshot())
        return states[0] == states[1]

    assert benchmark(run)


def test_e13_static_over_runtime_cost_ratio(benchmark):
    """What a static-precondition transaction costs relative to a run-time check.

    The same stream, at the largest size, one transaction at a time under each
    safe policy with a long-lived (warm) maintainer; the figure is the ratio
    of the per-transaction medians.  Both policies must end in the same state.
    A claim about the engine: the interpreter pays the domain squared per
    precondition whatever the engine does, so it sits this one out.
    """
    if active_backend().name == "naive":
        pytest.skip("the static/run-time cost ratio is a property of the compiled engine")
    accounts = 250
    workload = build_workload(80, accounts, seed=7)
    constraints = attach_preconditions(workload)
    start = initial_database(accounts)

    def run():
        medians, finals = {}, []
        for policy_name in ("static-precondition", "runtime-check"):
            store = Store(GRAPH_SCHEMA, start)
            maintainer = IntegrityMaintainer(store, constraints, POLICIES[policy_name]())
            maintainer.invariant_holds()  # warm, as a long-lived maintainer is
            times = []
            for program in workload:
                begun = time.perf_counter()
                maintainer.run([program])
                times.append(time.perf_counter() - begun)
            assert maintainer.invariant_holds()
            medians[policy_name] = sorted(times)[len(times) // 2]
            finals.append(store.snapshot())
        assert finals[0] == finals[1]
        return medians

    medians = benchmark(run)
    ratio = medians["static-precondition"] / medians["runtime-check"]
    payload = {
        "metric": "e13-static-vs-runtime",
        "accounts": accounts,
        "static_ms": round(medians["static-precondition"] * 1e3, 3),
        "runtime_ms": round(medians["runtime-check"] * 1e3, 3),
        "static_over_runtime": round(ratio, 2),
    }
    print(f"BENCH-METRIC {json.dumps(payload, sort_keys=True)}")
    benchmark.extra_info.update(payload)
