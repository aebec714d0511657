"""Shared sub-plans along the update stream: carried state, skipped nodes.

A formula over fresh constants is new to the backend, so nothing is
remembered for it as a whole — but its constant-free sub-plans are the same
nodes in every instance.  These tests pin down that those nodes live in the
one state history: built once, brought from state to state by the delta
rules (also across a rollback-style branch), shadowed by ``REPRO_DELTA=verify``
like any other incremental result, and never the reason a later evaluation
loses its incremental path.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import PrerelationSpec, WpcCalculator
from repro.db import Database, Delta, random_graph
from repro.engine import CompiledBackend, ExecutionContext, NaiveBackend
from repro.engine.delta import _IncrementalRun
from repro.logic import parse
from repro.logic.signature import EMPTY_SIGNATURE
from repro.transactions import DeleteWhere, FOProgram, InsertTuple, InsertWhere

from strategies import graph_deltas, graphs, maybe_seed

NAIVE = NaiveBackend()
NO_LOOPS = parse("forall x . ~E(x, x)")
ANTISYMMETRIC = parse("forall x . forall y . E(x, y) -> ~E(y, x)")


def precondition(program: FOProgram, constraint=NO_LOOPS):
    return WpcCalculator(PrerelationSpec.from_fo_program(program)).wpc(constraint)


def insert(a, b) -> FOProgram:
    return FOProgram([InsertTuple("E", a, b)], name=f"insert-{a}-{b}")


def programs():
    """Single-tuple and bulk programs; the constants are drawn per step."""
    node = st.sampled_from([0, 1, 2, 3, 7, 99])  # 7 and 99 are never active
    single = st.tuples(node, node).map(lambda edge: insert(*edge))
    remove = st.tuples(node, node).map(
        lambda edge: FOProgram(
            [DeleteWhere("E", ("x", "y"), parse(f"x = {edge[0]} & y = {edge[1]}"))],
            name=f"delete-{edge[0]}-{edge[1]}",
        )
    )
    bulk = st.sampled_from([
        FOProgram([InsertWhere("E", ("x", "y"), parse("E(y, x)"))], name="symmetrise"),
        FOProgram([DeleteWhere("E", ("x", "y"), parse("x = y"))], name="prune"),
    ])
    mixed = st.tuples(node, node).map(
        lambda edge: FOProgram(
            [InsertTuple("E", *edge), DeleteWhere("E", ("x", "y"), parse("x = y"))],
            name=f"insert-{edge[0]}-{edge[1]}-then-prune",
        )
    )
    return st.one_of(single, remove, bulk, mixed)


@maybe_seed
@given(
    base=graphs(),
    steps=st.lists(
        st.tuples(st.booleans(), graph_deltas(), programs()), min_size=1, max_size=8
    ),
)
def test_fresh_preconditions_along_a_branching_stream(base, steps):
    carried = CompiledBackend(delta="verify", optimizer="on")  # carries are shadow-checked
    full = CompiledBackend(delta="off")  # nothing is ever carried
    history = [base]
    for branch, delta, program in steps:
        # the rollback pattern: the stream resumes from the parent state
        origin = history[-2] if branch and len(history) > 1 else history[-1]
        current = origin.apply_delta(delta)
        history.append(current)
        for constraint in (NO_LOOPS, ANTISYMMETRIC):
            formula = precondition(program, constraint)
            expected = NAIVE.evaluate(formula, current)
            assert carried.evaluate(formula, current) == expected, (program, constraint)
            assert full.evaluate(formula, current) == expected, (program, constraint)


def loop_free_stream(length):
    db = random_graph(12, 0.2, seed=3)
    db = db.apply_delta(Delta(deleted={"E": {(n, n) for n in range(12)}}))
    yield db
    for step in range(length):
        db = db.insert("E", (step % 12, (step * 5 + 1) % 12))
        yield db


def test_shared_subplans_are_carried_not_rebuilt():
    backend = CompiledBackend(delta="verify", optimizer="on")
    for step, db in enumerate(loop_free_stream(10)):
        formula = precondition(insert(100 + step, 200 + step))  # never seen before
        assert backend.evaluate(formula, db) == NAIVE.evaluate(formula, db)
    stats = backend.cache_stats()
    # the first formulas build the shared nodes, later ones only move them on
    assert stats["shared_carried"] >= 9
    assert stats["shared_rebuilt"] <= 8
    assert "shared_intermediates" not in stats


def test_partitioned_row_sets_are_shadowed_by_full_executions():
    """The families above hold a handful of rows, so every row set in them is
    one partition.  At 2 000 rows the relation, the 2-path join and the
    carried scans span many: the same stream shapes — whole formulas, fresh
    preconditions, a rolled-back branch — under ``verify``.  Three standing
    preconditions share one plan with the fresh ones and are met again at
    every state, so the plan's parameterised scans are also *updated*
    incrementally, each binding from its own state, and shadowed."""
    from repro.db.delta import RowSet

    no_triangles = parse("forall x . forall y . forall z . (E(x, y) & E(y, z)) -> ~E(z, x)")
    carried = CompiledBackend(delta="verify", optimizer="on")
    full = CompiledBackend(delta="off")
    db = Database.graph(
        (a, a + 1 + (a * 7 + j * 13) % 40) for a in range(250) for j in range(8)
    )
    assert db.cardinality("E") >= 2000
    standing = [
        precondition(insert(3, 200), ANTISYMMETRIC),
        precondition(insert(0, 1), ANTISYMMETRIC),
        precondition(insert(249, 9999), ANTISYMMETRIC),  # 9999 is never active
    ]
    updates = [
        ("insert", (3, 200)), ("insert", (200, 3)), ("delete", (200, 3)),
        ("insert", (7, 7)), ("delete", (7, 7)), ("insert", (120, 5)),
        ("delete", (0, 1)), ("insert", (400, 401)), ("delete", (400, 401)),
        ("insert", (60, 2)), ("insert", (249, 0)), ("delete", (3, 200)),
    ]
    for step, (kind, edge) in enumerate(updates):
        candidate = db.insert("E", edge) if kind == "insert" else db.delete("E", edge)
        verdicts = [
            carried.evaluate(constraint, candidate)  # shadowed by a full run
            for constraint in (NO_LOOPS, ANTISYMMETRIC, no_triangles)
        ]
        assert verdicts == [
            full.evaluate(constraint, candidate)
            for constraint in (NO_LOOPS, ANTISYMMETRIC, no_triangles)
        ]
        fresh = precondition(insert(1000 + step, 5), ANTISYMMETRIC)
        for formula in [fresh] + standing:
            assert carried.evaluate(formula, candidate) == full.evaluate(formula, candidate)
        if all(verdicts):  # keep it; otherwise the stream resumes from the parent
            db = candidate
    # no-op and re-met states hit the memo; past the first state every
    # standing precondition is advanced, not re-run
    assert carried.delta_hits >= len(updates) + len(standing) * (len(updates) - 2)
    assert carried.cache_stats()["plans"] == 4  # three constraints, one precondition shape
    assert carried.cache_stats()["shared_carried"] > 0
    state = carried._state_for(db, (no_triangles, (), None, EMPTY_SIGNATURE))
    spans_partitions = [
        rows for rows in state.rows.values()
        if isinstance(rows, RowSet) and len(rows._parts) > 1
    ]
    assert len(spans_partitions) >= 2  # the relation and a join over it


def test_rejected_update_finds_the_shared_state_where_it_left_it():
    backend = CompiledBackend(delta="on", optimizer="on")
    db = next(loop_free_stream(0))
    backend.evaluate(precondition(insert(100, 200)), db)
    backend.evaluate(precondition(insert(101, 201)), db)
    before = backend.cache_stats()
    backend.evaluate(precondition(insert(102, 202)), db)  # same state again
    after = backend.cache_stats()
    assert after["shared_rebuilt"] == before["shared_rebuilt"]
    assert after["shared_carried"] == before["shared_carried"]


def test_interning_table_is_bounded_by_shapes_not_by_constants():
    backend = CompiledBackend(delta="on", optimizer="on")
    db = next(loop_free_stream(0))
    backend.evaluate(precondition(insert(100, 200)), db)
    backend.evaluate(precondition(insert(101, 201)), db)
    interned, shared = len(backend._canon), len(backend._shared_nodes)
    for step in range(40):
        backend.evaluate(precondition(insert(300 + step, 400 + step)), db)
    assert len(backend._canon) == interned
    assert len(backend._shared_nodes) == shared


def test_delta_off_backend_shares_per_state_but_never_carries():
    backend = CompiledBackend(delta="off", optimizer="on")
    states = list(loop_free_stream(3))
    for step, db in enumerate(states):
        for offset in (0, 50):  # two fresh formulas per state
            formula = precondition(insert(100 + step + offset, 200 + step))
            assert backend.evaluate(formula, db) == NAIVE.evaluate(formula, db)
    stats = backend.cache_stats()
    assert stats["shared_carried"] == 0
    assert stats["shared_rebuilt"] > 0
    assert backend.delta_hits == 0 and backend.delta_misses == 0


def test_verify_mode_shadows_carried_shared_nodes(monkeypatch):
    db = next(loop_free_stream(0))
    warm = CompiledBackend(delta="verify", optimizer="on")
    warm.evaluate(precondition(insert(100, 200)), db)
    warm.evaluate(precondition(insert(101, 201)), db)
    # break the scan rule: inserted rows never reach a remembered scan
    monkeypatch.setattr(
        _IncrementalRun, "_scan", lambda self, node, old_rows: self._unchanged(old_rows)
    )
    successor = db.insert("E", (5, 5))
    fresh = precondition(insert(102, 202))  # no whole-formula state exists for it
    with pytest.raises(AssertionError, match="incremental evaluation diverged"):
        warm.evaluate(fresh, successor)


def test_explain_marks_nodes_seeded_from_carried_state():
    backend = CompiledBackend(delta="on", optimizer="on")
    states = list(loop_free_stream(2))
    backend.evaluate(precondition(insert(100, 200)), states[0])
    backend.evaluate(precondition(insert(101, 201)), states[1])
    report = backend.explain(precondition(insert(102, 202)), states[2])
    assert "[carried]" in report


# -- short-circuiting joins ---------------------------------------------------

LOOP_WITH_SUCCESSOR = parse("exists x . exists y . E(x, x) & E(x, y)")


def test_join_with_an_empty_side_never_runs_the_other():
    backend = CompiledBackend(delta="on")
    db = Database.graph([(0, 1), (1, 2)])
    plan = backend.plan_for(LOOP_WITH_SUCCESSOR, ())
    nodes, stack = set(), [plan]
    while stack:
        node = stack.pop()
        if node not in nodes:
            nodes.add(node)
            stack.extend(node.children())
    ctx = ExecutionContext(db)
    assert plan.rows(ctx) == frozenset()
    assert set(ctx.cache) < nodes  # E(x, y) was never scanned: no loop to extend


def test_short_circuited_plan_answers_the_next_step_incrementally():
    backend = CompiledBackend(delta="verify")
    db = Database.graph([(0, 1), (1, 2)])
    assert not backend.evaluate(LOOP_WITH_SUCCESSOR, db)
    assert (backend.delta_hits, backend.delta_misses) == (0, 1)
    db = db.insert("E", (3, 4))  # still no loop: the join stays empty
    assert not backend.evaluate(LOOP_WITH_SUCCESSOR, db)
    db = db.insert("E", (1, 1))  # the skipped side is needed now
    assert backend.evaluate(LOOP_WITH_SUCCESSOR, db)
    db = db.delete("E", (1, 2)).delete("E", (1, 1)).insert("E", (1, 0))
    assert not backend.evaluate(LOOP_WITH_SUCCESSOR, db)
    assert (backend.delta_hits, backend.delta_misses) == (3, 1)
