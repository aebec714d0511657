"""Closed sentences are streamed: a verdict stops at its first witness.

* differential — a streamed verdict equals the materialised execution of
  the same plan and the interpreter's, on random sentences (nested
  quantifiers, counting, disjunction, negation, ``=``/``≠``, constants, so
  parameter slots) over tiny graphs and over partitioned ones;
* update streams — along streams with branches and roll-backs, the
  streaming backend answers exactly like a backend that materialises every
  verdict;
* work — a cold existential over a 2-path reads O(1) stored rows and a cold
  ``no-triangles`` materialises no node result larger than ``E``; both
  bounds fail with the materialising path put back;
* the join tie, counters and ``explain``.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.engine import CompiledBackend, NaiveBackend
from repro.engine import plan as plan_module
from repro.engine.compile import CompileError
from repro.engine.plan import ExecutionContext, HashJoin, Plan, Scan, join_rows
from repro.logic import parse
from repro.obs import metrics
from repro.service.workloads import forward_graph

from strategies import graph_deltas, graphs, maybe_seed, sentences

NAIVE = NaiveBackend()
NO_TRIANGLES = parse("forall x . forall y . forall z . (E(x, y) & E(y, z)) -> ~E(z, x)")
TWO_PATH = parse("exists x . exists y . exists z . E(x, y) & E(y, z)")


class Materialising(CompiledBackend):
    """The backend with the materialising path put back: every verdict a
    full execution."""

    def _execute_plan(self, plan, ctx, lazy=False):
        return plan.rows(ctx)


def streamed(plan: Plan, db: Database, params) -> bool:
    ctx = ExecutionContext(db, params=params)
    ctx.lazy = True
    return plan.nonempty(ctx)


def partitioned_graphs():
    """Graphs of 64 rows or more, updated once so their relation is a
    partitioned row set."""
    edges = st.frozensets(
        st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=64, max_size=81
    )
    return st.tuples(edges, graph_deltas(max_value=8)).map(
        lambda pair: Database.graph(pair[0]).apply_delta(pair[1])
    )


# -- differential ---------------------------------------------------------------


@maybe_seed
@settings(max_examples=150, deadline=None)
@given(
    sentence=sentences(max_leaves=6),
    db=st.one_of(graphs(max_value=3), partitioned_graphs()),
)
def test_streamed_verdict_is_the_materialised_and_the_interpreted_one(sentence, db):
    expected = NAIVE.evaluate(sentence, db)
    backend = CompiledBackend()
    assert backend.evaluate(sentence, db) == expected
    params = sentence.shape()[1]
    try:
        plans = {backend.plan_for(sentence, ())}
    except CompileError:  # the interpreter answered
        assert backend.cache_stats()["streamed"] == 0
        return
    chosen = backend._plan_for_execution(sentence, (), db, None)
    if chosen is not None:
        plans.add(chosen)
    for plan in plans:
        assert bool(plan.rows(ExecutionContext(db, params=params))) == expected
        assert streamed(plan, db, params) == expected


# -- update streams ------------------------------------------------------------------

STANDING = [
    NO_TRIANGLES,
    parse("forall x . ~E(x, x)"),
    parse("forall x . forall y . E(x, y) -> ~E(y, x)"),
    parse("exists x . E(x, 0) | E(0, x)"),
    parse("exists>=2 x . exists y . E(x, y)"),
    parse("forall x . (exists y . E(x, y)) -> exists z . E(z, x) | x = 1"),
]


@maybe_seed
@settings(max_examples=60, deadline=None)
@given(
    base=graphs(max_value=5, max_edges=14),
    steps=st.lists(
        st.tuples(st.booleans(), graph_deltas(max_value=5)), min_size=1, max_size=6
    ),
)
def test_streamed_verdicts_along_a_branching_stream_are_the_eager_ones(base, steps):
    streaming = CompiledBackend()
    eager = Materialising()
    history = [base]
    for rollback, delta in steps:
        # a rolled-back step resumes the stream from the parent state
        origin = history[-2] if rollback and len(history) > 1 else history[-1]
        current = origin.apply_delta(delta)
        history.append(current)
        for sentence in STANDING:
            expected = NAIVE.evaluate(sentence, current)
            assert streaming.evaluate(sentence, current) == expected
            assert eager.evaluate(sentence, current) == expected
    assert eager.streamed == 0


# -- work ----------------------------------------------------------------------------


class CountingRows(AbstractSet):
    """A stored relation that counts the rows read out of it."""

    def __init__(self, rows, counter):
        self._rows, self._counter = rows, counter

    def __contains__(self, row):
        return row in self._rows

    def __len__(self):
        return len(self._rows)

    def __iter__(self):
        for row in self._rows:
            self._counter[0] += 1
            yield row


@pytest.fixture(scope="module")
def large_graph():
    db = forward_graph(1300, 8, seed=1)
    assert db.cardinality("E") >= 10_000
    return db


@pytest.mark.parametrize("backend_class", [CompiledBackend, Materialising])
def test_a_cold_two_path_witness_reads_a_handful_of_rows(
    backend_class, large_graph, monkeypatch
):
    db = Database.graph(large_graph.relation("E"))
    # what the database keeps for every check and apply_delta carries from
    # state to state, as any earlier check leaves it: the optimizer's
    # statistics and the index on the join column
    db.stats()
    db.index("E", (0,))
    read = [0]
    relation = Database.relation
    monkeypatch.setattr(
        Database, "relation", lambda self, name: CountingRows(relation(self, name), read)
    )
    assert backend_class().evaluate(TWO_PATH, db)
    if backend_class is CompiledBackend:
        assert read[0] <= 16
    else:  # the materialising path walks the relation
        assert read[0] >= db.cardinality("E")


@pytest.mark.parametrize("backend_class", [CompiledBackend, Materialising])
def test_a_cold_no_triangles_check_materialises_nothing_larger_than_e(
    backend_class, large_graph, monkeypatch
):
    db = Database.graph(large_graph.relation("E"))
    largest = [0]
    rows = Plan.rows

    def measured(self, ctx):
        result = rows(self, ctx)
        largest[0] = max(largest[0], len(result))
        return result

    monkeypatch.setattr(Plan, "rows", measured)
    assert backend_class().evaluate(NO_TRIANGLES, db)
    if backend_class is CompiledBackend:
        assert largest[0] <= db.cardinality("E")
    else:  # the 2-path join
        assert largest[0] > 4 * db.cardinality("E")


# -- the join tie ----------------------------------------------------------------------


def self_join():
    return HashJoin(
        Scan("E", [("var", "x"), ("var", "y")]), Scan("E", [("var", "y"), ("var", "z")])
    )


@pytest.mark.parametrize("where", ["update stream", "index built"])
def test_a_tie_with_a_stored_relation_probes_its_index(where, monkeypatch):
    db = base = forward_graph(200, 4, seed=5)
    if where == "update stream":
        db = base.insert("E", (0, 500))  # the parent is held: provenance lives
        assert db.provenance_step() is not None
    else:
        db.index("E", (0,))
    join = self_join()
    expected = join_rows(
        join, join.left.rows(ExecutionContext(db)), join.right.rows(ExecutionContext(db))
    )
    builds = [0]
    build = plan_module.build_right_table

    def counting(node, rows):
        builds[0] += 1
        return build(node, rows)

    monkeypatch.setattr(plan_module, "build_right_table", counting)
    assert join.rows(ExecutionContext(db)) == expected
    lazy = ExecutionContext(db)
    lazy.lazy = True
    assert frozenset(join.stream(lazy)) == expected
    assert builds[0] == 0


def test_a_tie_on_a_fresh_database_builds_no_index():
    # a one-off join on a database nothing else will probe: a throwaway
    # table costs what the index would, and leaves nothing behind
    db = forward_graph(200, 4, seed=5)
    assert self_join().rows(ExecutionContext(db))
    assert not db.has_index("E", (0,)) and not db.has_index("E", (1,))


# -- shared and fanned-in sub-plans ----------------------------------------------------


def test_a_sub_plan_read_twice_is_materialised_once(monkeypatch):
    backend = CompiledBackend(optimizer="off")
    twice = parse("exists x . (exists y . E(x, y) & E(y, 3)) & ~(exists y . E(x, y) & E(y, 3))")
    plan = backend.plan_for(twice, ())
    fanned = backend._fan_in(plan)
    assert fanned, plan.explain()
    runs = {}
    rows = Plan.rows

    def counted(self, ctx):
        if self not in ctx.cache:
            runs[self] = runs.get(self, 0) + 1
        return rows(self, ctx)

    monkeypatch.setattr(Plan, "rows", counted)
    db = forward_graph(30, 3, seed=6)
    assert backend.evaluate(twice, db) is False
    assert all(runs.get(node, 0) <= 1 for node in fanned)


def test_each_binding_along_a_stream_is_streamed_by_its_own_plan_run():
    # a fresh binding of one shape per state: one plan, and each binding
    # streamed once
    from repro.core import PrerelationSpec, WpcCalculator
    from repro.transactions import FOProgram, InsertTuple

    no_loops = parse("forall x . ~E(x, x)")
    backend = CompiledBackend(optimizer="on")
    db = forward_graph(60, 4, seed=7)
    for step in range(6):
        program = FOProgram([InsertTuple("E", 100 + step, 200 + step)])
        wpc = WpcCalculator(PrerelationSpec.from_fo_program(program)).wpc(no_loops)
        assert backend.evaluate(wpc, db) == NAIVE.evaluate(wpc, db)
        db = db.insert("E", (step, 59 - step))
    stats = backend.cache_stats()
    assert stats["streamed"] == 6 and stats["plans"] == 1


# -- observability -----------------------------------------------------------------------


def test_counters_reach_cache_stats_and_the_registry():
    registry = metrics.get_registry()
    before = registry.counter("engine.backend.streamed").value
    backend = CompiledBackend()
    db = forward_graph(30, 3, seed=8)
    backend.evaluate(NO_TRIANGLES, db)
    backend.evaluate(NO_TRIANGLES, db)  # the memo answers
    backend.evaluate(NO_TRIANGLES, db.insert("E", (0, 29)))  # a miss runs the plan
    assert backend.cache_stats()["streamed"] == 2
    if metrics.metrics_enabled():
        assert registry.counter("engine.backend.streamed").value - before == 2


def test_explain_names_the_path_evaluate_takes():
    backend = CompiledBackend()
    db = forward_graph(30, 3, seed=9)
    assert "path: streamed" in backend.explain(NO_TRIANGLES, db)
    backend.evaluate(NO_TRIANGLES, db)
    assert "path: memo" in backend.explain(NO_TRIANGLES, db)
    successor = db.insert("E", (0, 29))
    assert "path: streamed" in backend.explain(NO_TRIANGLES, successor)
    assert "path: full execution" in backend.explain(parse("E(x, y)"), db, ("x", "y"))
