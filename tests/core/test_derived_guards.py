"""Pre-state guards derived once per program shape (the closing remark, before the update).

``derived_guard`` pulls the instances of a denial constraint at the rows a
program inserts back through the program, over slots for its constants.
These tests hold the bound guard to the constraint on the post-state
(drawn constraints, drawn programs, drawn pre-states of 64 rows and more),
to the mechanical ``wpc`` on every <= 3-node graph, check that pairs
outside the fragment take the old paths, and count the work registration
and a warm static commit do.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    Constraint,
    IntegrityMaintainer,
    StaticPreconditionPolicy,
    check_wpc,
    weakest_precondition,
)
from repro.core import simplification
from repro.core.simplification import (
    bind_slots,
    derived_guard,
    equivalent_under,
    holds_after_update,
    program_shape,
)
from repro.db import Database, Delta, GRAPH_SCHEMA, MemoryEngine, Store
from repro.db.delta import BucketMap
from repro.db.graph import all_graphs
from repro.engine import CompiledBackend, ExecutionContext, NaiveBackend, using_backend
from repro.logic import evaluate, parse
from repro.logic.syntax import BOTTOM, TOP, Eq, make_and
from repro.logic.terms import Const
from repro.service import AdmissionController
from repro.service.workloads import (
    NO_LOOPS,
    NO_TRIANGLES,
    forward_graph,
    standard_constraints,
    standard_templates,
)
from repro.transactions import DeleteWhere, FOProgram, InsertTuple, InsertWhere

from strategies import maybe_seed
from test_touched_tuple_checks import SCHEMA, VARIABLES, denial_constraints

NAIVE = NaiveBackend()

#: 0..2 are the drawn constraints' constants; 5 is never one
_VALUES = st.sampled_from((0, 1, 2, 3, 5))
_ROWS = {
    "E": st.tuples(_VALUES, _VALUES),
    "T": st.tuples(_VALUES, _VALUES, _VALUES),
}


def _point(row):
    return make_and(*(Eq(name, Const(value)) for name, value in zip(VARIABLES, row)))


@st.composite
def fragment_programs(draw, most=4):
    """One to ``most`` steps: inserts, point deletes, a bulk delete, and a
    row inserted and deleted again; constants repeat and may coincide with
    the constraint's."""
    statements = []
    for _ in range(draw(st.integers(1, most))):
        kind = draw(st.sampled_from(("insert", "insert", "delete", "prune", "churn")))
        relation = draw(st.sampled_from(("E", "T")))
        row = draw(_ROWS[relation])
        variables = VARIABLES[: len(row)]
        if kind in ("insert", "churn"):
            statements.append(InsertTuple(relation, *row))
        if kind in ("delete", "churn"):
            statements.append(DeleteWhere(relation, variables, _point(row)))
        if kind == "prune":
            statements.append(DeleteWhere("E", ("x", "y"), parse("x = y | E(y, x)")))
    return FOProgram(statements, schema=SCHEMA)


def _satisfying_state(constraint, rng, rows=64):
    """A pre-state of at least ``rows`` rows satisfying ``constraint``:
    random rows over 0..7, each kept when the constraint still holds."""
    candidates = [("E", (a, b)) for a in range(8) for b in range(8)]
    candidates += [("T", (a, b, c)) for a in range(8) for b in range(8) for c in range(8)]
    rng.shuffle(candidates)
    named = Constraint("c", constraint)
    db = Database(SCHEMA, {"E": (), "T": ()})
    for relation, row in candidates:
        delta = Delta.insertion(relation, row)
        post = db.apply_delta(delta)
        if holds_after_update(named, post, delta)[0]:
            db = post
            if sum(len(db.relation(name)) for name in ("E", "T")) >= rows:
                break
    assert NAIVE.evaluate(constraint, db)
    return db


def _bound(program, constraint):
    guard, values = derived_guard(program, constraint)
    return bind_slots(guard, values)


class TestDifferential:
    @maybe_seed
    @given(denial_constraints(), fragment_programs(), st.randoms(use_true_random=False))
    def test_the_guard_is_the_constraint_after_the_program(self, constraint, program, rng):
        pre = _satisfying_state(constraint, rng)
        assert sum(len(pre.relation(name)) for name in ("E", "T")) >= 64
        guard = _bound(program, constraint)
        expected = NAIVE.evaluate(constraint, program.apply(pre))
        assert evaluate(guard, pre) == expected
        assert NAIVE.evaluate(guard, pre) == expected

    @maybe_seed
    @settings(max_examples=12)
    @given(denial_constraints(), fragment_programs(most=2))
    def test_the_guard_is_wpc_under_the_constraint(self, constraint, program):
        # two steps at most: the mechanical wpc of four runs to thousands of nodes
        family = [
            Database(SCHEMA, {"E": graph.relation("E"), "T": ()}) for graph in all_graphs(3)
        ]
        guard = _bound(program, constraint)
        precondition = weakest_precondition(program, constraint)
        assert equivalent_under(constraint, guard, precondition, family)
        consistent = [db for db in family if evaluate(constraint, db)]
        assert check_wpc(program, constraint, guard, consistent)

    def test_equal_shapes_share_one_guard(self):
        first, values = derived_guard(FOProgram([InsertTuple("E", 3, 4)]), NO_TRIANGLES)
        second, other = derived_guard(FOProgram([InsertTuple("E", 9, 1)]), NO_TRIANGLES)
        assert first is second and (values, other) == ((3, 4), (9, 1))
        loop, _ = derived_guard(FOProgram([InsertTuple("E", 3, 3)]), NO_TRIANGLES)
        assert loop == BOTTOM

    def test_a_row_deleted_again_needs_no_guard(self):
        program = FOProgram(
            [InsertTuple("E", 1, 1), DeleteWhere("E", ("x", "y"), parse("x = 1 & y = 1"))]
        )
        assert derived_guard(program, NO_LOOPS)[0] == TOP

    def test_a_program_that_only_deletes_is_true(self):
        program = FOProgram([DeleteWhere("E", ("x", "y"), parse("x = y"))])
        assert derived_guard(program, NO_TRIANGLES) == (TOP, ())

    def test_a_slot_may_equal_a_constant_of_the_constraint(self):
        constraint = parse("forall x . ~E(x, 0)")
        guard, values = derived_guard(FOProgram([InsertTuple("E", 4, 5)]), constraint)
        assert guard not in (TOP, BOTTOM)
        empty = Database.graph([])
        assert evaluate(bind_slots(guard, values), empty)
        assert not evaluate(bind_slots(guard, (4, 0)), empty)


class TestOutsideTheFragment:
    @pytest.mark.parametrize(
        "program",
        [
            FOProgram([InsertWhere("E", ("x", "y"), parse("E(y, x)"))]),
            FOProgram([InsertTuple("E", 1, 2), InsertWhere("E", ("x", "y"), parse("x = y"))]),
        ],
    )
    def test_programs(self, program):
        assert program_shape(program) is None
        assert derived_guard(program, NO_LOOPS) is None

    @pytest.mark.parametrize(
        "constraint",
        [
            parse("forall x . exists y . E(x, y) | E(y, x)"),
            parse("forall x . ~(exists>=2 y . E(x, y))"),
        ],
    )
    def test_constraints(self, constraint):
        assert derived_guard(FOProgram([InsertTuple("E", 1, 2)]), constraint) is None

    def test_the_static_policy_uses_the_registered_precondition(self):
        program = FOProgram([InsertWhere("E", ("x", "y"), parse("E(y, x)"))], name="symmetrise")
        constraint = Constraint("no-loops", NO_LOOPS, {"symmetrise": parse("false")})
        store = Store(GRAPH_SCHEMA, Database.graph([(0, 1)]), engine=MemoryEngine())
        maintainer = IntegrityMaintainer(store, [constraint], StaticPreconditionPolicy())
        assert maintainer.invariant_holds()
        report = maintainer.run([program])
        # the registered precondition decides, however wrong it is here
        assert report.rejected_statically == 1 and report.precondition_evaluations == 1

    def test_admission_classifies_by_wpc(self):
        no_isolated = Constraint("no-isolated", parse("forall x . exists y . E(x, y) | E(y, x)"))
        controller = AdmissionController([no_isolated])
        controller.guard_for(standard_templates()[2].build(0, 1))
        assert [row["source"] for row in controller.stats()["guards"]] == ["wpc"]


class TestStaticPolicy:
    def test_a_verified_state_is_guarded_by_the_derived_guard(self):
        constraints = [Constraint("no-loops", NO_LOOPS), Constraint("no-triangles", NO_TRIANGLES)]
        store = Store(GRAPH_SCHEMA, forward_graph(12, 2), engine=MemoryEngine())
        maintainer = IntegrityMaintainer(store, constraints, StaticPreconditionPolicy())
        assert maintainer.invariant_holds()
        edges = [(0, 11), (3, 3), (11, 0), (2, 10)]
        report = maintainer.run([FOProgram([InsertTuple("E", a, b)]) for a, b in edges])
        # (3, 3) is refused by its shape; each other edge costs one evaluation
        # (no-triangles) and no-loops none
        assert report.rejected_statically >= 1 and report.rolled_back == 0
        assert report.precondition_evaluations == 3
        assert maintainer.invariant_holds()

    def test_an_unverified_state_falls_back_to_the_runtime_check(self):
        store = Store(GRAPH_SCHEMA, Database.graph([(5, 5)]), engine=MemoryEngine())
        maintainer = IntegrityMaintainer(
            store, [Constraint("no-loops", NO_LOOPS)], StaticPreconditionPolicy()
        )
        report = maintainer.run([FOProgram([InsertTuple("E", 0, 1)])])
        # no registered precondition and no verified state: a full check,
        # which sees the loop committed before
        assert report.rolled_back == 1 and report.full_checks == 1


# ---------------------------------------------------------------------------
# work, not time
# ---------------------------------------------------------------------------

def test_classifying_the_standard_shapes_evaluates_no_family(monkeypatch):
    calls = []
    original = simplification.equivalent_under

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(simplification, "equivalent_under", counting)
    controller = AdmissionController(standard_constraints())
    for template in standard_templates():
        for params in ((0, 1), (2, 2)):
            verdicts = controller.guard_for(template.build(*params))
            assert {v.mode for v in verdicts.values()} <= {"static", "guarded"}
    assert calls == []


def _rows_touched_by_one_static_insert(accounts, monkeypatch):
    """Rows the engine's operators produce, and ``BucketMap.build`` groups,
    during one static-policy insert under ``no-loops`` and ``no-triangles``
    after a warm start.  The edge joins two accounts outside the forward
    graph whose neighbourhoods are the same at every size; each constraint
    also carries the insert's mechanical ``wpc``, the precondition the
    policy takes from a state it does not know to be consistent."""
    u, v = accounts, accounts + 1
    edges = set(forward_graph(accounts, 8).relation("E")) | {(v, u + 2), (u + 3, u)}
    program = FOProgram([InsertTuple("E", u, v)], name="join-two")
    constraints = [
        Constraint(name, formula, {program.name: weakest_precondition(program, formula)})
        for name, formula in (("no-loops", NO_LOOPS), ("no-triangles", NO_TRIANGLES))
    ]
    store = Store(GRAPH_SCHEMA, Database.graph(edges), engine=MemoryEngine())
    maintainer = IntegrityMaintainer(store, constraints, StaticPreconditionPolicy())
    # the warm start: the invariant checked once, and the relation's column
    # indexes, which a long-lived store has (the first probe builds them)
    assert maintainer.invariant_holds()
    state = store.snapshot()
    state.successors(0), state.predecessors(0)
    touched = []
    build, count = BucketMap.build.__func__, ExecutionContext.count

    def counting_build(cls, rows, key_of):
        rows = list(rows)
        touched.append(len(rows))
        return build(cls, rows, key_of)

    def counting(ctx, operator, rows):
        touched.append(rows)
        count(ctx, operator, rows)

    with monkeypatch.context() as patch:
        patch.setattr(BucketMap, "build", classmethod(counting_build))
        patch.setattr(ExecutionContext, "count", counting)
        report = maintainer.run([program])
    assert report.committed == 1
    return sum(touched)


def test_a_warm_static_insert_touches_rows_independent_of_size(monkeypatch):
    with using_backend(CompiledBackend()):
        small = _rows_touched_by_one_static_insert(300, monkeypatch)  # 2.4k rows
        large = _rows_touched_by_one_static_insert(2400, monkeypatch)  # 19.2k rows
    assert small == large, (small, large)
