"""Run-time checks at the touched tuples (the closing remark, after the update).

``holds_after_update`` checks a denial constraint only at the rows an update
inserted when the pre-state is known to satisfy it, and evaluates the whole
constraint otherwise.  These tests hold it to the full check: the derivation
(``denial_form``), decisions and states along drawn update streams against
the interpreter, each fallback at both run-time check sites, the
hand-written guards it generalises, and the work one insert does at two
database sizes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core import Constraint, IntegrityMaintainer, RuntimeCheckPolicy
from repro.core.simplification import bind_slots, denial_form, derived_guard, holds_after_update
from repro.db import Database, Delta, GRAPH_SCHEMA, MemoryEngine, Schema, Store
from repro.db.delta import BucketMap
from repro.engine import CompiledBackend, NaiveBackend, using_backend
from repro.logic import evaluate, parse
from repro.logic.syntax import And, Atom, Eq, Forall, Implies, Not, Or, make_and, make_or
from repro.logic.terms import Const
from repro.service import TransactionService
from repro.service.workloads import NO_LOOPS, NO_TRIANGLES, _insert_edge_program, forward_graph
from repro.transactions import DeleteWhere, FOProgram, InsertTuple, InsertWhere

from strategies import maybe_seed

ANTISYMMETRY = parse("forall x . forall y . E(x, y) -> ~E(y, x)")
LOOSE_ANTISYMMETRY = parse("forall x . forall y . (E(x, y) & E(y, x)) -> x = y")
#: every node has an edge: a forall-exists constraint, outside the fragment
NO_ISOLATED = parse("forall x . exists y . E(x, y) | E(y, x)")

#: a binary and a ternary relation, for the drawn constraints
SCHEMA = Schema.of(E=2, T=3)
VALUES = (0, 1, 2, 3)
VARIABLES = ("x", "y", "z")


def _violation(form, delta):
    """The derived post-state query: the disjunction of the instances."""
    return make_or(*form.instances(delta))


class TestDenialForm:
    @pytest.mark.parametrize(
        "constraint, atoms, conditions",
        [
            (NO_LOOPS, 1, 0),
            (NO_TRIANGLES, 3, 0),
            (ANTISYMMETRY, 2, 0),
            (LOOSE_ANTISYMMETRY, 2, 1),
            (parse("forall x . forall y . ~(E(x, 0) & T(y, y, 1) & ~(x = y))"), 2, 1),
            (parse("~E(0, 1)"), 1, 0),
        ],
    )
    def test_fragment(self, constraint, atoms, conditions):
        form = denial_form(constraint)
        assert form is not None
        assert (len(form.atoms), len(form.conditions)) == (atoms, conditions)

    @pytest.mark.parametrize(
        "constraint",
        [
            NO_ISOLATED,
            parse("exists x . E(x, x)"),
            # a relation atom the violation needs absent: a deletion completes it
            parse("forall x . forall y . E(x, y) -> E(y, x)"),
            # a variable in no relation atom ranges over the whole domain
            parse("forall x . forall y . ~(E(x, x) & ~(x = y))"),
            parse("forall x . forall y . ~E(x, x)"),
            parse("forall x . ~(exists>=2 y . E(x, y))"),
            parse("forall x . ~P(x)", predicates={"P"}),
            Not(Atom("E", "x", "x")),  # not a sentence
        ],
    )
    def test_outside_the_fragment(self, constraint):
        assert denial_form(constraint) is None

    def test_an_object_that_is_not_a_formula_has_none(self):
        assert denial_form(object()) is None

    def test_instances_only_at_unifying_inserted_rows(self):
        form = denial_form(NO_LOOPS)
        assert _violation(form, Delta.insertion("E", (1, 2))) == parse("false")
        assert _violation(form, Delta.deletion("E", (1, 1))) == parse("false")
        # a loop completes a violation by itself
        assert _violation(form, Delta.insertion("E", (3, 3))) == parse("true")

    def test_constants_and_repeated_variables_unify(self):
        form = denial_form(parse("forall x . ~(T(x, x, 0) & E(x, 1))"))
        delta = Delta(inserted={"T": [(2, 2, 0), (2, 3, 0), (2, 2, 1)]})
        assert list(form.instances(delta)) == [Atom("E", Const(2), Const(1))]

    def test_ground_conditions_fold(self):
        form = denial_form(LOOSE_ANTISYMMETRY)
        assert _violation(form, Delta.insertion("E", (4, 4))) == parse("false")
        # both atoms give this instance; it is evaluated once
        assert _violation(form, Delta.insertion("E", (4, 5))) == Atom("E", Const(5), Const(4))

    def test_instances_equal_up_to_names_are_one(self):
        instances = list(denial_form(NO_TRIANGLES).instances(Delta.insertion("E", (1, 2))))
        assert len(instances) == 1


# ---------------------------------------------------------------------------
# the reference: the whole constraint, by the interpreter
# ---------------------------------------------------------------------------

class _Reference:
    """Keep a program's post-state iff the interpreter finds every constraint
    true on it: the decisions run-time monitoring must make."""

    def __init__(self, db, constraints):
        self.db, self.constraints, self.oracle = db, constraints, NaiveBackend()

    def run(self, program) -> bool:
        post = program.apply(self.db)
        if all(self.oracle.evaluate(c, post) for c in self.constraints):
            self.db = post
            return True
        return False


def _drive(initial, constraints, programs, warm=True):
    """The run-time policy and the reference side by side, step by step;
    returns the commits and the full checks over the stream."""
    store = Store(initial.schema, initial, engine=MemoryEngine())
    named = [Constraint(f"c{i}", c) for i, c in enumerate(constraints)]
    maintainer = IntegrityMaintainer(store, named, RuntimeCheckPolicy())
    reference = _Reference(initial, constraints)
    if warm:
        assert maintainer.invariant_holds()
    committed = full = 0
    for step, program in enumerate(programs):
        report = maintainer.run([program])
        assert (report.committed == 1) == reference.run(program), (step, program.name)
        assert store.snapshot() == reference.db, (step, program.name)
        committed += report.committed
        full += report.full_checks
    return committed, full


_terms = st.one_of(st.sampled_from(VARIABLES), st.sampled_from((0, 1, 2)).map(Const))


@st.composite
def denial_constraints(draw):
    """A denial constraint over E/2 and T/3 — constants, repeated variables,
    (in)equalities, atoms that may share no variable — in three spellings."""
    atoms = []
    for _ in range(draw(st.integers(1, 3))):
        relation = draw(st.sampled_from(("E", "T")))
        arity = 2 if relation == "E" else 3
        atoms.append(Atom(relation, *(draw(_terms) for _ in range(arity))))
    variables = sorted(set().union(*(atom.free_variables() for atom in atoms)))
    conditions = []
    if variables:
        side = st.one_of(st.sampled_from(variables), st.sampled_from((0, 1)).map(Const))
        for _ in range(draw(st.integers(0, 2))):
            equality = Eq(draw(side), draw(side))
            conditions.append(equality if draw(st.booleans()) else Not(equality))
    violation = atoms + conditions
    spelling = draw(st.sampled_from(("denial", "implication", "disjunction")))
    if spelling == "denial" or len(violation) == 1:
        body = Not(And(*violation))
    elif spelling == "implication":
        body = Implies(And(*violation[:-1]), Not(violation[-1]))
    else:
        body = Or(*(Not(literal) for literal in violation))
    for variable in reversed(variables):
        body = Forall(variable, body)
    return body


_rows = {
    "E": st.tuples(st.sampled_from(VALUES), st.sampled_from(VALUES)),
    "T": st.tuples(*(st.sampled_from(VALUES) for _ in range(3))),
}

_BULK = (
    InsertWhere("E", ("x", "y"), parse("E(y, x)")),
    InsertWhere("E", ("x", "y"), parse("exists z . T(x, y, z)")),
    InsertWhere("T", ("x", "y", "z"), parse("E(x, y) & E(y, z)")),
    InsertWhere("E", ("x", "y"), parse("x = y & exists z . E(x, z)")),
)


def _point(row):
    return make_and(*(Eq(name, Const(value)) for name, value in zip(VARIABLES, row)))


@st.composite
def programs(draw):
    """Single inserts, bulk inserts, point deletes, a bulk delete, and
    programs inserting and deleting the same row."""
    kind = draw(st.sampled_from(("insert", "insert", "bulk", "delete", "churn", "prune")))
    relation = draw(st.sampled_from(("E", "T")))
    row = draw(_rows[relation])
    variables = VARIABLES[: len(row)]
    if kind == "insert":
        statements = [InsertTuple(relation, *row)]
    elif kind == "bulk":
        statements = [draw(st.sampled_from(_BULK))]
    elif kind == "delete":
        statements = [DeleteWhere(relation, variables, _point(row))]
    elif kind == "churn":
        statements = [
            InsertTuple(relation, *row),
            DeleteWhere(relation, variables, _point(row)),
        ]
    else:
        statements = [DeleteWhere("E", ("x", "y"), parse("x = y | E(y, x)"))]
    return FOProgram(statements, schema=SCHEMA, name=f"{kind}-{relation}{row}")


@st.composite
def databases(draw):
    return Database(
        SCHEMA,
        {
            "E": draw(st.frozensets(_rows["E"], max_size=6)),
            "T": draw(st.frozensets(_rows["T"], max_size=4)),
        },
    )


class TestDifferential:
    @maybe_seed
    @given(
        st.lists(denial_constraints(), min_size=1, max_size=2),
        databases(),
        st.lists(programs(), min_size=1, max_size=8),
    )
    def test_decisions_and_states_equal_the_full_check(self, constraints, initial, stream):
        assert all(denial_form(c) is not None for c in constraints)
        oracle = NaiveBackend()
        holds = all(oracle.evaluate(c, initial) for c in constraints)
        # a start that violates the constraints is checked in full until a
        # commit re-establishes them: the same decisions either way
        _drive(initial, constraints, stream, warm=holds)

    @pytest.mark.parametrize(
        "constraint",
        [
            # atoms sharing no variable
            parse("forall x . forall y . forall z . ~(E(x, y) & T(z, z, 0))"),
            parse("forall x . forall y . ~(E(x, y) & T(1, 2, 3))"),
            NO_TRIANGLES,
            LOOSE_ANTISYMMETRY,
        ],
    )
    def test_named_constraints_on_a_fixed_stream(self, constraint):
        initial = Database(SCHEMA, {"E": [(0, 1), (1, 2)], "T": [(3, 3, 1)]})
        stream = [
            FOProgram(statements, schema=SCHEMA)
            for statements in (
                [InsertTuple("E", 2, 0)],
                [InsertTuple("T", 2, 2, 0)],
                [InsertTuple("T", 1, 2, 3)],
                [InsertWhere("E", ("x", "y"), parse("E(y, x)"))],
                [DeleteWhere("E", ("x", "y"), parse("x = 1"))],
                [InsertTuple("E", 2, 0)],
                [InsertTuple("E", 3, 3)],
            )
        ]
        committed, full = _drive(initial, [constraint], stream)
        assert committed > 0 and full == 0

    def test_a_violating_start_keeps_todays_decisions(self):
        initial = Database.graph([(0, 1), (1, 2), (2, 0)])  # a triangle
        stream = [FOProgram([InsertTuple("E", a, b)]) for a, b in [(3, 4), (4, 5), (5, 3), (6, 6)]]
        store = Store(GRAPH_SCHEMA, initial, engine=MemoryEngine())
        maintainer = IntegrityMaintainer(
            store, [Constraint("no-triangles", NO_TRIANGLES)], RuntimeCheckPolicy()
        )
        assert not maintainer.invariant_holds()
        report = maintainer.run(stream)
        assert report.committed == 0 and report.rolled_back == len(stream)
        assert report.full_checks == len(stream)
        assert store.snapshot() == initial


# ---------------------------------------------------------------------------
# the fallbacks
# ---------------------------------------------------------------------------

def _inserts(*edges):
    return [FOProgram([InsertTuple("E", a, b)]) for a, b in edges]


class TestPolicyFallbacks:
    def _maintainer(self, *constraints):
        store = Store(GRAPH_SCHEMA, forward_graph(12, 2), engine=MemoryEngine())
        return IntegrityMaintainer(store, list(constraints), RuntimeCheckPolicy())

    def test_an_unverified_pre_state_is_checked_in_full(self):
        maintainer = self._maintainer(Constraint("no-triangles", NO_TRIANGLES))
        # no invariant_holds(): the first check is full, and its commit
        # leaves a state known to satisfy the constraint
        report = maintainer.run(_inserts((0, 11)))
        assert report.committed == 1 and report.full_checks == 1
        report = maintainer.run(_inserts((1, 11), (11, 0)))
        assert report.constraint_evaluations == 2 and report.full_checks == 0

    def test_a_verified_pre_state_is_checked_at_the_inserted_rows(self):
        maintainer = self._maintainer(
            Constraint("no-loops", NO_LOOPS), Constraint("no-triangles", NO_TRIANGLES)
        )
        assert maintainer.invariant_holds()
        report = maintainer.run(_inserts((0, 11), (3, 3), (2, 10)))
        assert report.rolled_back == 1 and report.full_checks == 0

    def test_a_state_changed_behind_the_policy_is_unverified(self):
        maintainer = self._maintainer(Constraint("no-loops", NO_LOOPS))
        assert maintainer.invariant_holds()
        store = maintainer.store
        store.begin()
        store.insert("E", (5, 5))
        store.commit_unchecked()
        # the full check sees the loop committed behind the policy's back
        report = maintainer.run(_inserts((0, 11)))
        assert report.rolled_back == 1 and report.full_checks == 1

    def test_constraints_outside_the_fragment_are_checked_in_full(self):
        maintainer = self._maintainer(Constraint("no-isolated", NO_ISOLATED))
        maintainer.invariant_holds()
        report = maintainer.run(_inserts((0, 11), (1, 10)))
        assert report.full_checks == report.constraint_evaluations == 2

    def test_holds_after_update_takes_the_full_path_without_a_delta(self):
        constraint = Constraint("no-loops", NO_LOOPS)
        post = Database.graph([(1, 1)])
        assert holds_after_update(constraint, post, None) == (False, True)
        # with a delta, only what it inserted is looked at
        assert holds_after_update(constraint, post, Delta()) == (True, False)
        assert holds_after_update(
            constraint, post, Delta.insertion("E", (1, 1))
        ) == (False, False)

    def test_objects_with_holds_take_the_full_path(self):
        class Always:
            def holds(self, db):
                return True

        constraint = Constraint("opaque", Always())
        assert holds_after_update(constraint, Database.graph([]), Delta()) == (True, True)


class TestServiceFallbacks:
    def _run(self, initial, constraints, edges):
        service = TransactionService(
            initial, [Constraint(f"c{i}", c) for i, c in enumerate(constraints)]
        )
        reference = _Reference(service.snapshot(), constraints)
        try:
            for program in _inserts(*edges):
                # no template: every request is checked at run time
                assert service.execute(program).committed == reference.run(program)
            assert service.snapshot() == reference.db
            return service.observability()["service"]
        finally:
            service.close()

    def test_runtime_requests_are_checked_at_the_inserted_rows(self):
        stats = self._run(
            forward_graph(12, 2), [NO_LOOPS, NO_TRIANGLES],
            [(0, 11), (11, 0), (5, 5), (3, 9), (9, 3), (11, 3)],
        )
        assert stats["runtime_checks"] > 0 and stats["runtime_full_checks"] == 0

    def test_a_violating_store_is_checked_in_full(self):
        stats = self._run(
            Database.graph([(0, 1), (1, 2), (2, 0)]), [NO_TRIANGLES], [(5, 6), (6, 7)]
        )
        assert stats["aborted"] == 2
        assert stats["runtime_full_checks"] == stats["runtime_checks"] == 2

    def test_constraints_outside_the_fragment_are_checked_in_full(self):
        stats = self._run(
            Database.graph([(0, 1), (1, 2), (2, 3)]), [NO_ISOLATED], [(3, 0), (4, 4)]
        )
        assert stats["committed"] == 2
        assert stats["runtime_full_checks"] == stats["runtime_checks"] == 2


# ---------------------------------------------------------------------------
# the hand-written guards the templates once shipped are the derivation
# ---------------------------------------------------------------------------

#: inserting ``(a, b)``: the guards the standard templates once shipped by hand
_HAND_GUARDS = {
    "no-triangles": "~({a} = {b}) & ~(exists w . E({b}, w) & E(w, {a}))",
    "no-loops": "~({a} = {b})",
}


@pytest.mark.parametrize(
    "constraint, name", [(NO_TRIANGLES, "no-triangles"), (NO_LOOPS, "no-loops")]
)
def test_the_derived_query_is_the_hand_guard(constraint, name, graphs_3):
    """Inserting ``(a, b)`` into every <= 3-node graph: the derived instance
    query on the post-state holds exactly when the hand-written guard fails
    on a pre-state satisfying the constraint, and the derived pre-state
    guard is the hand-written one on every pre-state."""
    form = denial_form(constraint)
    checked = 0
    for a in range(3):
        for b in range(3):
            guard = parse(_HAND_GUARDS[name].format(a=a, b=b))
            derived = bind_slots(*derived_guard(_insert_edge_program(a, b), constraint))
            for pre in graphs_3:
                assert evaluate(derived, pre) == evaluate(guard, pre), (pre, a, b)
                if not evaluate(constraint, pre):
                    continue
                delta = Delta.insertion("E", (a, b)).normalized(pre)
                post = pre.apply_delta(delta)
                violated = evaluate(_violation(form, delta), post)
                assert violated == (not evaluate(guard, pre)), (pre, a, b)
                checked += 1
    assert checked >= 9 * 40


# ---------------------------------------------------------------------------
# work, not time
# ---------------------------------------------------------------------------

def _rows_built_by_one_insert(accounts, monkeypatch):
    """Rows ``BucketMap.build`` groups during one run-time insert of a back
    edge under ``no-triangles``, after a warm start."""
    store = Store(GRAPH_SCHEMA, forward_graph(accounts, 8), engine=MemoryEngine())
    maintainer = IntegrityMaintainer(
        store, [Constraint("no-triangles", NO_TRIANGLES)], RuntimeCheckPolicy()
    )
    # the warm start: the invariant checked once, and the relation's column
    # indexes, which a long-lived store has (the first probe builds them)
    assert maintainer.invariant_holds()
    state = store.snapshot()
    state.successors(0), state.predecessors(0)
    built = []
    build = BucketMap.build.__func__

    def counting(cls, rows, key_of):
        rows = list(rows)
        built.append(len(rows))
        return build(cls, rows, key_of)

    with monkeypatch.context() as patch:
        patch.setattr(BucketMap, "build", classmethod(counting))
        report = maintainer.run([FOProgram([InsertTuple("E", accounts - 1, 0)])])
    assert report.committed + report.rolled_back == 1
    return built


def test_a_warm_insert_builds_no_index_over_the_relation(monkeypatch):
    with using_backend(CompiledBackend()):
        small = _rows_built_by_one_insert(300, monkeypatch)  # 2.4k rows
        large = _rows_built_by_one_insert(2400, monkeypatch)  # 19.2k rows
    assert all(rows < 1000 for rows in small + large), (small, large)
    assert sum(small) == sum(large)
