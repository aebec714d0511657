"""Prepared plans: one plan per formula *shape*, constants bound at run time.

A formula's shape is the formula with its constants factored out (numbered
by first occurrence, equal values sharing a number).  The compiled backend
keys its plan caches on the shape and hands the constants to each execution
as parameters; the result memo stays per formula.
Everything here is checked against the naive interpreter, which knows
nothing of shapes.
"""

from __future__ import annotations

import re
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import PrerelationSpec, WpcCalculator
from repro.db import Database, Delta, random_graph
from repro.engine import CompiledBackend, ExecutionContext, NaiveBackend
from repro.engine import plan as plan_module
from repro.engine.plan import HashJoin, Plan, Scan, join_rows
from repro.logic import arithmetic_signature, parse
from repro.logic.syntax import And, Atom, Eq, Exists, Formula, InterpretedAtom, Not
from repro.logic.terms import Const, Func, Param, Var
from repro.core.simplification import bind_slots, derived_guard
from repro.db.graph import all_graphs
from repro.service.workloads import NO_LOOPS, NO_TRIANGLES, _insert_edge_program, forward_graph
from repro.transactions import DeleteWhere, FOProgram, InsertTuple, InsertWhere

from strategies import formulas, graph_deltas, graphs, maybe_seed

NAIVE = NaiveBackend()

#: 0..3 can be active in generated graphs, 7 / 99 / "ghost" never are; ``True``
#: and ``1.0`` equal ``1`` (one row value in a database, one slot in a shape)
VALUES = (0, 1, 2, 3, 7, 99, "ghost", True, 1.0, 2.0)


def rebind(formula: Formula, mapping) -> Formula:
    """``formula`` with every constant ``c`` replaced by ``mapping[c]``."""

    def swap(term):
        if isinstance(term, Const):
            return Const(mapping[term.value])
        if isinstance(term, Func):
            return Func(term.symbol, *map(swap, term.args))
        return term

    return formula.map_terms(swap)


@st.composite
def shapes_with_bindings(draw, source=formulas(max_leaves=6)):
    """A formula plus rebindings of its constants: three that keep them
    distinct (so the shape) and, with two or more constants, one that makes
    two of them equal (so a different shape)."""
    formula = draw(source)
    constants = formula.shape()[1]
    instances = [formula]
    for _ in range(3):
        values = draw(
            st.lists(
                st.sampled_from(VALUES),
                min_size=len(constants), max_size=len(constants), unique=True,
            )
        )
        instances.append(rebind(formula, dict(zip(constants, values))))
    if len(constants) >= 2:
        collapsed = dict(zip(constants, constants))
        collapsed[constants[1]] = constants[0]
        instances.append(rebind(formula, collapsed))
    return formula, instances


# -- shapes ---------------------------------------------------------------------------


def test_shape_numbers_constants_by_first_occurrence():
    key, constants = parse("E(5, x) & (E(x, 7) | x = 5)").shape()
    assert constants == (5, 7)
    other_key, other = parse("E(8, x) & (E(x, 2) | x = 8)").shape()
    assert (other_key, other) == (key, (8, 2))
    # which constants coincide is part of the shape
    assert parse("E(5, x) & (E(x, 5) | x = 5)").shape()[0] != key
    assert parse("E(5, x) & (E(x, 7) | x = 7)").shape()[0] != key


def test_shape_separates_variables_constants_and_structure():
    keys = {
        parse(source).shape()[0]
        for source in (
            "E(x, 1)", "E(1, x)", "E(x, y)", "E(x, x)", "x = 1", "~E(x, 1)",
            "exists y . E(y, 1)", "forall y . E(y, 1)", "exists>=2 y . E(y, 1)",
            "exists>=3 y . E(y, 1)", "E(x, 1) & E(x, 1)", "E(x, 1) | E(x, 1)",
            "E(x, 1) -> E(x, 1)", "E(x, 1) <-> E(x, 1)", "true", "false",
        )
    }
    assert len(keys) == 16
    assert Atom("E", Const("x"), Var("y")).shape() != Atom("E", Var("x"), Var("y")).shape()


def test_equal_values_share_a_slot():
    formula = And(Atom("E", Const(1), "x"), Atom("E", Const(True), "y"), Eq("x", Const(1.0)))
    key, constants = formula.shape()
    assert constants == (1,)
    assert key == parse("E(3, x) & E(3, y) & x = 3").shape()[0]


def test_parameterised_is_the_same_formula_for_every_instance_of_a_shape():
    first, second = parse("E(5, x) & x = 7"), parse("E(0, x) & x = 'a'")
    assert first.parameterised() == second.parameterised()
    assert first.parameterised() == And(Atom("E", Param(0), "x"), Eq("x", Param(1)))
    constant_free = parse("exists x . E(x, x)")
    assert constant_free.parameterised() is constant_free
    assert constant_free.shape()[1] == ()


def test_function_terms_and_interpreted_atoms_are_parameterised_inside():
    formula = And(
        InterpretedAtom("leq", Func("succ", Const(2)), Var("x")),
        Eq(Func("plus", Var("x"), Const(2)), Const(4)),
    )
    key, constants = formula.shape()
    assert constants == (2, 4)
    assert formula.parameterised() == And(
        InterpretedAtom("leq", Func("succ", Param(0)), Var("x")),
        Eq(Func("plus", Var("x"), Param(0)), Param(1)),
    )
    assert rebind(formula, {2: 9, 4: 0}).shape() == (key, (9, 0))


# -- against the oracle ---------------------------------------------------------------


@maybe_seed
@given(case=shapes_with_bindings(), db=graphs())
def test_every_binding_of_a_shape_agrees_with_the_interpreter(case, db):
    _formula, instances = case
    for backend in (CompiledBackend(), CompiledBackend(optimizer="off")):
        shapes = set()
        for instance in instances:
            variables = tuple(sorted(instance.free_variables()))
            expected = NAIVE.extension(instance, db, variables)
            assert backend.extension(instance, db, variables) == expected, instance
            shapes.add((instance.shape()[0], variables))
        # plans are counted in shapes, not in formulas
        assert backend.cache_stats()["plans"] == len(shapes)


@maybe_seed
@given(
    case=shapes_with_bindings(),
    db=graphs(),
    extra=st.frozensets(st.sampled_from([7, 10, 11]), max_size=2),
    shrink=st.booleans(),
)
def test_bindings_under_an_explicit_domain(case, db, extra, shrink):
    _formula, instances = case
    domain = db.active_domain | extra
    if shrink:
        domain = frozenset(v for v in domain if v != 1)
    backend = CompiledBackend()
    for instance in instances:
        variables = tuple(sorted(instance.free_variables()))
        assert backend.extension(instance, db, variables, domain=domain) == NAIVE.extension(
            instance, db, variables, domain=domain
        ), (instance, domain)


@maybe_seed
@given(
    db=graphs(),
    bindings=st.lists(
        st.tuples(st.sampled_from([0, 1, 2, 3, 7]), st.sampled_from([0, 1, 2, 3, 7])),
        min_size=3, max_size=5,
    ),
)
def test_constants_inside_function_terms_and_interpreted_atoms(db, bindings):
    signature = arithmetic_signature()
    backend = CompiledBackend()
    shapes = set()
    for a, b in bindings:
        formula = Exists(
            "y",
            And(
                Atom("E", Var("x"), Var("y")),
                InterpretedAtom("leq", Func("plus", Var("y"), Const(a)), Const(b)),
                Not(Eq(Var("x"), Func("succ", Const(a)))),
            ),
        )
        assert backend.extension(formula, db, ("x",), signature) == NAIVE.extension(
            formula, db, ("x",), signature
        ), formula
        shapes.add(formula.shape()[0])
    assert len(shapes) <= 2  # a == b is the other shape
    assert backend.cache_stats()["plans"] == len(shapes)


def test_one_true_and_one_point_zero_are_one_constant():
    db = Database.graph([(0, 1), (1, 2), (2, 1), (1, 1)])
    backend = CompiledBackend()
    for value in (1, True, 1.0):
        for source in (
            Exists("y", And(Atom("E", Const(value), "y"), Atom("E", "y", "x"))),
            And(Atom("E", "x", Const(value)), Not(Eq("x", Const(value)))),
            Eq("x", Const(value)),
        ):
            assert backend.extension(source, db, ("x",)) == NAIVE.extension(source, db, ("x",))
    assert backend.cache_stats()["plans"] == 3


@maybe_seed
@given(case=shapes_with_bindings(formulas(max_leaves=5)), base=graphs(),
       steps=st.lists(graph_deltas(), min_size=1, max_size=5))
def test_bindings_along_an_update_stream_agree_with_the_interpreter(case, base, steps):
    """Every binding runs the shared plan's parameterised scans at every
    state of the stream."""
    _formula, instances = case
    backend = CompiledBackend()
    db = base
    for delta in [None] + steps:
        if delta is not None:
            db = db.apply_delta(delta)
        for instance in instances:
            variables = tuple(sorted(instance.free_variables()))
            assert backend.extension(instance, db, variables) == NAIVE.extension(
                instance, db, variables
            ), instance


def test_alpha_variants_agree():
    """Bound-variable names are part of a shape (``_w3`` vs ``_w7`` may
    compile twice); only the results have to agree."""
    db = random_graph(8, 0.3, seed=5)
    backend = CompiledBackend()
    for a in range(8):
        first = parse(f"forall _w3 . E({a}, _w3) -> (exists _a4 . E(_w3, _a4))")
        second = parse(f"forall _w7 . E({a}, _w7) -> (exists _a9 . E(_w7, _a9))")
        expected = NAIVE.evaluate(first, db)
        assert backend.evaluate(first, db) == expected
        assert backend.evaluate(second, db) == expected
    assert backend.cache_stats()["plans"] <= 2


# -- what is cached on what -----------------------------------------------------------


ANTISYMMETRIC = parse("forall x . forall y . E(x, y) -> ~E(y, x)")


def precondition(program: FOProgram, constraint=NO_LOOPS):
    return WpcCalculator(PrerelationSpec.from_fo_program(program)).wpc(constraint)


def insert(a, b) -> FOProgram:
    return FOProgram([InsertTuple("E", a, b)], name=f"insert-{a}-{b}")


def test_a_maintenance_stream_of_fresh_preconditions_is_a_handful_of_plans():
    backend = CompiledBackend(optimizer="on")
    db = forward_graph(150, 8, seed=1)
    for step in range(60):
        a, b = (step * 7) % 150, (step * 11 + 3) % 150
        formula = precondition(insert(a, b))
        assert backend.evaluate(formula, db) == (a != b)
        db = db.insert("E", (min(a, b), max(a, b) + 1))
    stats = backend.cache_stats()
    assert stats["plans"] <= 8
    assert stats["optimized_plans"] <= 2 * stats["plans"]


# -- fresh preconditions along update streams ------------------------------------


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
    optimized = CompiledBackend(optimizer="on")
    syntactic = CompiledBackend(optimizer="off")
    history = [base]
    for branch, delta, program in steps:
        # the rollback pattern: the stream resumes from the parent state
        origin = history[-2] if branch and len(history) > 1 else history[-1]
        current = origin.apply_delta(delta)
        history.append(current)
        for constraint in (NO_LOOPS, ANTISYMMETRIC):
            formula = precondition(program, constraint)
            expected = NAIVE.evaluate(formula, current)
            assert optimized.evaluate(formula, current) == expected, (program, constraint)
            assert syntactic.evaluate(formula, current) == expected, (program, constraint)


def test_partitioned_row_sets_agree_under_both_plan_choices():
    """The families above hold a handful of rows, so every row set in them is
    one partition.  At 2 000 rows the relation and its indexes span many:
    the same stream shapes — whole formulas, fresh preconditions, a
    rolled-back branch — run by the optimized and the syntactic plans over
    row sets and indexes patched from state to state.  Three standing
    preconditions share one plan with the fresh ones and are met again at
    every state."""
    from repro.db.delta import RowSet

    no_triangles = parse("forall x . forall y . forall z . (E(x, y) & E(y, z)) -> ~E(z, x)")
    optimized = CompiledBackend(optimizer="on")
    syntactic = CompiledBackend(optimizer="off")
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
            optimized.evaluate(constraint, candidate)
            for constraint in (NO_LOOPS, ANTISYMMETRIC, no_triangles)
        ]
        assert verdicts == [
            syntactic.evaluate(constraint, candidate)
            for constraint in (NO_LOOPS, ANTISYMMETRIC, no_triangles)
        ]
        fresh = precondition(insert(1000 + step, 5), ANTISYMMETRIC)
        for formula in [fresh] + standing:
            assert optimized.evaluate(formula, candidate) == syntactic.evaluate(
                formula, candidate
            )
        if all(verdicts):  # keep it; otherwise the stream resumes from the parent
            db = candidate
    assert optimized.cache_stats()["plans"] == 4  # three constraints, one precondition shape
    relation = db.relation("E")
    assert isinstance(relation, RowSet) and len(relation._parts) > 1


# -- one formula, one plan: a formula borrows no other formula's result ------------


def loop_free_stream(length):
    db = random_graph(12, 0.2, seed=3)
    db = db.apply_delta(Delta(deleted={"E": {(n, n) for n in range(12)}}))
    yield db
    for step in range(length):
        db = db.insert("E", (step % 12, (step * 5 + 1) % 12))
        yield db


def test_each_fresh_precondition_along_a_stream_is_one_miss():
    backend = CompiledBackend(optimizer="on")
    for step, db in enumerate(loop_free_stream(10)):
        formula = precondition(insert(100 + step, 200 + step))  # never seen before
        assert backend.evaluate(formula, db) == NAIVE.evaluate(formula, db)
    # each is one streamed execution of the shape's one plan
    stats = backend.cache_stats()
    assert stats["streamed"] == 11 and stats["plans"] == 1
    assert not [name for name in stats if name.startswith("shared")]


def test_a_rejected_update_leaves_the_parent_verdict_in_the_memo():
    backend = CompiledBackend(optimizer="on")
    db = next(loop_free_stream(0))
    assert backend.evaluate(NO_LOOPS, db)
    assert not backend.evaluate(NO_LOOPS, db.insert("E", (5, 5)))  # rejected
    assert backend.evaluate(NO_LOOPS, db)  # back at the parent: the memo
    assert backend.streamed == 2
    # the next candidate is a memo miss: its plan runs
    assert backend.evaluate(NO_LOOPS, db.insert("E", (5, 6)))
    assert backend.streamed == 3


def test_explain_does_not_depend_on_what_else_was_evaluated():
    states = list(loop_free_stream(2))
    warm = CompiledBackend(optimizer="on")
    warm.evaluate(precondition(insert(100, 200)), states[0])
    warm.evaluate(precondition(insert(101, 201)), states[1])
    formula = precondition(insert(102, 202))

    def untimed(backend):
        return re.sub(r" time=[0-9.]+ms", "", backend.explain(formula, states[2]))

    report = untimed(warm)
    assert report == untimed(CompiledBackend(optimizer="on"))
    assert "path: streamed" in report and "[carried]" not in report


def test_formulas_with_a_common_premise_run_plans_of_their_own():
    backend = CompiledBackend(optimizer="on")
    db = random_graph(60, 0.4, seed=7)
    premise = "(exists y . exists z . E(a, y) & E(y, z) & E(z, a))"
    one = parse(f"forall a . {premise} -> (exists w . E(a, w))")
    two = parse(f"forall a . {premise} -> (exists w . E(w, a))")

    def nodes(plan):
        found, stack = {}, [plan]
        while stack:
            node = stack.pop()
            if id(node) not in found:
                found[id(node)] = node
                stack.extend(node.children())
        return set(found)

    assert not nodes(backend.plan_for(one, ())) & nodes(backend.plan_for(two, ()))
    for formula in (one, two, one):
        assert backend.evaluate(formula, db) == NAIVE.evaluate(formula, db)
    successor = db.insert("E", (0, 0))
    for formula in (two, one):
        assert backend.evaluate(formula, successor) == NAIVE.evaluate(formula, successor)
    assert backend.cache_stats()["plans"] == 2


def _edge_guard(constraint, a, b):
    """The derived pre-state guard of inserting the edge ``(a, b)``."""
    return bind_slots(*derived_guard(_insert_edge_program(a, b), constraint))


#: the guards the standard templates once shipped by hand, as formulas
_HAND_GUARDS = (
    (NO_LOOPS, "~({a} = {b})"),
    (NO_TRIANGLES, "~({a} = {b}) & ~(exists w . E({b}, w) & E(w, {a}))"),
)


def test_the_derived_edge_guards_are_the_hand_guards():
    graphs = list(all_graphs(3))
    for constraint, source in _HAND_GUARDS:
        for a in range(3):
            for b in range(3):
                hand, derived = parse(source.format(a=a, b=b)), _edge_guard(constraint, a, b)
                for db in graphs:
                    assert NAIVE.evaluate(derived, db) == NAIVE.evaluate(hand, db), (a, b, db)


def test_reads_and_guards_of_many_accounts_are_a_handful_of_plans():
    reads = [
        parse(source) for source in (
            "exists y . E(x, y)", "exists y . E(y, x)", "~E(x, x)",
            "exists y . E(x, y) & E(y, x)", "exists y . exists z . E(x, y) & E(y, z)",
            "forall y . E(x, y) -> ~E(y, x)",
            "exists y . exists z . E(x, y) & E(x, z) & ~(y = z)",
            "exists y . E(y, x) & (exists z . E(x, z))",
        )
    ]
    backend = CompiledBackend(optimizer="on")
    db = forward_graph(400, 8, seed=1)
    model = {"out": {}, "in": {}}
    for a, b in db.relation("E"):
        model["out"].setdefault(a, set()).add(b)
        model["in"].setdefault(b, set()).add(a)
    for account in range(400):
        out, into = model["out"].get(account, set()), model["in"].get(account, set())
        answers = [backend.evaluate(read, db, {"x": account}) for read in reads]
        assert answers[0] == bool(out) and answers[1] == bool(into) and answers[2]
        assert answers[4] == any(model["out"].get(y) for y in out)
        assert answers[6] == (len(out) >= 2)
        other = (account * 7 + 1) % 400
        assert backend.evaluate(_edge_guard(NO_LOOPS, account, other), db) == (account != other)
        closes = any(account in model["out"].get(w, ()) for w in model["out"].get(other, ()))
        assert backend.evaluate(_edge_guard(NO_TRIANGLES, account, other), db) == (
            account != other and not closes
        )
    stats = backend.cache_stats()
    assert stats["plans"] <= 16
    assert stats["optimized_plans"] <= 2 * stats["plans"]


def test_a_warm_shape_builds_no_formula_and_no_plan(monkeypatch):
    backend = CompiledBackend()
    db = forward_graph(150, 8, seed=1)
    backend.evaluate(precondition(insert(3, 40)), db)
    fresh = precondition(insert(5, 77))  # same shape, never evaluated
    built = []

    def counting(cls):
        original = cls.__init__

        def init(self, *args, **kwargs):
            built.append(type(self).__name__)
            original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)

    classes = {Plan, Formula}
    for module, base in ((plan_module, Plan), (sys.modules[Formula.__module__], Formula)):
        classes.update(
            value for value in vars(module).values()
            if isinstance(value, type) and issubclass(value, base)
        )
    for cls in classes:
        if "__init__" in vars(cls):
            counting(cls)
    assert backend.extension(fresh, db, ()) == NAIVE.extension(fresh, db, ())
    assert built == []
    # the counter does count: a new shape compiles
    backend.extension(parse("exists x . E(x, 5) & E(5, x)"), db, ())
    assert "Scan" in built and "Atom" in built


def test_the_memo_is_per_binding():
    backend = CompiledBackend()
    db = Database.graph([(0, 1), (1, 2), (2, 3)])
    first, second = parse("exists x . E(1, x)"), parse("exists x . E(3, x)")
    assert backend.evaluate(first, db) and not backend.evaluate(second, db)
    stats = backend.cache_stats()
    assert (stats["plans"], stats["memo"]) == (1, 2)
    successor = db.insert("E", (3, 0))
    assert backend.evaluate(first, successor) and backend.evaluate(second, successor)
    assert backend.cache_stats()["memo"] == 4  # each binding at each state


def test_explain_prints_slots_with_their_bound_values():
    backend = CompiledBackend()
    db = forward_graph(150, 8, seed=1)
    report = backend.explain(parse("exists y . exists z . E(5, y) & E(y, z) & ~(z = 'ghost')"), db)
    assert "parameters: $0=5  $1='ghost'" in report
    assert "Scan E($0, y)" in report
    assert "$1" in report.split("parameters:")[1].split("\n", 1)[1]
    assert "parameters:" not in backend.explain(parse("exists x . E(x, x)"), db)


def test_two_threads_share_one_plan_under_different_bindings():
    backend = CompiledBackend()
    db = forward_graph(60, 4, seed=1)
    template = "exists y . exists z . E({a}, y) & E(y, z) & ~(z = {a})"
    expected = {
        a: NAIVE.evaluate(parse(template.format(a=a)), db) for a in range(60)
    }
    failures, rounds = [], 10_000

    def worker(offset):
        formulas_ = [parse(template.format(a=a)) for a in range(60)]
        for step in range(rounds):
            a = (step * 7 + offset) % 60
            # every second round bypasses the memo, so both threads execute
            # the one shared plan concurrently under their own parameters
            if step % 2:
                plan = backend.plan_for(formulas_[a], ())
                got = bool(plan.rows(ExecutionContext(db, params=formulas_[a].shape()[1])))
            else:
                got = backend.evaluate(formulas_[a], db)
            if got != expected[a]:
                failures.append((offset, a, got))
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(offset,)) for offset in (0, 31)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    assert backend.cache_stats()["plans"] == 1


# -- the join probes the stored relation's index ---------------------------------------


def _relation_join_cases():
    db = Database.graph(
        [(a, (a * 3 + j) % 40) for a in range(40) for j in range(1, 5)] + [(50, 50)]
    )
    stored = Scan("E", [("var", "y"), ("var", "z")])
    cases = []
    for small in (
        Scan("E", [("const", 3), ("var", "y")]),               # joins on y, adds z
        Scan("E", [("const", 3), ("var", "z")]),               # joins on z, adds y
        Scan("E", [("var", "y"), ("const", 9)]),               # a left column only
    ):
        cases.append((db, HashJoin(small, stored)))
        cases.append((db, HashJoin(stored, small)))
    both = plan_module.Project(
        HashJoin(Scan("E", [("const", 3), ("var", "y")]), Scan("E", [("const", 7), ("var", "z")])),
        ["y", "z"],
    )
    cases.append((db, HashJoin(stored, both)))  # semijoin on every column
    cases.append((db, HashJoin(both, stored)))
    return cases


@pytest.mark.parametrize("db, join", _relation_join_cases())
def test_index_probe_join_equals_the_hash_join(db, join, monkeypatch):
    probes = []
    original = Database.index

    def counting(self, name, columns):
        probes.append(columns)
        return original(self, name, columns)

    monkeypatch.setattr(Database, "index", counting)
    ctx = ExecutionContext(db)
    left, right = join.left.rows(ctx), join.right.rows(ctx)
    assert len(left) != len(right)
    probed = join._probe_stored(ctx, left, right)
    assert probed is not None
    assert probed == join_rows(join, left, right)
    assert join.rows(ExecutionContext(db)) == probed
    # a domain that does not cover the database filters the scan: no stored
    # relation to probe, and the result is the hash join of the filtered sides
    narrow = ExecutionContext(db, domain=frozenset(range(30)))
    left, right = join.left.rows(narrow), join.right.rows(narrow)
    assert join._probe_stored(narrow, left, right) is None
    assert join.rows(ExecutionContext(db, domain=frozenset(range(30)))) == join_rows(
        join, left, right
    )


def test_probe_is_declined_where_the_stored_side_is_not_the_larger():
    db = Database.graph([(0, 1), (1, 2)])
    stored = Scan("E", [("var", "y"), ("var", "z")])
    wide = plan_module.DomainProduct(["x", "y"])
    ctx = ExecutionContext(db)
    for join in (HashJoin(wide, stored), HashJoin(stored, wide)):
        assert join._probe_stored(ctx, join.left.rows(ctx), join.right.rows(ctx)) is None
    repeated = Scan("E", [("var", "y"), ("var", "y")])  # filters: not the relation
    join = HashJoin(Scan("E", [("const", 0), ("var", "y")]), repeated)
    assert join._probe_stored(ctx, join.left.rows(ctx), {(1,), (2,), (3,)}) is None


@maybe_seed
@given(db=graphs(max_value=5, max_edges=20), a=st.integers(0, 5))
def test_probing_joins_agree_with_the_interpreter(db, a):
    backend = CompiledBackend()
    for source in (
        f"exists y . exists z . E({a}, y) & E(y, z)",
        f"exists y . exists z . E({a}, y) & E(z, y)",
        f"exists y . E(x, y) & E({a}, x)",
        f"E(x, y) & x = {a} & y = {a}",
    ):
        formula = parse(source)
        variables = tuple(sorted(formula.free_variables()))
        assert backend.extension(formula, db, variables) == NAIVE.extension(
            formula, db, variables
        ), source


# -- a covered negated equality is a selection -----------------------------------------


def test_covered_inequality_compiles_to_a_selection_not_an_antijoin():
    backend = CompiledBackend(optimizer="off")
    formula = parse("exists y . exists z . E(1, y) & E(1, z) & ~(y = z)")
    labels = backend.plan_for(formula, ()).explain()
    assert "Select[~(y = z)]" in labels
    assert "Antijoin" not in labels and "Diagonal" not in labels
    labels = backend.plan_for(parse("E(x, y) & ~(x = 3)"), ("x", "y")).explain()
    assert "Select[~(x = $0)]" in labels and "Antijoin" not in labels
    # two constants: nothing per row to compare, decided once
    labels = backend.plan_for(parse("E(x, y) & ~(2 = 3)"), ("x", "y")).explain()
    assert "Select" not in labels


@maybe_seed
@given(db=graphs(), c=st.sampled_from([0, 1, 2, 7, "ghost"]))
def test_inequality_selections_agree_with_the_interpreter(db, c):
    for backend in (CompiledBackend(), CompiledBackend(optimizer="off")):
        for formula in (
            parse("exists y . exists z . E(x, y) & E(x, z) & ~(y = z)"),
            And(Atom("E", "x", "y"), Not(Eq("y", Const(c)))),
            And(Atom("E", "x", "y"), Not(Eq(Const(c), "x")), Not(Eq("x", "y"))),
            And(Atom("E", "x", "x"), Not(Eq("x", "x"))),
        ):
            variables = tuple(sorted(formula.free_variables()))
            assert backend.extension(formula, db, variables) == NAIVE.extension(
                formula, db, variables
            ), formula
