"""Unit tests for the plan operators, the compiler's plan shapes, the
database hash indexes, and backend selection plumbing."""

from __future__ import annotations

import pytest

from repro.db import Database, DatabaseError, chain, cycle
from repro.engine import (
    Antijoin,
    CompiledBackend,
    ConstantTable,
    DomainComplement,
    DomainDiagonal,
    DomainProduct,
    DomainScan,
    Estimator,
    ExecutionContext,
    GroupCount,
    HashJoin,
    NaiveBackend,
    Plan,
    PlanError,
    Project,
    Scan,
    Select,
    SingletonIfActive,
    UnionAll,
    active_backend,
    backend_from_name,
    compile_sentence,
    compile_extension,
    set_backend,
    using_backend,
)
from repro.engine import plan as plan_module
from repro.engine.plan import join_rows
from repro.logic import parse
from repro.logic.syntax import Atom, CountingExists, Exists, Not


def scan_xy():
    return Scan("E", [("var", "x"), ("var", "y")])


def operator_samples():
    """One node of every operator, keyed by its class."""
    xy, yx = scan_xy(), Scan("E", [("var", "y"), ("var", "x")])
    nodes = [
        xy, DomainScan("x"), DomainProduct(["x", "y"]), ConstantTable(["x"], [(0,), (5,)]),
        SingletonIfActive("x", 1), DomainDiagonal("x", "y"),
        Select(xy, lambda row, ctx: row[0] < row[1], "x < y"), Project(xy, ["y"]),
        HashJoin(xy, Scan("E", [("var", "y"), ("var", "z")])), Antijoin(xy, yx),
        UnionAll([xy, Project(yx, ["x", "y"])]), DomainComplement(xy),
        GroupCount(xy, ["x"], 2),
    ]
    return {type(node): node for node in nodes}


OPERATORS = [
    value for value in map(vars(plan_module).get, plan_module.__all__)
    if isinstance(value, type) and issubclass(value, Plan) and value is not Plan
]


class TestPlanOperators:
    def test_scan_binds_variables_and_constants(self):
        db = Database.graph([(0, 1), (1, 2), (0, 0)])
        ctx = ExecutionContext(db)
        assert scan_xy().rows(ctx) == {(0, 1), (1, 2), (0, 0)}
        const_scan = Scan("E", [("const", 0), ("var", "y")])
        assert const_scan.rows(ctx) == {(1,), (0,)}
        loop_scan = Scan("E", [("var", "x"), ("var", "x")])
        assert loop_scan.rows(ctx) == {(0,)}
        assert loop_scan.columns == ("x",)

    def test_scan_restricts_to_domain(self):
        db = Database.graph([(0, 1), (5, 6)])
        ctx = ExecutionContext(db, domain=[0, 1])
        assert scan_xy().rows(ctx) == {(0, 1)}

    def test_fully_bound_scan_is_a_membership_test_not_an_index(self):
        db = Database.graph([(0, 1), (1, 2)])
        ctx = ExecutionContext(db)
        bound = lambda *values: Scan("E", [("const", v) for v in values])  # noqa: E731
        assert bound(0, 1).rows(ctx) == {()}
        assert bound(1, 0).rows(ctx) == frozenset()
        assert bound(0.0, True).rows(ctx) == {()}  # equality, as match_row compares
        assert bound(0, 1, 2).rows(ctx) == bound(0).rows(ctx) == frozenset()  # wrong arity
        assert not db._indexes  # no |E| singleton buckets were built to answer those
        guard = parse("~E(1, 1) & E(0, 1)")
        assert CompiledBackend().evaluate(guard, db) is NaiveBackend().evaluate(guard, db) is True

    def test_hash_join_builds_on_either_side_with_the_same_rows(self):
        few = Database.graph([(0, 1), (1, 2)])
        many = Database.graph([(a, b) for a in range(4) for b in range(4)])
        left, right = scan_xy(), Scan("E", [("var", "y"), ("var", "z")])
        join = HashJoin(left, right)
        for left_db, right_db in ((few, many), (many, few)):
            left_rows = left.rows(ExecutionContext(left_db))
            right_rows = right.rows(ExecutionContext(right_db))
            assert len(left_rows) != len(right_rows)  # each side is the build side once
            assert join_rows(join, left_rows, right_rows) == {
                (x, y, z) for x, y in left_rows for y2, z in right_rows if y == y2
            }

    def test_hash_join_on_shared_column(self):
        db = Database.graph([(0, 1), (1, 2), (2, 0)])
        ctx = ExecutionContext(db)
        left = scan_xy()
        right = Scan("E", [("var", "y"), ("var", "z")])
        joined = HashJoin(left, right)
        assert joined.columns == ("x", "y", "z")
        assert joined.rows(ctx) == {(0, 1, 2), (1, 2, 0), (2, 0, 1)}

    def test_join_degenerates_to_semijoin(self):
        db = Database.graph([(0, 1), (1, 2)])
        ctx = ExecutionContext(db)
        left = scan_xy()
        right = Scan("E", [("var", "y"), ("const", 2)])
        joined = HashJoin(left, right)
        assert joined.columns == ("x", "y")  # right adds no columns
        assert joined.rows(ctx) == {(0, 1)}

    def test_antijoin(self):
        db = Database.graph([(0, 1), (1, 2), (2, 0)])
        ctx = ExecutionContext(db)
        loops_back = Scan("E", [("var", "y"), ("var", "x")])
        anti = Antijoin(scan_xy(), loops_back)
        # edges (x, y) with no reverse edge: all three (the cycle has none)
        assert anti.rows(ctx) == {(0, 1), (1, 2), (2, 0)}
        db2 = Database.graph([(0, 1), (1, 0), (1, 2)])
        assert anti.rows(ExecutionContext(db2)) == {(1, 2)}

    def test_domain_complement(self):
        db = Database.graph([(0, 1)])
        ctx = ExecutionContext(db)
        complement = DomainComplement(scan_xy())
        assert complement.rows(ctx) == {(0, 0), (1, 0), (1, 1)}

    def test_group_count(self):
        db = Database.graph([(0, 1), (0, 2), (1, 2)])
        ctx = ExecutionContext(db)
        counted = GroupCount(scan_xy(), ("x",), 2)
        assert counted.rows(ctx) == {(0,)}
        assert GroupCount(scan_xy(), ("x",), 3).rows(ctx) == set()

    @pytest.mark.parametrize("operator", OPERATORS, ids=lambda cls: cls.__name__)
    def test_every_operator_declares_its_estimate_cost_and_rebuild(self, operator):
        """Each operator answers its cost-model row and its rebuild itself,
        and a rebuild over its own children is the same operator."""
        for method in ("_stream", "estimate", "op_cost", "with_children"):
            assert method in vars(operator), f"{operator.__name__} inherits {method}"
        node = operator_samples()[operator]
        db = Database.graph([(0, 1), (1, 2), (2, 0), (1, 1)])
        rebuilt = node.with_children(node.children())
        assert rebuilt.columns == node.columns
        assert rebuilt.rows(ExecutionContext(db)) == node.rows(ExecutionContext(db))
        estimator = Estimator(db.stats(), len(db.active_domain))
        assert estimator.estimate(node).rows >= 0.0 and estimator.op_cost(node) > 0.0

    def test_project_unknown_column_rejected(self):
        with pytest.raises(PlanError):
            Project(scan_xy(), ("nope",))

    def test_explain_renders_tree(self):
        plan = compile_sentence(parse("forall x . ~E(x, x)"))
        rendered = plan.explain()
        assert "Scan E" in rendered
        assert "Complement" in rendered


class TestScanIsTheRelation:
    """``E(x, y)`` filters and reorders nothing: the scan is the stored set."""

    DB = Database.graph([(0, 1), (1, 2), (2, 2)])
    NAIVE = NaiveBackend()

    def agrees_with_the_interpreter(self, atom: str, variables, domain=None):
        formula = parse(atom)
        compiled = CompiledBackend().extension(formula, self.DB, variables, domain=domain)
        assert compiled == self.NAIVE.extension(formula, self.DB, variables, domain=domain)
        return compiled

    def test_fires_for_distinct_variables_over_the_default_domain(self):
        for scan in (scan_xy(), Scan("E", [("var", "y"), ("var", "x")])):
            ctx = ExecutionContext(self.DB)
            assert scan.is_relation(ctx)
            assert scan.rows(ctx) is self.DB.relation("E")
        assert self.agrees_with_the_interpreter("E(x, y)", ("x", "y")) == set(self.DB.edges)

    def test_fires_under_an_explicit_domain_that_covers_the_database(self):
        ctx = ExecutionContext(self.DB, domain=[0, 1, 2, 9])
        assert scan_xy().rows(ctx) is self.DB.relation("E")
        self.agrees_with_the_interpreter("E(x, y)", ("x", "y"), domain=[0, 1, 2, 9])

    def test_does_not_fire_for_a_repeated_variable(self):
        scan = Scan("E", [("var", "x"), ("var", "x")])
        ctx = ExecutionContext(self.DB)
        assert not scan.is_relation(ctx) and scan.rows(ctx) == {(2,)}
        assert self.agrees_with_the_interpreter("E(x, x)", ("x",)) == {(2,)}

    def test_does_not_fire_for_a_constant(self):
        scan = Scan("E", [("var", "x"), ("const", 2)])
        ctx = ExecutionContext(self.DB)
        assert not scan.is_relation(ctx) and scan.rows(ctx) == {(1,), (2,)}
        assert self.agrees_with_the_interpreter("E(x, 2)", ("x",)) == {(1,), (2,)}

    def test_does_not_fire_for_a_wrong_arity_atom(self):
        scan = Scan("E", [("var", "x"), ("var", "y"), ("var", "z")])
        ctx = ExecutionContext(self.DB)
        assert not scan.is_relation(ctx) and scan.rows(ctx) == frozenset()
        assert self.agrees_with_the_interpreter("E(x, y, z)", ("x", "y", "z")) == set()

    def test_does_not_fire_when_the_domain_misses_an_active_value(self):
        ctx = ExecutionContext(self.DB, domain=[1, 2])
        assert not scan_xy().is_relation(ctx)
        assert scan_xy().rows(ctx) == {(1, 2), (2, 2)}
        assert self.agrees_with_the_interpreter(
            "E(x, y)", ("x", "y"), domain=[1, 2]
        ) == {(1, 2), (2, 2)}

    def test_fires_for_every_successor_along_a_stream(self):
        backend = CompiledBackend()
        formula, db = parse("exists x . exists y . E(x, y) & E(y, x)"), self.DB
        backend.evaluate(formula, db)
        for inserted, deleted in (
            ([(5, 6)], []), ([(6, 5)], []), ([(0, 7)], [(6, 5), (2, 2)]),  # the domain moves
        ):
            db = db.insert("E", *inserted).delete("E", *deleted)
            assert backend.evaluate(formula, db) == self.NAIVE.evaluate(formula, db)
            ctx = ExecutionContext(db)
            assert scan_xy().is_relation(ctx) and scan_xy().rows(ctx) is db.relation("E")


class TestCompiledShapes:
    """The compiler should produce the efficient operator, not just a correct one."""

    def labels(self, plan):
        result = [plan.label()]
        for child in plan.children():
            result.extend(self.labels(child))
        return result

    def test_negated_conjunct_becomes_antijoin(self):
        formula = Exists("x", Exists("y", ~Atom("E", "y", "x") & Atom("E", "x", "y")))
        labels = " | ".join(self.labels(compile_sentence(formula)))
        assert "Antijoin" in labels
        assert "Complement^2" not in labels

    def test_interpreted_atom_pushed_down_as_selection(self):
        formula = parse("forall x y . E(x, y) -> leq(x, y)", predicates=["leq"])
        labels = " | ".join(self.labels(compile_sentence(formula)))
        assert "Select" in labels

    def test_counting_compiles_to_group_count(self):
        formula = CountingExists("y", 2, Atom("E", "x", "y"))
        labels = self.labels(compile_extension(formula, ("x",)))
        assert any("GroupCount" in l for l in labels)

    def test_plans_are_database_independent(self):
        backend = CompiledBackend()
        formula = parse("forall x . ~E(x, x)")
        for db in (chain(3), cycle(4), Database.graph([])):
            backend.evaluate(formula, db)
        assert backend.cache_stats()["plans"] == 1  # compiled exactly once

    def test_memo_hits_for_repeated_checks(self):
        backend = CompiledBackend()
        formula = parse("forall x . ~E(x, x)")
        db = chain(4)
        assert backend.evaluate(formula, db)
        stats_before = backend.cache_stats()["memo"]
        assert backend.evaluate(formula, db)
        assert backend.cache_stats()["memo"] == stats_before


class TestDatabaseIndexes:
    def test_index_groups_rows_by_key(self):
        db = Database.graph([(0, 1), (0, 2), (1, 2)])
        by_source = db.index("E", 0)
        assert set(by_source[(0,)]) == {(0, 1), (0, 2)}
        assert set(by_source[(1,)]) == {(1, 2)}

    def test_index_accepts_column_tuples(self):
        db = Database.graph([(0, 1), (0, 2)])
        assert set(db.index("E", (0, 1))[(0, 2)]) == {(0, 2)}

    def test_index_is_cached(self):
        db = Database.graph([(0, 1)])
        assert db.index("E", 0) is db.index("E", 0)

    def test_index_rejects_bad_columns(self):
        db = Database.graph([(0, 1)])
        with pytest.raises(DatabaseError):
            db.index("E", 5)
        with pytest.raises(DatabaseError):
            db.index("nope", 0)

    def test_neighbourhood_accessors_match_definition(self):
        db = Database.graph([(0, 1), (0, 2), (2, 0)])
        assert db.successors(0) == {1, 2}
        assert db.predecessors(0) == {2}
        assert db.out_degree(0) == 2
        assert db.in_degree(1) == 1
        assert db.successors(99) == frozenset()

    def test_index_is_read_only(self):
        db = Database.graph([(0, 1)])
        with pytest.raises(TypeError):
            db.index("E", 0)[(9,)] = frozenset()

    def test_delete_where_with_excess_variables_binds_like_zip(self):
        """Variables beyond the relation arity never bind (old zip semantics)."""
        from repro.logic import parse
        from repro.transactions import DeleteWhere, FOProgram

        db = Database.graph([(1, 2), (2, 3)])
        program = FOProgram([DeleteWhere("E", ("a", "b", "c"), parse("E(a, b)"))])
        assert program.apply(db) == Database.graph([])

    def test_canonical_key_cached_and_stable(self):
        db = Database.graph([(0, 1)])
        assert db.canonical_key() is db.canonical_key()
        assert db.canonical_key() == Database.graph([(0, 1)]).canonical_key()


class TestBackendSelection:
    def test_registry_names(self):
        assert isinstance(backend_from_name("naive"), NaiveBackend)
        assert isinstance(backend_from_name("compiled"), CompiledBackend)
        with pytest.raises(ValueError):
            backend_from_name("quantum")

    def test_using_backend_restores_previous(self):
        previous = active_backend()
        with using_backend("naive") as backend:
            assert isinstance(backend, NaiveBackend)
            assert active_backend() is backend
        assert active_backend() is previous

    def test_set_backend_rejects_junk(self):
        with pytest.raises(TypeError):
            set_backend(42)

    def test_one_shot_iterable_domain(self):
        """A generator domain must not be silently exhausted mid-call."""
        from repro.logic.syntax import Exists, Forall, Atom, Not

        db = Database.graph([(0, 1), (1, 2)])
        formula = Forall("x", Exists("y", Atom("E", "x", "y")))
        expected = NaiveBackend().evaluate(formula, db, domain=frozenset(db.active_domain))
        got = CompiledBackend().evaluate(formula, db, domain=iter(db.active_domain))
        assert got == expected is False

    def test_wrong_arity_constant_atom_matches_nothing(self):
        from repro.logic.terms import Const, Var

        db = Database.graph([(0, 1)])
        formula = Atom("E", Var("x"), Var("y"), Const(0))  # arity-3 atom, arity-2 schema
        naive = NaiveBackend().extension(formula, db, ["x", "y"])
        compiled = CompiledBackend().extension(formula, db, ["x", "y"])
        assert compiled == naive == set()

    def test_module_level_evaluate_dispatches(self):
        from repro.logic import evaluate

        db = cycle(3)
        formula = parse("forall x . exists y . E(x, y)")
        with using_backend("naive"):
            naive_answer = evaluate(formula, db)
        with using_backend("compiled"):
            compiled_answer = evaluate(formula, db)
        assert naive_answer == compiled_answer is True


# -- short-circuiting joins ---------------------------------------------------

LOOP_WITH_SUCCESSOR = parse("exists x . exists y . E(x, x) & E(x, y)")


def test_join_with_an_empty_side_never_runs_the_other():
    backend = CompiledBackend()
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


def test_short_circuited_plan_answers_every_step_of_a_stream():
    backend = CompiledBackend()
    db = Database.graph([(0, 1), (1, 2)])
    assert not backend.evaluate(LOOP_WITH_SUCCESSOR, db)
    db = db.insert("E", (3, 4))  # still no loop: the join stays empty
    assert not backend.evaluate(LOOP_WITH_SUCCESSOR, db)
    db = db.insert("E", (1, 1))  # the skipped side is needed now
    assert backend.evaluate(LOOP_WITH_SUCCESSOR, db)
    db = db.delete("E", (1, 2)).delete("E", (1, 1)).insert("E", (1, 0))
    assert not backend.evaluate(LOOP_WITH_SUCCESSOR, db)
