"""The cost-based optimizer: statistics, estimation, rewriting, sharing.

Four layers of coverage:

* **statistics** — `Database.stats()` agrees with ground truth and stays
  exact through ``apply_delta`` (the O(|Δ|) maintenance path);
* **estimator properties** (hypothesis) — estimated cardinalities of scans
  and joins against true sizes on generated databases: scans with at most
  one constant are *exact* (the per-column counters are complete), joins are
  bounded by the cross product and never negative;
* **rewriter** — optimized plans compute exactly the rows of the syntactic
  plans on random formula/database pairs, join reordering starts selective
  scans first (the E12/E18 plan-shape regression), complement avoidance
  produces antijoins, and a block with nothing to reorder still has its
  nested blocks reordered;
* **sharing and explain** — structurally equal sub-plans across separately
  optimized constraints unify to one node, shared intermediates are
  materialised once per database, and ``explain()`` reports estimates
  against actuals.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database, Delta, random_graph
from repro.engine import (
    Antijoin,
    CompiledBackend,
    DomainComplement,
    DomainProduct,
    Estimator,
    HashJoin,
    NaiveBackend,
    Plan,
    Project,
    Scan,
    Select,
    compile_extension,
    optimize_plan,
)
from repro.engine.optimize import _BLOCK_SKIP_COST
from repro.engine.plan import ExecutionContext
from repro.logic import parse

from strategies import formulas, graphs, maybe_seed

COMMON = settings(max_examples=60, deadline=None)


def plan_nodes(plan: Plan):
    seen = []
    stack = [plan]
    while stack:
        node = stack.pop()
        if any(node is s for s in seen):
            continue
        seen.append(node)
        stack.extend(node.children())
    return seen


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

class TestStats:
    def test_stats_match_ground_truth(self):
        db = Database.graph([(0, 1), (0, 2), (1, 2), (2, 2)])
        rel = db.stats().relation("E")
        assert rel.cardinality == 4
        assert rel.column(0).distinct == 3
        assert rel.column(0).frequency(0) == 2
        assert rel.column(1).frequency(2) == 3
        assert rel.column(1).most_common(1)[0] == (2, 3)

    def test_stats_patch_through_apply_delta(self):
        db = Database.graph([(0, 1), (1, 2)])
        base_stats = db.stats()  # materialise so apply_delta patches forward
        successor = db.apply_delta(
            Delta(inserted={"E": [(2, 3), (3, 3)]}, deleted={"E": [(0, 1)]})
        )
        patched = successor.stats()
        rebuilt = Database.graph([(1, 2), (2, 3), (3, 3)]).stats()
        assert patched.relation("E").cardinality == 3
        for position in (0, 1):
            assert (
                patched.relation("E").column(position).counts
                == rebuilt.relation("E").column(position).counts
            )
        # the parent's statistics object is untouched (clone-and-patch)
        assert base_stats.relation("E").cardinality == 2

    @maybe_seed
    @COMMON
    @given(db=graphs(max_value=5, max_edges=14))
    def test_stats_profile_is_stable_under_equality(self, db):
        assert db.stats().profile() == Database.graph(db.edges).stats().profile()


# ---------------------------------------------------------------------------
# the cardinality estimator (property suite)
# ---------------------------------------------------------------------------

class TestEstimator:
    @maybe_seed
    @COMMON
    @given(
        db=graphs(max_value=5, max_edges=16),
        constant=st.integers(0, 5),
        flip=st.booleans(),
    )
    def test_constant_scan_estimates_are_exact(self, db, constant, flip):
        """One constant position: the complete counters make this exact."""
        pattern = (
            [("const", constant), ("var", "y")]
            if flip
            else [("var", "x"), ("const", constant)]
        )
        scan = Scan("E", pattern)
        estimator = Estimator(db.stats(), len(db.active_domain))
        true_rows = len(scan.rows(ExecutionContext(db)))
        assert estimator.estimate(scan).rows == pytest.approx(true_rows)

    @maybe_seed
    @COMMON
    @given(db=graphs(max_value=5, max_edges=16))
    def test_full_scan_estimates_are_exact(self, db):
        scan = Scan("E", [("var", "x"), ("var", "y")])
        estimator = Estimator(db.stats(), len(db.active_domain))
        assert estimator.estimate(scan).rows == pytest.approx(len(db.edges))

    @maybe_seed
    @COMMON
    @given(db=graphs(max_value=5, max_edges=16))
    def test_join_estimates_are_bounded(self, db):
        """Join estimates stay within [0, |L| * |R|] and track the truth.

        The classic distinct-value model cannot be exact, so the property is
        a *bound*: never negative, never above the cross product, and at
        most the cross-product bound even after projection.
        """
        left = Scan("E", [("var", "x"), ("var", "y")])
        right = Scan("E", [("var", "y"), ("var", "z")])
        join = HashJoin(left, right)
        estimator = Estimator(db.stats(), len(db.active_domain))
        estimate = estimator.estimate(join).rows
        edges = len(db.edges)
        assert 0.0 <= estimate <= edges * edges + 1e-9
        if edges:
            true_rows = len(join.rows(ExecutionContext(db)))
            bound = max(len(db.active_domain), 1)
            # the estimator never *undershoots* by more than a |domain|
            # factor; overshooting is only bounded when the join is
            # non-empty (no statistics can see that two value sets are
            # disjoint without storing them)
            assert true_rows <= estimate * bound + bound + 1e-9
            if true_rows:
                assert estimate <= true_rows * bound + bound + 1e-9

    @maybe_seed
    @COMMON
    @given(db=graphs(max_value=4, max_edges=10), width=st.integers(0, 2))
    def test_domain_product_estimates_are_exact(self, db, width):
        columns = tuple("xyz"[:width])
        product = DomainProduct(columns)
        estimator = Estimator(db.stats(), len(db.active_domain))
        # the estimator clamps the domain size at 1 (cost ratios stay finite
        # on empty databases), so the expectation clamps too
        assert estimator.estimate(product).rows == pytest.approx(
            max(len(db.active_domain), 1) ** width
        )


# ---------------------------------------------------------------------------
# the rewriter
# ---------------------------------------------------------------------------

class TestRewriter:
    @maybe_seed
    @settings(max_examples=80, deadline=None)
    @given(formula=formulas(), db=graphs())
    def test_optimized_plans_are_equivalent(self, formula, db):
        variables = tuple(sorted(formula.free_variables()))
        plan = compile_extension(formula, variables)
        optimized, _info = optimize_plan(plan, db.stats(), len(db.active_domain))
        assert optimized.columns == plan.columns
        assert optimized.rows(ExecutionContext(db)) == plan.rows(ExecutionContext(db))

    def test_join_reordering_starts_with_the_selective_scan(self):
        """The E12/E18 plan-shape pin: the chain query joins outward from
        the tiny relation instead of materialising the big self-join."""
        db = random_graph(24, 0.5, seed=3)
        # E(z, 0) is selective (one bound constant); the syntactic order
        # would join E(x,y) with E(y,z) first
        formula = parse("exists y . E(x, y) & E(y, z) & E(z, 0)")
        plan = compile_extension(formula, ("x", "z"))
        optimized, info = optimize_plan(plan, db.stats(), len(db.active_domain))
        assert info.rewritten and info.join_reorders >= 1
        joins = [n for n in plan_nodes(optimized) if isinstance(n, HashJoin)]
        assert joins, "reordered plan lost its joins"
        estimator = Estimator(db.stats(), len(db.active_domain))
        all_scans = [n for n in plan_nodes(optimized) if isinstance(n, Scan)]
        selective = min(all_scans, key=lambda s: estimator.estimate(s).rows)
        # the most selective scan participates in the innermost join — the
        # syntactic order would have joined the two full scans first
        innermost = min(joins, key=lambda j: len(plan_nodes(j)))
        assert any(
            node is selective for node in plan_nodes(innermost)
        ), f"selective scan not joined first:\n{optimized.explain()}"

    def test_complement_avoidance_produces_antijoin(self):
        db = random_graph(18, 0.3, seed=5)
        formula = parse("exists y . E(x, y) & ~E(y, x)")
        plan = compile_extension(formula, ("x",))
        optimized, _info = optimize_plan(plan, db.stats(), len(db.active_domain))
        kinds = {type(n) for n in plan_nodes(optimized)}
        assert DomainComplement not in kinds
        assert Antijoin in kinds
        assert optimized.rows(ExecutionContext(db)) == plan.rows(ExecutionContext(db))

    def test_opaque_select_root_still_reorders_its_block(self):
        """A Select without a formula cannot move, so the block above it has
        nothing to reorder — the join block underneath still gets ordered."""
        db = random_graph(24, 0.5, seed=3)
        block = compile_extension(
            parse("exists y . E(x, y) & E(y, z) & E(z, 0)"), ("x", "z")
        )
        root = Select(block, lambda row, ctx: row[0] != row[1], "x != z")
        estimator = Estimator(db.stats(), len(db.active_domain))
        assert estimator.cost(root) > _BLOCK_SKIP_COST
        optimized, info = optimize_plan(root, db.stats(), len(db.active_domain))
        assert info.join_reorders > 0 and info.rewritten
        # the root keeps its shape over the reordered block
        assert isinstance(optimized, Select) and optimized.predicate is root.predicate
        assert optimized.child is not block
        assert optimized.columns == root.columns
        expected = NaiveBackend().extension(
            parse("(exists y . E(x, y) & E(y, z) & E(z, 0)) & ~(x = z)"),
            db,
            ("x", "z"),
        )
        assert optimized.rows(ExecutionContext(db)) == expected

    def test_antijoin_adding_columns_still_reorders_its_block(self):
        """An antijoin whose right side brings columns the left lacks is not
        a movable negation — the join block on its left still gets ordered."""
        db = random_graph(30, 0.1, seed=2)
        block = compile_extension(
            parse("exists y . E(x, y) & E(y, z) & E(z, 0)"), ("x", "z")
        )
        root = Antijoin(block, Scan("E", (("var", "w"), ("var", "x"))))
        estimator = Estimator(db.stats(), len(db.active_domain))
        assert estimator.cost(root) > _BLOCK_SKIP_COST
        optimized, info = optimize_plan(root, db.stats(), len(db.active_domain))
        assert info.join_reorders > 0 and info.rewritten
        # the root keeps its shape over the reordered block
        assert isinstance(optimized, Antijoin) and optimized.right is root.right
        assert optimized.left is not block
        assert optimized.columns == root.columns
        expected = NaiveBackend().extension(
            parse(
                "(exists y . E(x, y) & E(y, z) & E(z, 0)) & ~(exists w . E(w, x))"
            ),
            db,
            ("x", "z"),
        )
        assert expected
        assert optimized.rows(ExecutionContext(db)) == expected

    def test_rewrite_only_when_cheaper(self):
        db = Database.graph([(0, 1)])
        formula = parse("exists x . exists y . E(x, y)")
        plan = compile_extension(formula, ())
        optimized, info = optimize_plan(plan, db.stats(), len(db.active_domain))
        assert info.optimized_cost <= info.original_cost
        if not info.rewritten:
            assert optimized is plan


# ---------------------------------------------------------------------------
# the backend integration: fallback, sharing, explain, counters
# ---------------------------------------------------------------------------

class TestBackendIntegration:
    def test_cheap_plan_fallback_on_interpreted_heavy_formula(self):
        """A formula whose plan is all domain products on a small database
        still gets the interpreter's answer."""
        from repro.logic import arithmetic_signature

        backend = CompiledBackend(optimizer="on")
        db = random_graph(30, 0.4, seed=11)
        signature = arithmetic_signature()
        formula = parse(
            "forall x . forall y . forall z . (E(x, y) & E(y, z)) -> "
            "(leq(x, z) | leq(z, x))",
            predicates=["leq"],
        )
        expected = NaiveBackend().evaluate(formula, db, signature=signature)
        assert backend.evaluate(formula, db, signature=signature) == expected

    def test_naive_wins_counter_and_memo(self):
        backend = CompiledBackend(optimizer="on")
        db = random_graph(16, 0.4, seed=2)
        # quantifier-heavy with an opaque guard: plans cost more than the
        # interpreter on this size
        from repro.logic import arithmetic_signature

        formula = parse(
            "forall x . forall y . E(x, y) -> (leq(x, y) | leq(y, x))",
            predicates=["leq"],
        )
        signature = arithmetic_signature()
        first = backend.evaluate(formula, db, signature=signature)
        second = backend.evaluate(formula, db, signature=signature)
        assert first == second
        stats = backend.cache_stats()
        for counter in (
            "plans_rewritten", "join_reorders", "complements_avoided",
        ):
            assert counter in stats

    def test_explain_reports_estimates_and_actuals(self):
        backend = CompiledBackend(optimizer="on")
        db = random_graph(20, 0.3, seed=4)
        report = backend.explain(
            parse("exists y . E(x, y) & E(y, z) & E(z, 0)"), db, ("x", "z")
        )
        assert "est=" in report and "act=" in report
        assert "chosen:" in report

    def test_optimizer_off_disables_rewrites(self):
        backend = CompiledBackend(optimizer="off")
        db = random_graph(20, 0.4, seed=10)
        backend.extension(
            parse("exists y . E(x, y) & E(y, z) & E(z, 0)"), db, ("x", "z")
        )
        stats = backend.cache_stats()
        assert stats["plans_rewritten"] == 0
        assert stats["optimized_plans"] == 0

    def test_invalid_optimizer_mode_rejected(self):
        with pytest.raises(ValueError):
            CompiledBackend(optimizer="sometimes")
        with pytest.raises(ValueError):
            CompiledBackend(optimizer="explain")

    def test_optimizer_keeps_delta_path_alive(self):
        """Optimized plans keep the incremental path engaging on small
        stream databases."""
        backend = CompiledBackend(delta="on", optimizer="on")
        constraint = parse("forall x . forall y . E(x, y) -> E(y, x)")
        db = Database.graph([(a, b) for a in range(6) for b in range(6) if a < b])
        backend.evaluate(constraint, db)
        mirrored = db.apply_delta(Delta(inserted={"E": [(b, a) for (a, b) in db.edges]}))
        assert backend.evaluate(constraint, mirrored)
        assert backend.delta_hits >= 1
