"""Tests for the Preserve problem, the Proposition 1 reduction, guarded
transactions and the integrity-maintenance engine."""

import random

import pytest

from repro.db import Database, GRAPH_SCHEMA, Store, chain, cycle
from repro.logic import evaluate, parse
from repro.logic.builder import has_some_edge, psi_cc
from repro.core import (
    ChainTransaction,
    ChainWpcCalculator,
    Constraint,
    IntegrityMaintainer,
    PrerelationSpec,
    PreservationReduction,
    RuntimeCheckPolicy,
    SemanticPrecondition,
    StaticPreconditionPolicy,
    UncheckedPolicy,
    WpcCalculator,
    find_preservation_counterexample,
    make_safe,
    preserves_bounded,
    preserves_on,
    preserves_randomized,
)
from repro.transactions import (
    DeleteWhere,
    FOProgram,
    FunctionTransaction,
    InsertTuple,
    InsertWhere,
    complete_graph_transaction,
    diagonal_transaction,
    tc_transaction,
)


class TestPreserve:
    def test_identity_preserves_everything(self, graphs_2):
        from repro.transactions import IdentityTransaction

        assert preserves_on(IdentityTransaction(), parse("exists x . E(x, x)"), graphs_2)

    def test_tc_preserves_loop_existence_but_not_loop_freeness(self, graphs_3):
        sample = graphs_3[:200]
        assert preserves_on(tc_transaction(), parse("exists x . E(x, x)"), sample)
        witness = find_preservation_counterexample(
            tc_transaction(), parse("forall x . ~E(x, x)"), [cycle(3)]
        )
        assert witness is not None

    def test_preserves_bounded(self):
        ok, witness = preserves_bounded(
            diagonal_transaction(), parse("exists x . E(x, x)"), max_nodes=2
        )
        # the diagonal always has loops once the input is non-empty, and an
        # input satisfying the constraint is non-empty
        assert ok and witness is None
        ok, witness = preserves_bounded(
            complete_graph_transaction(), parse("exists x . E(x, x)"), max_nodes=2
        )
        assert not ok and witness is not None

    def test_preserves_bounded_up_to_isomorphism(self):
        ok, _ = preserves_bounded(
            diagonal_transaction(), parse("exists x . E(x, x)"),
            max_nodes=3, up_to_isomorphism=True,
        )
        assert ok

    def test_preserves_randomized(self):
        ok, witness = preserves_randomized(
            tc_transaction(), parse("forall x . ~E(x, x)"), samples=60, max_nodes=6, seed=3
        )
        assert not ok and witness is not None

    def test_guarded_transaction_always_preserves(self, graphs_3):
        constraint = parse("forall x . ~E(x, x)")
        spec = PrerelationSpec.from_fo_program(
            FOProgram([InsertWhere("E", ("x", "y"), parse("E(y, x)"))], name="sym")
        )
        precondition = WpcCalculator(spec).wpc(constraint)
        safe = make_safe(spec.as_transaction(), precondition, on_abort="identity")
        assert preserves_on(safe, constraint, graphs_3[:200])


class TestProposition1Reduction:
    """The executable content of the undecidability proof (Fact A)."""

    @pytest.mark.parametrize(
        "beta, finitely_valid_on_small",
        [
            (parse("forall x y . E(x, y) -> E(x, y)"), True),     # a tautology
            (parse("exists x . E(x, x)"), False),                  # fails on loop-free graphs
            (parse("forall x y . E(x, y) -> E(y, x)"), False),     # symmetry is not valid
        ],
    )
    def test_reduction_agrees_with_validity(self, beta, finitely_valid_on_small, graphs_3):
        reduction = PreservationReduction(beta)
        family = graphs_3[:256]
        assert reduction.beta_valid_on(family) == finitely_valid_on_small
        assert reduction.reduction_agrees_on(family)

    def test_reduction_instances_shape(self):
        reduction = PreservationReduction(parse("exists x . E(x, x)"))
        instances = reduction.instances()
        assert len(instances) == 2
        names = {t.name for t, _ in instances}
        assert names == {"T1-diagonal", "T2-complete"}

    def test_reduction_requires_sentence(self):
        with pytest.raises(ValueError):
            PreservationReduction(parse("E(x, y)"))


def account_schema_store(initial_edges):
    return Store(GRAPH_SCHEMA, Database.graph(initial_edges))


class TestMaintenancePolicies:
    def setup_method(self):
        self.constraint_formula = parse("forall x . ~E(x, x)")
        # transaction: symmetrise the graph (never creates loops)
        self.safe_program = FOProgram(
            [InsertWhere("E", ("x", "y"), parse("E(y, x)"))], name="symmetrise"
        )
        # transaction: add a loop on node 0 when present (violates the constraint)
        self.unsafe_transaction = FunctionTransaction(
            lambda db: db.insert("E", (0, 0)) if 0 in db.active_domain else db,
            name="add-loop",
        )
        spec = PrerelationSpec.from_fo_program(self.safe_program)
        wpc = WpcCalculator(spec).wpc(self.constraint_formula)
        self.constraint = Constraint(
            "loop-free",
            self.constraint_formula,
            preconditions={
                self.safe_program.name: wpc,
                self.unsafe_transaction.name: SemanticPrecondition(
                    self.unsafe_transaction, self.constraint_formula
                ),
            },
        )

    def workload(self):
        return [self.safe_program, self.unsafe_transaction, self.safe_program]

    def test_runtime_policy_rolls_back_violations(self):
        store = account_schema_store([(0, 1), (1, 2)])
        maintainer = IntegrityMaintainer(store, [self.constraint], RuntimeCheckPolicy())
        report = maintainer.run(self.workload())
        assert report.committed == 2
        assert report.rolled_back == 1
        assert maintainer.invariant_holds()

    def test_static_policy_rejects_without_rollback(self):
        store = account_schema_store([(0, 1), (1, 2)])
        maintainer = IntegrityMaintainer(store, [self.constraint], StaticPreconditionPolicy())
        report = maintainer.run(self.workload())
        assert report.committed == 2
        assert report.rejected_statically == 1
        assert report.rolled_back == 0
        assert maintainer.invariant_holds()

    def test_unchecked_policy_lets_violations_through(self):
        store = account_schema_store([(0, 1), (1, 2)])
        maintainer = IntegrityMaintainer(store, [self.constraint], UncheckedPolicy())
        report = maintainer.run(self.workload())
        assert report.committed == 3
        assert report.violations_missed >= 1
        assert not maintainer.invariant_holds()

    def test_policies_agree_on_final_state_modulo_violations(self):
        runtime_store = account_schema_store([(0, 1), (1, 2)])
        static_store = account_schema_store([(0, 1), (1, 2)])
        IntegrityMaintainer(runtime_store, [self.constraint], RuntimeCheckPolicy()).run(self.workload())
        IntegrityMaintainer(static_store, [self.constraint], StaticPreconditionPolicy()).run(self.workload())
        assert runtime_store.snapshot() == static_store.snapshot()

    def test_report_summary_readable(self):
        store = account_schema_store([(0, 1)])
        maintainer = IntegrityMaintainer(store, [self.constraint], RuntimeCheckPolicy())
        report = maintainer.run([self.safe_program])
        text = report.summary()
        assert "runtime-check" in text and "committed" in text

    def test_static_policy_falls_back_to_runtime_without_precondition(self):
        store = account_schema_store([(0, 1)])
        bare_constraint = Constraint("loop-free", self.constraint_formula)
        maintainer = IntegrityMaintainer(store, [bare_constraint], StaticPreconditionPolicy())
        report = maintainer.run([self.unsafe_transaction])
        assert report.rolled_back == 1
        assert report.precondition_evaluations == 0


class TestPoliciesOnTheE13Mix:
    """Experiment E13's stream, ``symmetrise`` included: both safe policies agree."""

    NO_LOOPS = parse("forall x . ~E(x, x)")

    def workload(self, length, accounts, seed):
        rng = random.Random(seed)
        programs = []
        for _ in range(length):
            kind = rng.choice(["symmetrise", "insert", "insert-loop", "prune"])
            a, b = rng.randrange(accounts), rng.randrange(accounts)
            if kind == "symmetrise":
                programs.append(FOProgram(
                    [InsertWhere("E", ("x", "y"), parse("E(y, x)"))], name="symmetrise"))
            elif kind == "insert":
                programs.append(FOProgram([InsertTuple("E", a, b)], name=f"insert-{a}-{b}"))
            elif kind == "insert-loop":
                programs.append(FOProgram([InsertTuple("E", a, a)], name=f"loop-{a}"))
            else:
                programs.append(FOProgram(
                    [DeleteWhere("E", ("x", "y"), parse("x = y"))], name="prune"))
        return programs

    @pytest.mark.parametrize("seed", [7, 9, 13])
    def test_static_and_runtime_policies_end_in_the_same_state(self, seed):
        programs = self.workload(40, 12, seed)
        preconditions = {
            program.name: WpcCalculator(
                PrerelationSpec.from_fo_program(program)
            ).wpc(self.NO_LOOPS)
            for program in programs
        }
        constraint = Constraint("no-loops", self.NO_LOOPS, preconditions)
        start = [(n, (n * 5 + 1) % 12) for n in range(12) if n != (n * 5 + 1) % 12]
        reports, finals = {}, {}
        for policy in (RuntimeCheckPolicy(), StaticPreconditionPolicy()):
            store = account_schema_store(start)
            maintainer = IntegrityMaintainer(store, [constraint], policy)
            reports[policy.name] = maintainer.run(programs)
            assert maintainer.invariant_holds()
            finals[policy.name] = store.snapshot()
        assert finals["static-precondition"] == finals["runtime-check"]
        static, runtime = reports["static-precondition"], reports["runtime-check"]
        assert static.rolled_back == 0
        assert static.rejected_statically == runtime.rolled_back > 0
        assert static.committed == runtime.committed
