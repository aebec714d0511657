"""Tests for prerelations and the Theorem 8 weakest-precondition algorithm."""

import pytest

from repro.db import Database, all_graphs, chain, cycle, diagonal_graph
from repro.logic import (
    AtomDefinition,
    Atom,
    Const,
    CountingExists,
    Func,
    Var,
    arithmetic_signature,
    evaluate,
    parse,
    successor_signature,
)
from repro.logic.builder import E
from repro.logic.syntax import BOTTOM
from repro.core import (
    PrerelationSpec,
    PrerelationTransaction,
    SemanticPrecondition,
    WpcCalculator,
    WpcError,
    check_wpc,
    find_wpc_counterexample,
    gamma_closure,
    weakest_precondition,
)
from repro.transactions import DeleteWhere, FOProgram, InsertTuple, InsertWhere, tc_transaction


CONSTRAINTS = [
    parse("forall x . ~E(x, x)"),
    parse("exists x y . E(x, y)"),
    parse("forall x y . E(x, y) -> E(y, x)"),
    parse("forall x . (exists y . E(x, y)) -> exists z . E(z, x)"),
    parse("exists x . forall y . ~E(y, x)"),
    parse("E(0, 1) | E(1, 0)"),
]


def symmetric_difference_spec():
    """E'(x, y) := E(x, y) xor E(y, x) — a non-trivial FO-definable transaction."""
    body = parse("(E(x, y) & ~E(y, x)) | (E(y, x) & ~E(x, y))")
    return PrerelationSpec.for_graph(body, name="xor-reverse")


class TestGammaClosure:
    def test_single_variable_gives_active_domain(self):
        db = chain(3)
        assert gamma_closure((Var("u"),), db) == db.active_domain

    def test_constants_added(self):
        db = chain(2)
        closure = gamma_closure((Var("u"), Const(99)), db)
        assert closure == db.active_domain | {99}

    def test_function_terms(self):
        db = Database.graph([(1, 2)])
        closure = gamma_closure(
            (Var("u"), Func("succ", Var("u"))), db, successor_signature()
        )
        assert closure == {1, 2, 3}

    def test_constant_on_empty_database(self):
        assert gamma_closure((Const(5),), Database.empty()) == {5}


class TestPrerelationSpec:
    def test_identity_spec(self, graphs_2):
        identity = PrerelationSpec.identity().as_transaction()
        for g in graphs_2:
            assert identity.apply(g) == g

    def test_validation_missing_relation(self):
        from repro.db.schema import Schema

        schema = Schema.of(E=2, P=1)
        with pytest.raises(Exception):
            PrerelationSpec(schema, (Var("u"),), {
                "E": AtomDefinition(("x", "y"), E("x", "y")),
            })

    def test_validation_arity_mismatch(self):
        with pytest.raises(Exception):
            PrerelationSpec.for_graph(parse("E(x, x)"), variables=("x",))

    def test_validation_unknown_interpreted_symbol(self):
        with pytest.raises(Exception):
            PrerelationSpec.for_graph(
                parse("even(x) & E(x, y)", predicates=["even"]),
            )

    def test_empty_gamma_rejected(self):
        with pytest.raises(Exception):
            PrerelationSpec.for_graph(E("x", "y"), gamma=())

    def test_tuple_will_be_in_matches_execution(self, graphs_2):
        spec = symmetric_difference_spec()
        transaction = spec.as_transaction()
        for g in graphs_2:
            post = transaction.apply(g)
            domain = sorted(spec.gamma_set(g), key=repr)
            for a in domain:
                for b in domain:
                    assert spec.tuple_will_be_in(g, "E", (a, b)) == ((a, b) in post.edges)

    def test_tuple_outside_gamma_is_never_in(self):
        spec = symmetric_difference_spec()
        assert not spec.tuple_will_be_in(chain(2), "E", (50, 51))

    def test_from_fo_program_roundtrip(self, graphs_2):
        program = FOProgram([InsertWhere("E", ("x", "y"), E("y", "x"))], name="sym")
        spec = PrerelationSpec.from_fo_program(program)
        transaction = spec.as_transaction()
        for g in graphs_2:
            assert transaction.apply(g) == program.apply(g)


class TestWpcCalculatorCorrectness:
    """The executable content of Theorem 8: D |= wpc(T, a)  iff  T(D) |= a."""

    @pytest.mark.parametrize("constraint", CONSTRAINTS, ids=[str(c)[:30] for c in CONSTRAINTS])
    def test_fo_definable_transaction(self, constraint, graphs_3):
        spec = symmetric_difference_spec()
        precondition = WpcCalculator(spec).wpc(constraint)
        witness = find_wpc_counterexample(
            spec.as_transaction(), constraint, precondition, graphs_3[:256]
        )
        assert witness is None, witness

    @pytest.mark.parametrize("constraint", CONSTRAINTS[:4], ids=[str(c)[:30] for c in CONSTRAINTS[:4]])
    def test_domain_extending_transaction(self, constraint, graphs_2):
        program = FOProgram([
            InsertTuple("E", 100, 101),
            InsertWhere("E", ("x", "y"), parse("E(y, x) & x != y")),
        ], name="insert-and-symmetrise")
        spec = PrerelationSpec.from_fo_program(program)
        precondition = WpcCalculator(spec).wpc(constraint)
        witness = find_wpc_counterexample(
            spec.as_transaction(), constraint, precondition, graphs_2
        )
        assert witness is None, witness

    @pytest.mark.parametrize(
        "program",
        [
            FOProgram([InsertTuple("E", 0, 1)], name="insert-0-1"),
            FOProgram([InsertTuple("E", 1, 1)], name="insert-1-1"),
            FOProgram([InsertTuple("E", 7, 8)], name="insert-7-8"),  # never active
            FOProgram(
                [DeleteWhere("E", ("x", "y"), parse("x = 0 & y = 1"))], name="delete-0-1"
            ),
            FOProgram([InsertWhere("E", ("x", "y"), parse("E(y, x)"))], name="symmetrise"),
            FOProgram([DeleteWhere("E", ("x", "y"), parse("x = y"))], name="prune"),
        ],
        ids=lambda program: program.name,
    )
    @pytest.mark.parametrize(
        "constraint",
        [parse("forall x . ~E(x, x)"), parse("exists x . forall y . E(x, y) -> x = y")],
        ids=["no-loops", "some-sink"],
    )
    def test_folded_wpc_agrees_with_the_theorem_8_output(self, program, constraint, graphs_3):
        # wpc() folds ground equalities and true/false through the mechanical
        # output; the family includes the empty graph, where a folding that
        # assumed a witness (exists x . true ~> true) would show
        calculator = WpcCalculator(PrerelationSpec.from_fo_program(program))
        folded, mechanical = calculator.wpc(constraint), calculator._transform(constraint)
        assert folded.size() <= mechanical.size()
        for graph in graphs_3:
            assert evaluate(folded, graph) == evaluate(mechanical, graph), graph
        assert check_wpc(program, constraint, folded, graphs_3)

    def test_insert_that_can_only_violate_folds_to_false(self):
        program = FOProgram([InsertTuple("E", 5, 5)], name="insert-5-5")
        calculator = WpcCalculator(PrerelationSpec.from_fo_program(program))
        assert calculator.wpc(parse("forall x . ~E(x, x)")) == BOTTOM

    def test_constraint_with_constants(self, graphs_2):
        spec = symmetric_difference_spec()
        constraint = parse("E(0, 1) & ~E(1, 0)")
        precondition = WpcCalculator(spec).wpc(constraint)
        assert check_wpc(spec.as_transaction(), constraint, precondition, graphs_2)

    def test_counting_quantifier_supported_without_domain_extension(self, graphs_3):
        spec = symmetric_difference_spec()
        constraint = CountingExists("x", 2, Atom("E", "x", "x"))
        precondition = WpcCalculator(spec).wpc(constraint)
        assert check_wpc(spec.as_transaction(), constraint, precondition, graphs_3[:128])

    def test_counting_quantifier_rejected_with_domain_extension(self):
        program = FOProgram([InsertTuple("E", 9, 9)])
        spec = PrerelationSpec.from_fo_program(program)
        with pytest.raises(WpcError):
            WpcCalculator(spec).wpc(CountingExists("x", 2, Atom("E", "x", "x")))

    def test_interpreted_signature_constraint(self, graphs_2):
        # the constraint uses an Omega' predicate the transaction knows nothing about
        spec = symmetric_difference_spec()
        constraint = parse("forall x . E(x, x) -> even(x)", predicates=["even"])
        precondition = WpcCalculator(spec).wpc(constraint)
        witness = find_wpc_counterexample(
            spec.as_transaction(), constraint, precondition, graphs_2,
            signature=arithmetic_signature(),
        )
        assert witness is None

    def test_guarded_transaction_preserves_constraint(self, graphs_3):
        spec = symmetric_difference_spec()
        constraint = parse("forall x . ~E(x, x)")
        guarded = WpcCalculator(spec).guarded_transaction(constraint)
        from repro.transactions import TransactionAbortedSignal

        for g in graphs_3[:128]:
            if not evaluate(constraint, g):
                continue
            try:
                result = guarded.apply(g)
            except TransactionAbortedSignal:
                continue
            assert evaluate(constraint, result)


class TestWpcFrontEnds:
    def test_weakest_precondition_accepts_program(self, graphs_2):
        program = FOProgram([DeleteWhere("E", ("x", "y"), parse("x = y"))], name="drop-loops")
        constraint = parse("forall x . ~E(x, x)")
        precondition = weakest_precondition(program, constraint)
        # dropping loops always establishes loop-freeness
        for g in graphs_2:
            assert evaluate(precondition, g)

    def test_weakest_precondition_rejects_arbitrary_transaction(self):
        with pytest.raises(WpcError):
            weakest_precondition(tc_transaction(), parse("forall x y . E(x, y)"))

    def test_wpc_requires_sentence(self):
        spec = PrerelationSpec.identity()
        with pytest.raises(WpcError):
            WpcCalculator(spec).wpc(parse("E(x, y)"))

    def test_wpc_rejects_unknown_relation(self):
        spec = PrerelationSpec.identity()
        with pytest.raises(WpcError):
            WpcCalculator(spec).wpc(parse("forall x . R(x)"))

    def test_wpc_rejects_semantic_sentences(self):
        from repro.logic import ParitySentence

        spec = PrerelationSpec.identity()
        with pytest.raises(WpcError):
            WpcCalculator(spec).wpc(ParitySentence(parse("E(x, x)")))

    def test_semantic_precondition_baseline(self, graphs_2):
        constraint = parse("forall x y . E(x, y)")
        oracle = SemanticPrecondition(tc_transaction(), constraint)
        for g in graphs_2:
            assert oracle.holds(g) == evaluate(constraint, tc_transaction().apply(g))

    def test_identity_wpc_is_equivalent_to_constraint(self, graphs_2):
        spec = PrerelationSpec.identity()
        constraint = parse("exists x . E(x, x)")
        precondition = WpcCalculator(spec).wpc(constraint)
        for g in graphs_2:
            assert evaluate(precondition, g) == evaluate(constraint, g)
