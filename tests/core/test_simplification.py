"""Tests for precondition simplification under an invariant (concluding remarks)."""

import pytest

from repro.db import all_graphs, chain, cycle
from repro.logic import evaluate, parse, TOP
from repro.core import (
    BoundedSimplifier,
    PrerelationSpec,
    SimplificationResult,
    WpcCalculator,
    equivalent_under,
    make_safe,
    preserves_on,
)
from repro.transactions import DeleteWhere, FOProgram, InsertWhere


class TestEquivalentUnder:
    def test_unconditional_equivalence(self, graphs_2):
        assert equivalent_under(parse("true"), parse("E(0, 1)"), parse("E(0, 1)"), graphs_2)

    def test_equivalence_only_under_invariant(self, graphs_2):
        # under "the graph is loop-free", the two sentences agree
        invariant = parse("forall x . ~E(x, x)")
        left = parse("exists x y . E(x, y)")
        right = parse("exists x y . E(x, y) & x != y")
        assert equivalent_under(invariant, left, right, graphs_2)
        assert not equivalent_under(parse("true"), left, right, graphs_2)


class TestBoundedSimplifier:
    def test_drop_loops_precondition_simplifies_to_true(self, graphs_3):
        # deleting all loops establishes loop-freeness unconditionally, so
        # under the invariant the guard collapses to `true`
        program = FOProgram([DeleteWhere("E", ("x", "y"), parse("x = y"))], name="drop-loops")
        constraint = parse("forall x . ~E(x, x)")
        spec = PrerelationSpec.from_fo_program(program)
        calculator = WpcCalculator(spec)
        # the folded precondition is already `true` (the guard mentions
        # `x = x`); the simplifier is exercised on the mechanical output
        assert calculator.wpc(constraint) == TOP
        precondition = calculator._transform(constraint)
        simplifier = BoundedSimplifier(databases=graphs_3[:256])
        result = simplifier.simplify(constraint, precondition)
        assert result.verified
        assert result.simplified == TOP
        assert result.size_reduction > 0.9

    def test_simplified_guard_still_preserves_constraint(self, graphs_3):
        program = FOProgram(
            [InsertWhere("E", ("x", "y"), parse("E(y, x)"))], name="symmetrise"
        )
        constraint = parse("forall x . ~E(x, x)")
        spec = PrerelationSpec.from_fo_program(program)
        precondition = WpcCalculator(spec).wpc(constraint)
        sample = graphs_3[:256]
        result = BoundedSimplifier(databases=sample).simplify(constraint, precondition)
        assert result.verified
        guarded = make_safe(spec.as_transaction(), result.simplified, on_abort="identity")
        assert preserves_on(guarded, constraint, sample)

    def test_never_larger_than_original(self, graphs_2):
        constraint = parse("exists x y . E(x, y)")
        precondition = parse("(exists x y . E(x, y)) & (exists x y . E(x, y) | E(y, x))")
        result = BoundedSimplifier(databases=graphs_2).simplify(constraint, precondition)
        assert result.simplified.size() <= precondition.size()
        assert result.verified

    def test_result_repr_and_reduction(self, graphs_2):
        result = BoundedSimplifier(databases=graphs_2).simplify(parse("true"), parse("true"))
        assert isinstance(result, SimplificationResult)
        assert result.size_reduction == 0.0
        assert "verified=True" in repr(result)

    def test_default_family_is_bounded_exhaustive(self):
        simplifier = BoundedSimplifier(max_nodes=2)
        assert len(simplifier.databases) == 16
