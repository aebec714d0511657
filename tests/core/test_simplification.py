"""Tests for precondition simplification under an invariant (concluding remarks)."""

from repro.logic import parse
from repro.logic.syntax import TOP
from repro.logic.terms import Param
from repro.core import (
    PrerelationSpec,
    equivalent_under,
    make_safe,
    preserves_on,
    weakest_precondition,
)
from repro.core.simplification import bind_slots, program_shape, shape_guard
from repro.service.workloads import NO_LOOPS
from repro.transactions import DeleteWhere, FOProgram, InsertTuple, InsertWhere
from repro.transactions.base import FunctionTransaction

#: the programs of the E13 maintenance workload's shapes, over constants in {0, 1, 2}
DROP_LOOPS = FOProgram([DeleteWhere("E", ("x", "y"), parse("x = y"))], name="drop-loops")
SYMMETRISE = FOProgram([InsertWhere("E", ("x", "y"), parse("E(y, x)"))], name="symmetrise")


def _link(a, b, name="link"):
    return FOProgram([InsertTuple("E", a, b), InsertTuple("E", b, a)], name=name)


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


class TestProgramShape:
    def test_equal_constants_share_a_slot(self):
        (_schema, statements), values = program_shape(_link(3, 4))
        assert values == (3, 4)
        assert [statement.terms for statement in statements] == [
            (Param(0), Param(1)),
            (Param(1), Param(0)),
        ]

    def test_the_name_is_not_part_of_the_shape(self):
        first, _ = program_shape(_link(3, 4, name="link-forward"))
        second, values = program_shape(_link(7, 8, name="add-pair"))
        assert first == second and values == (7, 8)

    def test_a_loop_is_a_shape_of_its_own(self):
        loop, values = program_shape(FOProgram([InsertTuple("E", 3, 3)]))
        edge, _ = program_shape(FOProgram([InsertTuple("E", 3, 4)]))
        assert loop != edge and values == (3,)

    def test_programs_outside_the_fragment_have_no_shape(self):
        assert program_shape(SYMMETRISE) is None
        assert program_shape(FunctionTransaction(lambda db: db, name="opaque")) is None


class TestShapeGuard:
    def test_drop_loops_guard_is_true(self):
        # deleting all loops establishes loop-freeness unconditionally
        assert shape_guard(DROP_LOOPS, NO_LOOPS) == ("derived", TOP, ())

    def test_a_shape_outside_the_derived_fragment_takes_the_slotted_wpc(self, graphs_3):
        constraint = parse("exists x . E(x, x)")      # not a denial: no derived guard
        for a, b in ((0, 1), (2, 0)):
            program = _link(a, b)
            source, slotted, values = shape_guard(program, constraint)
            assert (source, values) == ("wpc", (a, b))
            bound = bind_slots(slotted, values)
            precondition = weakest_precondition(program, constraint)
            assert equivalent_under(TOP, bound, precondition, graphs_3)

    def test_an_unshaped_guard_still_preserves_the_constraint(self, graphs_3):
        source, guard, values = shape_guard(SYMMETRISE, NO_LOOPS)
        assert (source, values) == ("wpc", ())
        assert bind_slots(guard, values) is guard
        spec = PrerelationSpec.from_fo_program(SYMMETRISE)
        guarded = make_safe(spec.as_transaction(), guard, on_abort="identity")
        assert preserves_on(guarded, NO_LOOPS, graphs_3[:256])

    def test_the_bound_guard_is_never_larger_than_the_wpc(self, graphs_3):
        programs = [
            FOProgram([InsertTuple("E", 0, 1)], name="add-edge"),
            FOProgram([InsertTuple("E", 2, 2)], name="add-loop"),
            _link(1, 2),
            DROP_LOOPS,
        ]
        for program in programs:
            _source, slotted, values = shape_guard(program, NO_LOOPS)
            bound = bind_slots(slotted, values)
            precondition = weakest_precondition(program, NO_LOOPS)
            assert bound.size() <= precondition.size()
            assert equivalent_under(NO_LOOPS, bound, precondition, graphs_3)
