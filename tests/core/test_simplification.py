"""Tests for precondition simplification under an invariant (concluding remarks)."""

from hypothesis import given, strategies as st

from repro.logic import parse
from repro.logic.syntax import TOP, bind_slots
from repro.logic.terms import Const, Param
from repro.core import (
    PrerelationSpec,
    equivalent_under,
    make_safe,
    preserves_on,
    weakest_precondition,
)
from repro.core.simplification import program_shape, shape_guard, slotted_program
from repro.service.workloads import NO_LOOPS
from repro.transactions import DeleteWhere, FOProgram, InsertTuple, InsertWhere
from repro.transactions.base import FunctionTransaction

from strategies import maybe_seed

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


#: bulk-delete conditions with holes for constants, which the draws repeat
_CONDITIONS = (
    "x = {0} & y = {1}",
    "x = {0} | E(y, {1}) | y = {0}",
    "exists z . E(x, z) & E(z, {1}) & ~(z = {0})",
    "E({1}, {0}) & x = y",
)


@st.composite
def shaped_programs(draw, constants=st.sampled_from((0, 1, 2, "a"))):
    """One to four inserts and bulk deletes over a few constants, which
    repeat within and across statements."""
    statements = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            statements.append(InsertTuple("E", draw(constants), draw(constants)))
        else:
            holes = [repr(draw(constants)) for _ in range(2)]
            condition = parse(draw(st.sampled_from(_CONDITIONS)).format(*holes))
            statements.append(DeleteWhere("E", ("x", "y"), condition))
    return FOProgram(statements)


def _renamed(program, mapping):
    """``program`` with each constant ``c`` replaced by ``mapping[c]``."""

    def rename(term):
        return Const(mapping[term.value]) if type(term) is Const else term

    return FOProgram([
        InsertTuple("E", *map(rename, statement.terms))
        if type(statement) is InsertTuple
        else DeleteWhere("E", statement.variables, statement.condition.map_terms(rename))
        for statement in program.statements
    ])


class TestProgramShape:
    def test_equal_constants_share_a_slot(self):
        key, values = program_shape(_link(3, 4))
        assert values == (3, 4)
        assert key[1:] == (("E", (0, 1)), ("E", (1, 0)))
        assert [statement.terms for statement in slotted_program(_link(3, 4)).statements] == [
            (Param(0), Param(1)),
            (Param(1), Param(0)),
        ]

    @maybe_seed
    @given(shaped_programs(), st.data())
    def test_the_flat_values_fill_the_slotted_program(self, program, data):
        """The values :func:`program_shape` lists, put in the slots of the
        :func:`slotted_program`, give the program back; and the program with
        its constants renamed (some perhaps merged) has the same flat key
        exactly when it has the same slotted program."""
        key, values = program_shape(program)
        assert len(set(values)) == len(values)
        slotted = slotted_program(program)
        for statement, original in zip(slotted.statements, program.statements):
            if type(statement) is InsertTuple:
                bound = tuple(values[term.index] for term in statement.terms)
                assert bound == tuple(term.value for term in original.terms)
            else:
                assert bind_slots(statement.condition, values) == original.condition
        slots = {
            term.index
            for statement in slotted.statements
            for term in (
                statement.terms
                if type(statement) is InsertTuple
                else statement.condition.constants()
            )
        }
        assert slots == set(range(len(values)))
        renamed = dict(zip(values, data.draw(
            st.lists(st.sampled_from((0, 1, 2, 3, "a", "b")), min_size=len(values),
                     max_size=len(values))
        )))
        other = _renamed(program, renamed)
        same_key = program_shape(other)[0] == key
        assert same_key == (slotted_program(other).statements == slotted.statements)
        if len(set(renamed.values())) == len(values):
            assert same_key and program_shape(other)[1] == tuple(renamed.values())

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
