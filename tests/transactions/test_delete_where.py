"""``DeleteWhere`` against the interpreter, and the work a point delete does.

The reference is the statement's meaning as the interpreter states it: a row
of ``R`` is deleted iff ``Model.check(condition, dict(zip(variables, row)))``
holds, quantifiers ranging over the active domain the transaction started
on.  ``zip`` fixes the corner cases: variables past the arity never bind,
columns past the variable list are unconstrained, and a repeated variable
takes the value of its last occurrence.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.db import Database
from repro.db.delta import RowSet
from repro.db.schema import Schema
from repro.engine import CompiledBackend, using_backend
from repro.logic import parse
from repro.logic.evaluation import Model
from repro.logic.syntax import Exists
from repro.transactions import DeleteWhere, FOProgram, InsertTuple

from strategies import formulas, maybe_seed

TERNARY = Schema.of(R=3, S=1)

#: bound variable lists over a binary relation: in order, swapped, shorter
#: than the arity, repeated, longer than the arity
GRAPH_VARIABLES = (("x", "y"), ("y", "x"), ("x",), ("x", "x"), ("y", "y"), ("x", "y", "z"))

#: never in a generated active domain; 7 and "ghost" also occur in conditions
FRESH = (7, "ghost", 100)

TERNARY_CONDITIONS = (
    "x = z",
    "exists w . R(x, w, z)",
    "R(y, x, z) | S(x)",
    "x = 1 & y = 2 & z = 3",
    "forall w . (S(w) -> ~R(w, y, z))",
    "~S(z) & exists u . exists v . R(u, v, x)",
)


def _close_outside(condition, variables):
    """Bind existentially every free variable of ``condition`` that no column binds."""
    for name in sorted(condition.free_variables() - set(variables)):
        condition = Exists(name, condition)
    return condition


def _reference(db, relation, inserted, variables, condition):
    """Insert ``inserted``, then delete the rows the interpreter picks, row by row."""
    model_domain = db.active_domain
    for row in inserted:
        db = db.insert(relation, row)
    model = Model(db, domain=model_domain)
    doomed = {
        row
        for row in db.relation(relation)
        if model.check(condition, dict(zip(variables, row)))
    }
    return db.delete(relation, *doomed)


def _fresh_rows(arity):
    """Zero to two rows carrying a fresh constant at a drawn column."""
    row = st.tuples(
        st.sampled_from(FRESH), st.integers(0, arity - 1), st.lists(
            st.integers(0, 4), min_size=arity, max_size=arity
        )
    ).map(lambda drawn: tuple(
        drawn[0] if position == drawn[1] else value
        for position, value in enumerate(drawn[2])
    ))
    return st.lists(row, max_size=2)


def _assert_matches_reference(db, relation, inserted, variables, condition, schema):
    statements = [InsertTuple(relation, *row) for row in inserted]
    statements.append(DeleteWhere(relation, variables, condition))
    program = FOProgram(statements, schema=schema)
    expected = _reference(db, relation, inserted, variables, condition)
    assert program.apply(db) == expected


@maybe_seed
@given(
    edges=st.frozensets(
        st.tuples(st.integers(0, 11), st.integers(0, 11)), min_size=64, max_size=80
    ),
    variables=st.sampled_from(GRAPH_VARIABLES),
    condition=formulas(counting=False, max_leaves=6),
    inserted=_fresh_rows(2),
)
def test_graph_delete_matches_interpreter(edges, variables, condition, inserted):
    db = Database.graph(edges)
    condition = _close_outside(condition, variables[:2])
    _assert_matches_reference(db, "E", inserted, variables, condition, db.schema)


@maybe_seed
@given(
    rows=st.frozensets(
        st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
        min_size=64, max_size=80,
    ),
    marked=st.frozensets(st.integers(0, 5).map(lambda v: (v,)), max_size=4),
    variables=st.sampled_from((("x", "y", "z"), ("z", "y", "x"), ("x", "z"), ("z", "y", "z"))),
    text=st.sampled_from(TERNARY_CONDITIONS),
    inserted=_fresh_rows(3),
)
def test_ternary_delete_matches_interpreter(rows, marked, variables, text, inserted):
    db = Database(TERNARY, {"R": rows, "S": marked})
    condition = _close_outside(parse(text), variables)
    _assert_matches_reference(db, "R", inserted, variables, condition, TERNARY)


class TestBindingCornerCases:
    def test_repeated_variable_takes_its_last_column(self):
        db = Database.graph([(1, 2), (2, 1), (2, 2), (3, 3)])
        program = FOProgram([DeleteWhere("E", ("x", "x"), parse("x = 2"))])
        assert program.apply(db) == Database.graph([(2, 1), (3, 3)])

    def test_short_variable_list_leaves_later_columns_free(self):
        db = Database.graph([(1, 2), (1, 3), (2, 1)])
        program = FOProgram([DeleteWhere("E", ("x",), parse("x = 1"))])
        assert program.apply(db) == Database.graph([(2, 1)])

    def test_fresh_constant_rows_are_decided_by_the_interpreter(self):
        db = Database.graph([(1, 2), (2, 3), (3, 2)])
        program = FOProgram([
            InsertTuple("E", 2, 9),
            InsertTuple("E", 9, 2),
            DeleteWhere("E", ("x", "y"), parse("E(y, x) & ~(x = 3)")),
        ])
        # E(y, x) reads the current E: both rows carrying the inserted 9 have
        # their converse, and so does (2, 3); (3, 2) is spared by x = 3
        assert program.apply(db) == Database.graph([(1, 2), (3, 2)])


def _edges(count):
    """``count`` distinct edges over ``count // 4`` nodes, deterministic."""
    nodes = count // 4
    return [(i % nodes, (i * 7 + i // nodes + 1) % nodes) for i in range(count)]


def _rows_iterated(monkeypatch):
    """Count every row any :class:`RowSet` yields to an iteration."""
    seen = [0]
    iterate = RowSet.__iter__

    def counting(self):
        for row in iterate(self):
            seen[0] += 1
            yield row

    monkeypatch.setattr(RowSet, "__iter__", counting)
    return seen


def test_point_delete_does_not_iterate_the_relation(monkeypatch):
    """A constant-bound delete costs the same rows at 2.4k and at 19.2k."""
    touched = {}
    with using_backend(CompiledBackend()):
        for size in (2_400, 19_200):
            edges = _edges(size)
            db = Database.graph(edges)
            assert len(db.relation("E")) == size

            def point_delete(edge):
                condition = parse(f"x = {edge[0]} & y = {edge[1]}")
                return FOProgram([DeleteWhere("E", ("x", "y"), condition)]).apply(db)

            point_delete(edges[1])  # prepares the plan and the index
            with monkeypatch.context() as patch:
                seen = _rows_iterated(patch)
                post = point_delete(edges[size // 2])
            assert edges[size // 2] not in post.relation("E")
            assert len(post.relation("E")) == size - 1
            touched[size] = seen[0]
    assert touched[2_400] == touched[19_200]
    assert touched[19_200] < 100
