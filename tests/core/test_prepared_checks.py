"""The prepared door: every yes/no check of the commit path, run with its values.

``holds_prepared(formula, db, values)`` answers a closed sentence whose
:class:`Param` slots read ``values`` — a touched-tuple instance, a derived
guard, a registered precondition — from the sentence's own plan, streamed to
the first witness, keeping no engine state.  These tests hold it to the
interpreter on the sentence with the values put in (drawn constraints with
constants, rows with repeated values, multi-row inserts, drawn programs),
and count what it leaves behind.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core import Constraint
from repro.core.simplification import (
    _slotted_instances,
    denial_form,
    derived_guard,
    holds_after_update,
)
from repro.db import Database, Delta
from repro.engine import CompiledBackend, NaiveBackend, using_backend
from repro.engine import backend as backend_module
from repro.engine.compile import CompileError
from repro.logic import parse
from repro.logic.syntax import bind_slots
from repro.service.workloads import NO_TRIANGLES, _insert_edge_program, forward_graph
from repro.transactions import FOProgram, InsertTuple

from strategies import maybe_seed
from test_derived_guards import fragment_programs
from test_touched_tuple_checks import SCHEMA, _rows, databases, denial_constraints

NAIVE = NaiveBackend()


def _backends():
    """Compiled backends, optimizer on and off."""
    return [CompiledBackend(optimizer=mode) for mode in ("on", "off")]


def _pattern(row):
    """A row's equality pattern and its distinct values, as ``holds_after_update`` takes them."""
    slots = {}
    pattern = tuple(slots.setdefault(value, len(slots)) for value in row)
    return pattern, tuple(slots)


_inserts = st.lists(
    st.one_of(*(st.tuples(st.just(name), rows) for name, rows in _rows.items())),
    min_size=1, max_size=4,
)


class TestDifferential:
    @maybe_seed
    @given(denial_constraints(), _inserts, databases())
    def test_instances_at_inserted_rows(self, constraint, inserts, db):
        """Each slotted instance at each inserted row — values that repeat
        within the row, values equal to the constraint's constants — with the
        row's values beside it."""
        form = denial_form(constraint)
        backends = _backends()
        for relation, row in inserts:
            pattern, values = _pattern(row)
            for instance in _slotted_instances(form, relation, pattern):
                expected = NAIVE.evaluate(bind_slots(instance, values), db)
                assert NAIVE.holds_prepared(instance, db, values) == expected
                for backend in backends:
                    assert backend.holds_prepared(instance, db, values) == expected

    @maybe_seed
    @given(denial_constraints(), _inserts, databases())
    def test_a_multi_row_insert_is_checked_exactly(self, constraint, inserts, pre):
        """From a pre-state satisfying the constraint, ``holds_after_update``
        at a multi-row insert is the constraint on the post-state."""
        if not NAIVE.evaluate(constraint, pre):
            return
        inserted = {}
        for relation, row in inserts:
            inserted.setdefault(relation, set()).add(row)
        delta = Delta(inserted=inserted).normalized(pre)
        post = pre.apply_delta(delta)
        for backend in _backends() + [NAIVE]:
            with using_backend(backend):
                holds, full = holds_after_update(Constraint("c", constraint), post, delta)
            assert not full
            assert holds == NAIVE.evaluate(constraint, post)

    @maybe_seed
    @given(denial_constraints(), fragment_programs(), databases())
    def test_derived_guards(self, constraint, program, db):
        derived = derived_guard(program, constraint)
        if derived is None:
            return
        guard, values = derived
        expected = NAIVE.evaluate(bind_slots(guard, values), db)
        for backend in _backends():
            assert backend.holds_prepared(guard, db, values) == expected

    @pytest.mark.parametrize(
        "constraint",
        [
            # a slot of the row meets a constant of the constraint; the
            # constant's plan would take slot 0 if the sentence went by shape
            "forall x . forall z . ~(T(x, 0, x) & T(x, x, z))",
            "forall x . ~E(x, 0)",
        ],
    )
    def test_constants_of_the_constraint_keep_their_place(self, constraint):
        constraint = parse(constraint)
        programs = [
            FOProgram([InsertTuple(relation, *row)], schema=SCHEMA)
            for relation, row in (
                ("T", (1, 0, 1)), ("T", (1, 1, 2)), ("T", (0, 0, 0)), ("E", (4, 0)),
                ("E", (4, 5)),
            )
        ]
        states = [
            Database(SCHEMA, {"E": (), "T": ()}),
            Database(SCHEMA, {"E": {(2, 3)}, "T": {(1, 1, 2), (3, 0, 3)}}),
            Database(SCHEMA, {"E": {(6, 7)}, "T": {(1, 0, 1)}}),
        ]
        for program in programs:
            guard, values = derived_guard(program, constraint)
            for pre in states:
                if not NAIVE.evaluate(constraint, pre):
                    continue
                expected = NAIVE.evaluate(constraint, program.apply(pre))
                for backend in _backends():
                    assert backend.holds_prepared(guard, pre, values) == expected


# ---------------------------------------------------------------------------
# what a prepared check leaves behind
# ---------------------------------------------------------------------------

def test_a_prepared_check_keeps_no_engine_state():
    backend = CompiledBackend(optimizer="on")
    db = forward_graph(60, 3)
    guard, values = derived_guard(_insert_edge_program(3, 40), NO_TRIANGLES)
    assert backend.evaluate(NO_TRIANGLES, db)  # a memo entry to keep
    before = backend.cache_stats()
    for state in (db, db, db.insert("E", (40, 3))):
        assert backend.holds_prepared(guard, state, values) == NAIVE.evaluate(
            bind_slots(guard, values), state
        )
    after = backend.cache_stats()
    assert after["memo"] == before["memo"]
    assert after["prepared"] == before["prepared"] + 3
    assert after["streamed"] == before["streamed"]
    assert after["plans"] == before["plans"]  # compiled verbatim, not by shape


def test_a_sentence_the_compiler_rejects_is_evaluated_with_its_values(monkeypatch):
    def reject(formula):
        raise CompileError("rejected")

    monkeypatch.setattr(backend_module, "compile_sentence", reject)
    backend = CompiledBackend(optimizer="on")
    db = forward_graph(20, 2)
    guard, values = derived_guard(_insert_edge_program(3, 10), NO_TRIANGLES)
    expected = NAIVE.evaluate(bind_slots(guard, values), db)
    assert backend.holds_prepared(guard, db, values) == expected
    assert backend.holds_prepared(guard, db, values) == expected
    assert backend.cache_stats()["prepared"] == 0



# ---------------------------------------------------------------------------
# the backend a check runs on, and the touched-tuple path along a stream
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("known_good", [True, False], ids=["touched", "full"])
def test_holds_after_update_runs_on_the_backend_it_is_given(known_good):
    constraint = Constraint("no-triangles", NO_TRIANGLES)
    delta = Delta(inserted={"E": {(39, 0), (5, 5)}})
    post = forward_graph(40, 3).apply_delta(delta)
    own = CompiledBackend()
    with using_backend(CompiledBackend()) as global_backend:
        before = global_backend.cache_stats()
        holds, full = holds_after_update(
            constraint, post, delta if known_good else None, backend=own
        )
        after = global_backend.cache_stats()
    assert holds == NAIVE.evaluate(NO_TRIANGLES, post)
    assert full is not known_good
    assert after == before
    assert own.cache_stats()["prepared" if known_good else "streamed"] > 0


def test_a_stream_of_single_inserts_from_a_good_state_runs_no_full_check():
    # the maintenance claim: from a state known to satisfy the constraint,
    # each single-tuple insert is decided at the inserted row, never by
    # re-running the constraint over the database
    import random

    constraint = Constraint("no-triangles", NO_TRIANGLES)
    backend = CompiledBackend()
    rng = random.Random(3)
    state = forward_graph(20, 2, seed=4)
    verdicts = []
    while len(verdicts) < 30:
        edge = (rng.randrange(20), rng.randrange(20))
        if state.contains("E", edge):
            continue
        delta = Delta(inserted={"E": {edge}})
        candidate = state.apply_delta(delta)
        holds, full = holds_after_update(constraint, candidate, delta, backend=backend)
        assert not full
        assert holds == NAIVE.evaluate(NO_TRIANGLES, candidate), edge
        verdicts.append(holds)
        if holds:
            state = candidate
    assert True in verdicts and False in verdicts
    stats = backend.cache_stats()
    assert stats["streamed"] == 0 and stats["memo"] == 0
    assert stats["prepared"] >= len(verdicts)
