"""Conformance along update streams: the matrix agrees at every step.

A random database evolves through a random stream of deltas
(``apply_delta``, the fast path every functional update and store snapshot
takes); at each step every backend configuration must agree with the
oracle — this is what exercises the *patched* state the engine reads (row
sets, indexes and statistics carried from state to state) rather than
freshly built databases.
"""

from __future__ import annotations

from hypothesis import given

from repro.engine import NaiveBackend

from strategies import (
    backend_matrix,
    formulas,
    graphs,
    maybe_seed,
    update_streams,
)

ORACLE = NaiveBackend()
MATRIX = backend_matrix()


@maybe_seed
@given(formula=formulas(max_leaves=6), db=graphs(), stream=update_streams())
def test_stream_conformance(formula, db, stream):
    variables = sorted(formula.free_variables())
    current = db
    for step, delta in enumerate(stream):
        current = current.apply_delta(delta)
        expected = ORACLE.extension(formula, current, variables)
        for name, backend in MATRIX:
            got = backend.extension(formula, current, variables)
            assert got == expected, (
                f"[{name}] diverged at stream step {step} for {formula}: "
                f"{sorted(got, key=repr)[:5]} != {sorted(expected, key=repr)[:5]}"
            )


@maybe_seed
@given(db=graphs(), stream=update_streams(length=4))
def test_store_snapshot_stream_conformance(db, stream):
    """Store snapshots agree with the databases apply_delta derives step by step."""
    from repro.db import Store

    store = Store(db.schema, db)
    current = db
    for delta in stream:
        store.begin()
        store.apply_delta(delta)
        store.commit_unchecked()
        current = current.apply_delta(delta)
        assert store.committed_snapshot() == current
