"""Regression tests for Delta algebra edge cases and Store provenance routing.

These pin down behaviours the store and the transaction service lean on: composing a delta with its inverse is the identity, cancelling
writes normalize away, ``Delta.between`` still answers across skip-link
boundaries once transient intermediates are gone, and the store's
``apply_database`` fast path degrades to a full diff (never a wrong answer)
when provenance cannot reach the target — e.g. after the cached snapshot was
rebuilt or the pinned ancestor fell out of the chain.
"""

from __future__ import annotations

import gc

from hypothesis import given

from repro.db import Database, Delta, GRAPH_SCHEMA, Store, chain, random_graph

from strategies import graph_deltas, graphs, maybe_seed


class TestComposeInverse:
    @maybe_seed
    @given(db=graphs(), delta=graph_deltas())
    def test_compose_of_inverse_is_identity(self, db, delta):
        effective = delta.normalized(db)
        roundtrip = effective.then(effective.inverse())
        assert roundtrip.is_empty()
        assert db.apply_delta(effective).apply_delta(effective.inverse()) == db

    @maybe_seed
    @given(db=graphs(), delta=graph_deltas())
    def test_inverse_of_inverse_is_the_delta(self, db, delta):
        effective = delta.normalized(db)
        assert effective.inverse().inverse() == effective

    def test_insert_then_delete_of_same_row_normalizes_empty(self):
        insert = Delta.insertion("E", (0, 1))
        delete = Delta.deletion("E", (0, 1))
        assert insert.then(delete).is_empty()
        assert delete.then(insert).is_empty()

    def test_insert_then_delete_through_a_database_returns_self(self):
        db = chain(3)
        after = db.apply_delta(Delta.insertion("E", (7, 8))).apply_delta(
            Delta.deletion("E", (7, 8))
        )
        assert after == db

    def test_insert_then_delete_in_store_log_does_not_bump_version(self):
        store = Store(GRAPH_SCHEMA, chain(3))
        before = store.version
        store.begin()
        assert store.insert("E", (7, 8))
        assert store.delete("E", (7, 8))
        store.commit_unchecked()
        assert store.version == before


class TestBetweenAcrossSkipLinks:
    def test_between_survives_dead_intermediates_via_skip_links(self):
        base = random_graph(8, 0.3, seed=4)
        current = base
        applied = Delta()
        for step in range(12):
            delta = Delta.insertion("E", (step, 100 + step)).normalized(current)
            applied = applied.then(delta)
            current = current.apply_delta(delta)
        # keep only the endpoints: every intermediate becomes garbage
        gc.collect()
        recovered = Delta.between(base, current)
        assert recovered is not None, "skip links should bridge dead intermediates"
        assert recovered == applied
        assert base.apply_delta(recovered) == current

    def test_between_beyond_the_skip_cap_falls_back_cleanly(self):
        """A composed delta past _SKIP_DELTA_CAP re-anchors; ``between`` may
        then return ``None`` once intermediates die — the documented fallback
        is ``from_databases``, which must agree with the true difference."""
        cap = Database._SKIP_DELTA_CAP
        base = Database.graph([])
        current = base
        step = 0
        while step * 2 <= cap + 64:
            delta = Delta.insertion("E", (step, step + 1))
            current = current.apply_delta(delta)
            step += 1
        gc.collect()
        recovered = Delta.between(base, current)
        exact = Delta.from_databases(base, current)
        if recovered is not None:
            assert recovered == exact
        assert base.apply_delta(exact) == current

    def test_between_unrelated_databases_is_none(self):
        assert Delta.between(chain(3), chain(4)) is None


class TestStoreProvenanceRouting:
    def test_apply_database_from_stale_pin_falls_back_to_full_diff(self):
        store = Store(GRAPH_SCHEMA, chain(4))
        _version, stale = store.pin()
        # the store advances: the stale pin is no longer the snapshot head
        store.begin()
        store.insert("E", (0, 50))
        store.commit_unchecked()
        target = stale.apply_delta(Delta.insertion("E", (1, 60)))
        store.begin()
        store.apply_database(target)
        store.commit_unchecked()
        # full-diff semantics: the store now equals target exactly —
        # including the *removal* of the (0, 50) edge target never had
        assert store.committed_snapshot() == target

    def test_apply_database_after_snapshot_rebuild_routes_correctly(self):
        seed = Store(GRAPH_SCHEMA, chain(4))
        seed.begin()
        seed.insert("E", (0, 50))
        seed.commit_unchecked()
        # a fresh store over the same rows: its snapshot is rebuilt from the
        # committed data and shares no provenance with the old chain
        rebuilt = Store(GRAPH_SCHEMA)
        rebuilt.begin()
        rebuilt.apply_database(seed.committed_snapshot())
        rebuilt.commit_unchecked()
        evicted = rebuilt.committed_snapshot()
        assert evicted == seed.committed_snapshot()
        target = evicted.apply_delta(Delta.insertion("E", (2, 70)))
        rebuilt.begin()
        rebuilt.apply_database(target)
        rebuilt.commit_unchecked()
        assert rebuilt.committed_snapshot() == target

    def test_provenance_fast_path_still_used_when_available(self):
        store = Store(GRAPH_SCHEMA, chain(4))
        snapshot = store.committed_snapshot()
        target = snapshot.apply_delta(Delta.insertion("E", (1, 60)))
        store.begin()
        store.apply_database(target)
        # the provenance chain covers the target: exactly one logged write
        assert store.cardinality() == chain(4).cardinality() + 1
        store.commit_unchecked()
        assert store.committed_snapshot() == target
