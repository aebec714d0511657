"""Tests for the transactional storage engine."""

import pytest

from repro.db import (
    Database,
    GRAPH_SCHEMA,
    MemoryEngine,
    Schema,
    Store,
    StorageError,
)


@pytest.fixture
def store():
    return Store(GRAPH_SCHEMA, Database.graph([(1, 2), (2, 3)]))


class TestBasics:
    def test_snapshot_matches_initial(self, store):
        assert store.snapshot() == Database.graph([(1, 2), (2, 3)])
        assert store.cardinality("E") == 2

    def test_schema_mismatch_rejected(self):
        other = Database(Schema.of(R=1), {"R": [(1,)]})
        with pytest.raises(StorageError):
            Store(GRAPH_SCHEMA, other)

    def test_writes_require_transaction(self, store):
        with pytest.raises(StorageError):
            store.insert("E", (9, 9))
        with pytest.raises(StorageError):
            store.delete("E", (1, 2))
        with pytest.raises(StorageError):
            store.commit_unchecked()

    def test_contains_and_scan(self, store):
        assert store.contains("E", (1, 2))
        assert set(store.scan("E")) == {(1, 2), (2, 3)}


class TestReadYourOwnWrites:
    """Reads during an open transaction must see the open write log."""

    def test_scan_and_contains_see_open_writes(self, store):
        store.begin()
        store.insert("E", (3, 4))
        store.delete("E", (1, 2))
        assert store.contains("E", (3, 4))
        assert not store.contains("E", (1, 2))
        assert set(store.scan("E")) == {(2, 3), (3, 4)}
        assert store.cardinality("E") == 2
        store.rollback()
        # after rollback the committed state is untouched
        assert set(store.scan("E")) == {(1, 2), (2, 3)}

    def test_snapshot_is_tentative_inside_transaction(self, store):
        store.begin()
        store.insert("E", (3, 4))
        assert store.snapshot() == Database.graph([(1, 2), (2, 3), (3, 4)])
        store.rollback()
        assert store.snapshot() == Database.graph([(1, 2), (2, 3)])

    def test_committed_snapshot_never_sees_open_log(self, store):
        store.begin()
        store.insert("E", (3, 4))
        assert store.committed_snapshot() == Database.graph([(1, 2), (2, 3)])
        store.commit_unchecked()
        assert store.committed_snapshot() == Database.graph([(1, 2), (2, 3), (3, 4)])

    def test_reinsert_of_own_delete_folds(self, store):
        store.begin()
        store.delete("E", (1, 2))
        assert not store.contains("E", (1, 2))
        store.insert("E", (1, 2))
        assert store.contains("E", (1, 2))
        store.commit_unchecked()
        assert store.snapshot() == Database.graph([(1, 2), (2, 3)])


class TestVersionPinning:
    def test_version_advances_per_effective_commit(self, store):
        v0 = store.version
        store.begin(); store.insert("E", (3, 4)); store.commit_unchecked()
        assert store.version == v0 + 1
        store.begin(); store.commit_unchecked()          # empty transaction
        assert store.version == v0 + 1
        store.begin(); store.insert("E", (4, 5)); store.rollback()
        assert store.version == v0 + 1

    def test_cancelling_writes_do_not_advance_version(self, store):
        v0 = store.version
        store.begin()
        store.insert("E", (7, 8))
        store.delete("E", (7, 8))   # net effect: nothing
        store.commit_unchecked()
        assert store.version == v0
        assert store.snapshot() == Database.graph([(1, 2), (2, 3)])

    def test_pin_is_stable_while_writer_progresses(self, store):
        version, snapshot = store.pin()
        store.begin()
        store.insert("E", (9, 9))
        # the pinned snapshot is immutable and pre-transaction
        assert snapshot == Database.graph([(1, 2), (2, 3)])
        assert store.pin()[0] == version
        store.commit_unchecked()
        new_version, new_snapshot = store.pin()
        assert new_version == version + 1
        assert new_snapshot == Database.graph([(1, 2), (2, 3), (9, 9)])

    def test_pinned_snapshots_chain_provenance(self, store):
        _version, before = store.pin()
        store.begin(); store.insert("E", (5, 6)); store.commit_unchecked()
        _version, after = store.pin()
        link = after.provenance_step()
        assert link is not None and link[0] is before

    def test_store_without_initial_starts_empty_and_chains(self):
        store = Store(GRAPH_SCHEMA)
        first = store.committed_snapshot()
        assert first == Database.empty()
        store.begin(); store.insert("E", (1, 2)); store.commit_unchecked()
        second = store.committed_snapshot()
        assert second == Database.graph([(1, 2)])
        link = second.delta_base()
        assert link is not None and link[0] is first
        store.close()


class TestTransactions:
    def test_commit_applies_writes(self, store):
        store.begin()
        assert store.insert("E", (3, 4))
        assert store.delete("E", (1, 2))
        store.commit_unchecked()
        assert store.snapshot() == Database.graph([(2, 3), (3, 4)])
        assert store.stats.committed == 1

    def test_rollback_undoes_everything(self, store):
        before = store.snapshot()
        store.begin()
        store.insert("E", (3, 4))
        store.insert("E", (4, 5))
        store.delete("E", (1, 2))
        undone = store.rollback()
        assert undone == 3
        assert store.snapshot() == before
        assert store.stats.aborted == 1

    def test_noop_writes_not_logged(self, store):
        store.begin()
        assert not store.insert("E", (1, 2))      # already present
        assert not store.delete("E", (9, 9))      # never present
        assert store.rollback() == 0

    def test_nested_begin_rejected(self, store):
        store.begin()
        with pytest.raises(StorageError):
            store.begin()
        store.rollback()

    def test_apply_database(self, store):
        target = Database.graph([(7, 8)])
        store.begin()
        store.apply_database(target)
        store.commit_unchecked()
        assert store.snapshot() == target

    def test_commit_unchecked_checks_no_constraint(self, store):
        # constraints are enforced before the commit (admission, maintenance
        # policies); the store commits a loop as readily as an edge
        store.begin()
        store.insert("E", (9, 9))
        store.commit_unchecked()
        assert store.contains("E", (9, 9))
        assert (store.stats.committed, store.stats.aborted) == (1, 0)


class TestLifecycle:
    """close() and the context-manager protocol over the storage engine."""

    def test_default_engine_follows_environment(self, store):
        import os

        durable = os.environ.get("REPRO_DURABLE", "").strip().lower()
        expected = "wal" if durable in ("on", "1", "true", "yes") else "memory"
        assert store.engine.name == expected
        assert store.storage_stats()["engine"] == expected

    def test_close_is_idempotent_and_blocks_new_transactions(self, store):
        store.close()
        assert store.closed
        store.close()                      # second close is a no-op
        with pytest.raises(StorageError):
            store.begin()

    def test_closed_store_still_serves_reads(self, store):
        store.close()
        assert store.contains("E", (1, 2))
        assert set(store.scan("E")) == {(1, 2), (2, 3)}
        assert store.snapshot() == Database.graph([(1, 2), (2, 3)])

    def test_close_rolls_back_open_transaction(self, store):
        store.begin()
        store.insert("E", (9, 9))
        store.close()
        assert not store.in_transaction
        assert not store.contains("E", (9, 9))
        assert store.stats.aborted == 1

    def test_context_manager_closes(self):
        with Store(GRAPH_SCHEMA, Database.graph([(1, 2)])) as store:
            assert not store.closed
        assert store.closed

    def test_context_manager_closes_on_error(self):
        with pytest.raises(ValueError):
            with Store(GRAPH_SCHEMA) as store:
                raise ValueError("boom")
        assert store.closed

    def test_engine_sees_each_effective_commit_batch(self):
        engine = MemoryEngine()
        store = Store(GRAPH_SCHEMA, engine=engine)
        store.begin(); store.insert("E", (1, 2)); store.commit_unchecked()
        store.begin(); store.commit_unchecked()                      # empty: no batch
        store.begin(); store.insert("E", (3, 4)); store.rollback()
        store.begin(); store.insert("E", (5, 6)); store.commit_unchecked()
        assert engine.stats()["batches"] == 2
        store.close()

    def test_memory_engine_stats_surface_is_uniform(self):
        store = Store(GRAPH_SCHEMA, engine=MemoryEngine())
        stats = store.storage_stats()
        for key in ("wal_appends", "fsyncs", "checkpoints", "recovered_batches"):
            assert stats[key] == 0
        store.close()


class TestSuccessorPromotion:
    """``commit_unchecked(successor=...)``: promote only what proves itself."""

    @staticmethod
    def commit(store, successor=None):
        store.begin()
        store.insert("E", (3, 4))
        store.delete("E", (1, 2))
        if successor is None:
            store.commit_unchecked()
        else:
            store.commit_unchecked(successor=successor)

    @staticmethod
    def assert_snapshot_is_the_stores_rows(store):
        rows = frozenset(store.scan("E"))
        assert rows == frozenset({(2, 3), (3, 4)})
        assert store.pin()[1].relation("E") == rows

    def test_matching_successor_becomes_the_snapshot_without_patching(self, store):
        base = store.pin()[1]
        # two steps, as a two-request batch builds it; every step stays alive
        lineage = [base, base.insert("E", (3, 4))]
        lineage.append(lineage[-1].delete("E", (1, 2)))
        self.commit(store, lineage[-1])
        assert store.pin() == (1, lineage[-1])
        assert store.pin()[1] is lineage[-1]
        assert (store.stats.snapshot_promoted, store.stats.snapshot_repatched) == (1, 0)
        self.assert_snapshot_is_the_stores_rows(store)

    def test_without_successor_the_next_pin_repatches_as_before(self, store):
        base = store.pin()[1]
        self.commit(store)
        assert store.stats.snapshot_repatched == 0  # lazily, by the reader
        snapshot = store.pin()[1]
        assert snapshot.delta_base()[0] is base
        assert (store.stats.snapshot_promoted, store.stats.snapshot_repatched) == (0, 1)
        self.assert_snapshot_is_the_stores_rows(store)

    @pytest.mark.parametrize(
        "make_successor",
        [
            # provenance from the snapshot, but a different delta
            lambda base: base.insert("E", (3, 4)),
            lambda base: base.insert("E", (3, 4)).delete("E", (1, 2)).insert("E", (7, 8)),
            # the right contents with no provenance at all
            lambda base: Database.graph([(2, 3), (3, 4)]),
            # the right delta on top of a state that is not the snapshot
            lambda base: Database.graph(base.relation("E"))
            .insert("E", (3, 4)).delete("E", (1, 2)),
        ],
        ids=["partial", "extra-row", "unrelated", "foreign-base"],
    )
    def test_unproven_successor_is_refused(self, store, make_successor):
        successor = make_successor(store.pin()[1])
        self.commit(store, successor)
        assert store.pin()[1] is not successor
        assert (store.stats.snapshot_promoted, store.stats.snapshot_repatched) == (0, 1)
        self.assert_snapshot_is_the_stores_rows(store)

    def test_stale_successor_from_an_older_snapshot_is_refused(self, store):
        stale = store.pin()[1].insert("E", (3, 4)).delete("E", (1, 2))
        store.begin(); store.insert("E", (8, 9)); store.commit_unchecked()
        store.pin()
        store.begin(); store.delete("E", (8, 9)); store.commit_unchecked()
        store.pin()
        self.commit(store, stale)
        assert store.pin()[1] is not stale
        assert store.stats.snapshot_promoted == 0
        self.assert_snapshot_is_the_stores_rows(store)

    def test_k_row_transaction_never_materialises_the_relation(self, store, monkeypatch):
        # insert/delete decide effectiveness by probing the overlay and the
        # committed set; only scan/cardinality may build the overlaid copy
        monkeypatch.setattr(
            Store, "_effective_rows",
            lambda self, relation: pytest.fail("materialised the relation"),
        )
        store.begin()
        for row in [(5, 6), (6, 7), (5, 6), (1, 2)]:
            store.insert("E", row)
        assert store.delete("E", (6, 7)) and store.delete("E", (1, 2))
        assert not store.delete("E", (6, 7)) and not store.delete("E", (9, 9))
        assert store.insert("E", (1, 2)) and not store.insert("E", (1, 2))
        store.commit_unchecked()
        assert store.pin()[1].relation("E") == {(1, 2), (2, 3), (5, 6)}
