"""MVCC snapshots: handles, read tracking, validation, the version window."""

import pytest

from repro.db import Database, Delta, GRAPH_SCHEMA, Store
from repro.engine import CompiledBackend
from repro.logic import parse
from repro.service import SnapshotManager, SnapshotTransaction, validate
from repro.transactions import FOProgram, InsertTuple

NO_LOOPS = parse("forall x . ~E(x, x)")


@pytest.fixture
def base():
    return Database.graph([(1, 2), (2, 3)])


def handle_on(db, version=0):
    return SnapshotTransaction(db, version)


class TestHandle:
    def test_read_your_own_writes(self, base):
        txn = handle_on(base)
        assert txn.insert("E", (3, 4))
        assert txn.delete("E", (1, 2))
        assert txn.contains("E", (3, 4))
        assert not txn.contains("E", (1, 2))
        assert txn.scan("E") == frozenset({(2, 3), (3, 4)})
        # the pinned snapshot itself is untouched
        assert base == Database.graph([(1, 2), (2, 3)])

    def test_delta_folds_cancelling_writes(self, base):
        txn = handle_on(base)
        txn.insert("E", (3, 4))
        txn.delete("E", (3, 4))
        txn.delete("E", (1, 2))
        txn.insert("E", (1, 2))
        assert txn.delta().is_empty()

    def test_ineffective_writes_not_in_delta(self, base):
        txn = handle_on(base)
        assert not txn.insert("E", (1, 2))      # already present
        assert not txn.delete("E", (9, 9))      # never present
        assert txn.delta().is_empty()

    def test_reads_are_tracked(self, base):
        txn = handle_on(base)
        txn.contains("E", (1, 2))
        txn.scan("E")
        assert txn.evaluate(NO_LOOPS)
        assert (1, 2) in txn.reads.rows["E"]
        assert "E" in txn.reads.scanned
        assert list(txn.reads.predicates.values()) == [True]

    def test_write_effectiveness_probe_is_a_read(self, base):
        txn = handle_on(base)
        txn.insert("E", (1, 2))   # no-op, but the probe must be recorded
        assert (1, 2) in txn.reads.rows["E"]

    def test_evaluate_sees_own_writes(self, base):
        txn = handle_on(base)
        assert txn.evaluate(NO_LOOPS)
        txn.insert("E", (5, 5))
        assert not txn.evaluate(NO_LOOPS)

    def test_apply_transaction_is_opaque(self, base):
        txn = handle_on(base)
        txn.apply(FOProgram([InsertTuple("E", 7, 8)], name="t"))
        assert txn.reads.opaque
        assert txn.delta() == Delta.insertion("E", (7, 8))


class TestValidate:
    def test_empty_foreign_never_conflicts(self, base):
        txn = handle_on(base)
        txn.scan("E")
        txn.insert("E", (5, 6))
        assert validate(txn.reads, txn.delta(), Delta(), base) is None

    def test_disjoint_writes_commute(self, base):
        txn = handle_on(base)
        txn.insert("E", (5, 6))
        foreign = Delta.insertion("E", (7, 8))
        assert validate(txn.reads, txn.delta(), foreign, base) is None

    def test_write_write_overlap_conflicts(self, base):
        txn = handle_on(base)
        txn.insert("E", (5, 6))
        foreign = Delta.insertion("E", (5, 6))
        reason = validate(txn.reads, txn.delta(), foreign, base)
        assert reason is not None

    def test_scan_conflicts_with_any_touch(self, base):
        txn = handle_on(base)
        txn.scan("E")
        foreign = Delta.insertion("E", (7, 8))
        assert validate(txn.reads, txn.delta(), foreign, base) is not None

    def test_row_probe_conflicts_only_on_that_row(self, base):
        txn = handle_on(base)
        txn.contains("E", (1, 2))
        assert validate(txn.reads, txn.delta(), Delta.deletion("E", (1, 2)), base)
        assert validate(txn.reads, txn.delta(), Delta.insertion("E", (8, 9)), base) is None

    def test_predicate_unchanged_passes(self, base):
        txn = handle_on(base)
        assert txn.evaluate(NO_LOOPS)
        foreign = Delta.insertion("E", (7, 8))  # no loop: predicate unchanged
        assert validate(txn.reads, txn.delta(), foreign, base) is None

    def test_predicate_flip_conflicts(self, base):
        txn = handle_on(base)
        assert txn.evaluate(NO_LOOPS)
        foreign = Delta.insertion("E", (7, 7))  # loop: predicate flips
        reason = validate(txn.reads, txn.delta(), foreign, base)
        assert reason is not None and "predicate" in reason

    def test_predicate_checked_with_own_writes_at_read_time(self, base):
        txn = handle_on(base)
        txn.insert("E", (4, 4))            # own loop first
        assert not txn.evaluate(NO_LOOPS)  # observed False through own write
        foreign = Delta.insertion("E", (7, 8))
        # foreign delta does not change the observed (False) value
        assert validate(txn.reads, txn.delta(), foreign, base) is None

    def test_predicate_recheck_is_a_streamed_check(self):
        backend = CompiledBackend()
        base = Database.graph([(i, i + 1) for i in range(12)])
        symmetric_free = parse("forall x . forall y . E(x, y) -> ~E(y, x)")
        txn = SnapshotTransaction(base, 0, backend=backend)
        assert txn.evaluate(symmetric_free)
        streamed = backend.streamed
        foreign = Delta.insertion("E", (50, 51))
        assert validate(txn.reads, txn.delta(), foreign, base, backend=backend) is None
        assert backend.streamed == streamed + 1  # one plan run at the shifted state
        changed = Delta.insertion("E", (5, 4))  # (4, 5) is there: the truth value flips
        reason = validate(txn.reads, txn.delta(), changed, base, backend=backend)
        assert reason is not None and "predicate changed" in reason

    def test_opaque_reads_conflict_with_anything(self, base):
        txn = handle_on(base)
        txn.apply(FOProgram([InsertTuple("E", 7, 8)], name="t"))
        foreign = Delta.insertion("E", (0, 9))
        assert validate(txn.reads, txn.delta(), foreign, base) is not None


class TestSnapshotManager:
    def test_pin_and_foreign_delta(self, base):
        store = Store(GRAPH_SCHEMA, base)
        manager = SnapshotManager(store)
        txn = manager.begin()
        assert txn.version == store.version
        assert manager.foreign_delta(txn.version) == Delta()
        # a commit recorded through the manager becomes foreign to the pin
        delta = Delta.insertion("E", (5, 6))
        store.begin(); store.apply_delta(delta); store.commit_unchecked()
        manager.record(store.version, delta)
        assert manager.foreign_delta(txn.version) == delta

    def test_foreign_deltas_compose(self, base):
        store = Store(GRAPH_SCHEMA, base)
        manager = SnapshotManager(store)
        txn = manager.begin()
        for edge in [(5, 6), (6, 7)]:
            delta = Delta.insertion("E", edge)
            store.begin(); store.apply_delta(delta); store.commit_unchecked()
            manager.record(store.version, delta)
        assert manager.foreign_delta(txn.version) == Delta(
            inserted={"E": [(5, 6), (6, 7)]}
        )

    def test_window_eviction_reports_unknown(self, base):
        store = Store(GRAPH_SCHEMA, base)
        manager = SnapshotManager(store, history_limit=2)
        txn = manager.begin()
        for edge in [(5, 6), (6, 7), (7, 8)]:
            delta = Delta.insertion("E", edge)
            store.begin(); store.apply_delta(delta); store.commit_unchecked()
            manager.record(store.version, delta)
        assert manager.foreign_delta(txn.version) is None  # fell out of the window

    def test_unrecorded_commit_reports_unknown(self, base):
        store = Store(GRAPH_SCHEMA, base)
        manager = SnapshotManager(store)
        txn = manager.begin()
        store.begin(); store.insert("E", (5, 6)); store.commit_unchecked()
        # the store advanced but the manager never saw the delta
        assert manager.foreign_delta(txn.version) is None
