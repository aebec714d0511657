"""Kill-and-recover conformance: a recovered store equals a never-crashed one.

The durable engine's headline obligation, as a property over random
histories: drive the same update stream (the shared ``tests/strategies.py``
generators) into a WAL-backed store and an in-memory reference, crash the
durable one at an arbitrary point with everything re-driven up to the crash,
recover, finish the stream on both — the final states must be *equal*
(``Database.__eq__``, which compares schema and relations) and
content-hash-identical.  The CI matrix legs (compiled/delta on and off,
optimizer off, naive) re-run this file under every backend configuration.
"""

from __future__ import annotations

import shutil
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database, GRAPH_SCHEMA, Store, WalStorageEngine

from strategies import maybe_seed, update_streams


def drive(store: Store, stream) -> None:
    for delta in stream:
        store.begin()
        store.apply_delta(delta)
        store.commit_unchecked()


class TestKillAndRecover:
    @maybe_seed
    @given(stream=update_streams(length=8), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_recovered_equals_never_crashed(self, stream, data):
        crash_at = data.draw(
            st.integers(0, len(stream)), label="crash after step"
        )
        directory = tempfile.mkdtemp(prefix="repro-recover-")
        try:
            reference = Store(GRAPH_SCHEMA)
            durable = Store(
                GRAPH_SCHEMA,
                engine=WalStorageEngine(directory, checkpoint_interval=3),
            )
            drive(reference, stream)
            drive(durable, stream[:crash_at])
            durable.engine.crash()

            recovered = Store(
                GRAPH_SCHEMA,
                engine=WalStorageEngine(directory, checkpoint_interval=3),
            )
            drive(recovered, stream[crash_at:])

            a = reference.committed_snapshot()
            b = recovered.committed_snapshot()
            assert a == b
            assert hash(a) == hash(b)      # the patchable content digest agrees
            assert reference.version == recovered.version
            recovered.engine.crash()
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    @maybe_seed
    @given(stream=update_streams(length=6))
    @settings(max_examples=25, deadline=None)
    def test_double_crash_still_converges(self, stream):
        """Crash, recover, crash again mid-way: no acked commit is ever lost."""
        directory = tempfile.mkdtemp(prefix="repro-recover-")
        try:
            reference = Store(GRAPH_SCHEMA)
            drive(reference, stream)

            mid = len(stream) // 2
            first = Store(GRAPH_SCHEMA, engine=WalStorageEngine(directory))
            drive(first, stream[:mid])
            first.engine.crash()

            second = Store(GRAPH_SCHEMA, engine=WalStorageEngine(directory))
            drive(second, stream[mid:])
            second.engine.crash()

            final = Store(GRAPH_SCHEMA, engine=WalStorageEngine(directory))
            assert final.committed_snapshot() == reference.committed_snapshot()
            assert final.version == reference.version
            final.engine.crash()
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    @maybe_seed
    @given(stream=update_streams(length=6))
    @settings(max_examples=25, deadline=None)
    def test_log_recovers_identical_content(self, stream):
        """A store reopened on a crashed writer's log holds the same
        content, down to the content hash."""
        directory = tempfile.mkdtemp(prefix="repro-recover-")
        try:
            writer = Store(GRAPH_SCHEMA, engine=WalStorageEngine(directory))
            drive(writer, stream)
            expected = writer.committed_snapshot()
            writer.engine.crash()

            reopened = Store(GRAPH_SCHEMA, engine=WalStorageEngine(directory))
            got = reopened.committed_snapshot()
            assert got == expected
            assert hash(got) == hash(expected)
            reopened.engine.crash()
        finally:
            shutil.rmtree(directory, ignore_errors=True)


class TestRecoveredStoreBehaviour:
    """Post-recovery semantics: RYOW and unchecked commits."""

    def _recovered_pair(self, directory):
        store = Store(GRAPH_SCHEMA, engine=WalStorageEngine(directory))
        store.begin()
        store.insert("E", (1, 2))
        store.insert("E", (2, 3))
        store.commit_unchecked()
        store.engine.crash()
        return Store(GRAPH_SCHEMA, engine=WalStorageEngine(directory))

    def test_commit_unchecked_after_recovery_is_durable(self, tmp_path):
        recovered = self._recovered_pair(str(tmp_path))
        recovered.begin()
        recovered.insert("E", (9, 9))
        recovered.commit_unchecked()
        assert recovered.contains("E", (9, 9))
        recovered.engine.crash()

        reread = Store(GRAPH_SCHEMA, engine=WalStorageEngine(str(tmp_path)))
        assert reread.contains("E", (9, 9))
        reread.close()

    def test_rollback_over_recovered_state_keeps_it(self, tmp_path):
        recovered = self._recovered_pair(str(tmp_path))
        version = recovered.version
        recovered.begin()
        recovered.insert("E", (9, 9))
        recovered.delete("E", (1, 2))
        assert recovered.rollback() == 2
        assert recovered.version == version
        assert recovered.committed_snapshot() == Database.graph([(1, 2), (2, 3)])
        recovered.engine.crash()

        reread = Store(GRAPH_SCHEMA, engine=WalStorageEngine(str(tmp_path)))
        assert reread.snapshot() == Database.graph([(1, 2), (2, 3)])
        reread.close()

    def test_recovered_version_continues_the_sequence(self, tmp_path):
        directory = str(tmp_path)
        store = Store(GRAPH_SCHEMA, engine=WalStorageEngine(directory))
        for edge in ((1, 2), (2, 3)):
            store.begin()
            store.insert("E", edge)
            store.commit_unchecked()
        assert store.version == 2
        store.engine.crash()

        recovered = Store(GRAPH_SCHEMA, engine=WalStorageEngine(directory))
        assert recovered.version == 2
        recovered.begin()
        recovered.insert("E", (3, 4))
        recovered.commit_unchecked()
        assert recovered.version == 3
        recovered.close()

    def test_ryow_preserved_after_recovery(self, tmp_path):
        recovered = self._recovered_pair(str(tmp_path))
        recovered.begin()
        recovered.insert("E", (5, 6))
        recovered.delete("E", (1, 2))
        # reads during the open transaction overlay the log on recovered rows
        assert recovered.contains("E", (5, 6))
        assert not recovered.contains("E", (1, 2))
        assert set(recovered.scan("E")) == {(2, 3), (5, 6)}
        # committed view stays pre-transaction
        assert recovered.committed_snapshot() == Database.graph([(1, 2), (2, 3)])
        recovered.rollback()
        assert set(recovered.scan("E")) == {(1, 2), (2, 3)}
        recovered.close()
