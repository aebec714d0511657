"""Injected storage faults against the WAL engine and the store above it.

The contract under test: an append/fsync failure during ``commit_batch``
fails the commit with the in-memory store **unmutated** and the log clean
(a retry lands contiguously); a checkpoint that dies mid write-temp→rename
never leaves a half-written snapshot where recovery could load it —
recovery falls back to the previous checkpoint plus a longer tail replay.
One directory has one writer: a second engine on a live directory is
refused, and a crashed or killed holder leaves it reopenable.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys

import pytest

from repro import faults
from repro.db import Database, GRAPH_SCHEMA, Store, StorageEngineError, WalStorageEngine
from repro.service.workloads import build_service


@pytest.fixture(autouse=True)
def clean_hooks():
    faults.uninstall()
    yield
    faults.uninstall()


def make_store(directory, **engine_kwargs) -> Store:
    engine = WalStorageEngine(str(directory), **engine_kwargs)
    return Store(GRAPH_SCHEMA, engine=engine)


def commit_edges(store: Store, *edges) -> None:
    store.begin()
    for edge in edges:
        store.insert("E", edge)
    store.commit_unchecked()


SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def recovered_edges(directory) -> frozenset:
    with make_store(directory) as store:
        return frozenset(store.committed_snapshot().relation("E"))


def directory_bytes(directory) -> dict:
    """Every file in ``directory``, name -> contents."""
    contents = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            contents[name] = handle.read()
    return contents


class TestAppendFaults:
    def test_fsync_fault_fails_commit_and_leaves_store_unmutated(self, tmp_path):
        # pin the per-commit fsync policy: an ambient REPRO_WAL_FSYNC=close
        # would move the fsync (and the injected fault) out of the commit
        store = make_store(tmp_path, fsync="commit")
        commit_edges(store, (1, 2))
        version_before = store.version

        faults.install(faults.FaultPlan().site("wal.fsync", exc="oserror", limit=1))
        store.begin()
        store.insert("E", (3, 4))
        with pytest.raises(StorageEngineError):
            store.commit_unchecked()
        # the failed commit was never acked: nothing moved
        assert store.in_transaction  # still open, caller decides
        store.rollback()
        assert store.version == version_before
        assert (3, 4) not in store.committed_snapshot().relation("E")

        # the engine is still usable: the next commit is contiguous
        faults.uninstall()
        commit_edges(store, (5, 6))
        assert store.version == version_before + 1
        store.engine.crash()
        assert recovered_edges(tmp_path) == frozenset({(1, 2), (5, 6)})

    def test_torn_append_is_truncated_on_recovery(self, tmp_path):
        store = make_store(tmp_path)
        commit_edges(store, (1, 2))
        faults.install(faults.FaultPlan().site("wal.append.torn", limit=1))
        store.begin()
        store.insert("E", (3, 4))
        with pytest.raises(StorageEngineError):
            store.commit_unchecked()
        store.rollback()
        faults.uninstall()
        store.engine.crash()
        # recovery keeps every acked commit and only the acked commits
        assert recovered_edges(tmp_path) == frozenset({(1, 2)})

    def test_disk_full_fails_commit(self, tmp_path):
        store = make_store(tmp_path)
        faults.install(faults.FaultPlan().site("wal.append", exc="disk_full"))
        store.begin()
        store.insert("E", (1, 2))
        with pytest.raises(StorageEngineError):
            store.commit_unchecked()
        store.rollback()

    def test_transient_append_fault_then_retry_succeeds(self, tmp_path):
        store = make_store(tmp_path)
        faults.install(faults.FaultPlan().site("wal.append", exc="oserror", hits=(1,)))
        store.begin()
        store.insert("E", (1, 2))
        with pytest.raises(StorageEngineError):
            store.commit_unchecked()
        store.rollback()
        # same store object, second try: the log took no garbage from try one
        commit_edges(store, (1, 2))
        store.engine.crash()
        assert recovered_edges(tmp_path) == frozenset({(1, 2)})


class TestOrphanFrames:
    def test_fsync_fault_leaves_no_orphan_frame_behind(self, tmp_path):
        # regression: a fault *after* the frame bytes reached the file (the
        # fsync step) used to leave the un-acked frame in the log; the retry
        # then appended a second frame under the same version and recovery
        # replayed the orphan instead of the acked retry
        store = make_store(tmp_path, fsync="commit")
        faults.install(
            faults.FaultPlan().site("wal.fsync", exc="storage", hits=(1,))
        )
        store.begin()
        store.insert("E", (1, 2))
        with pytest.raises(StorageEngineError):
            store.commit_unchecked()
        store.rollback()
        commit_edges(store, (3, 4))  # the retry: same version, new content
        store.engine.crash()
        with make_store(tmp_path) as reborn:
            assert frozenset(reborn.committed_snapshot().relation("E")) == {(3, 4)}
            assert reborn.storage_stats()["orphan_frames"] == 0

    def test_recovery_skips_orphan_duplicate_and_keeps_the_acked_frame(self, tmp_path):
        # defense in depth: even if an orphan frame survives on disk (e.g.
        # the post-failure truncate itself failed on a sick disk), recovery
        # must treat the LAST frame of a duplicated version as the acked one
        from repro.db.delta import Delta, encode_wire_value
        from repro.db.wal import _KIND_BATCH, _frame

        store = make_store(tmp_path)
        commit_edges(store, (1, 2))  # version 1, acked
        store.engine.crash()
        # hand-craft the failure shape: an orphan version-2 frame (never
        # acked) followed by the acked version-2 retry with other content
        orphan = encode_wire_value((2, Delta(inserted={"E": [(6, 6)]}).to_wire()))
        acked = encode_wire_value((2, Delta(inserted={"E": [(7, 8)]}).to_wire()))
        with open(tmp_path / "wal.log", "ab") as handle:
            handle.write(_frame(_KIND_BATCH, orphan))
            handle.write(_frame(_KIND_BATCH, acked))
        with make_store(tmp_path) as reborn:
            recovered = frozenset(reborn.committed_snapshot().relation("E"))
            assert recovered == {(1, 2), (7, 8)}
            assert (6, 6) not in recovered
            assert reborn.storage_stats()["orphan_frames"] == 1
            assert reborn.version == 2


class TestCheckpointFaults:
    def test_checkpoint_write_fault_falls_back_to_previous_checkpoint(self, tmp_path):
        engine = WalStorageEngine(str(tmp_path), checkpoint_interval=2)
        store = Store(GRAPH_SCHEMA, engine=engine)
        # two commits: interval reached, checkpoint 1 succeeds
        commit_edges(store, (1, 2))
        commit_edges(store, (2, 3))
        assert engine.stats()["checkpoints"] == 1
        good_checkpoint = engine.stats()["checkpoint_version"]

        # two more commits with the checkpoint write poisoned: the commits
        # themselves must stay acked, the snapshot attempt must fail closed
        faults.install(
            faults.FaultPlan().site("wal.checkpoint.write", exc="oserror")
        )
        commit_edges(store, (3, 4))
        commit_edges(store, (4, 5))  # wants_checkpoint -> injected failure
        version_after = store.version
        stats = engine.stats()
        assert stats["checkpoint_failures"] >= 1
        assert stats["checkpoint_version"] == good_checkpoint
        # no half-written snapshot survives the failure
        assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]

        faults.uninstall()
        store.engine.crash()
        # recovery: previous checkpoint + longer tail replay = full state
        with make_store(tmp_path) as recovered:
            assert recovered.version == version_after
            assert frozenset(recovered.committed_snapshot().relation("E")) == {
                (1, 2), (2, 3), (3, 4), (4, 5),
            }
            recovered_stats = recovered.storage_stats()
            assert recovered_stats["checkpoint_version"] == good_checkpoint
            assert recovered_stats["recovered_batches"] > 0

    def test_checkpoint_rename_fault_never_exposes_half_snapshot(self, tmp_path):
        engine = WalStorageEngine(str(tmp_path), checkpoint_interval=1)
        store = Store(GRAPH_SCHEMA, engine=engine)
        faults.install(
            faults.FaultPlan().site("wal.checkpoint.rename", exc="oserror")
        )
        commit_edges(store, (1, 2))
        commit_edges(store, (2, 3))
        assert engine.stats()["checkpoint_failures"] >= 2
        assert engine.stats()["checkpoints"] == 0
        assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
        faults.uninstall()
        store.engine.crash()
        # everything replays from the log alone
        assert recovered_edges(tmp_path) == frozenset({(1, 2), (2, 3)})

    def test_failed_checkpoint_does_not_fail_the_acked_commit(self, tmp_path):
        engine = WalStorageEngine(str(tmp_path), checkpoint_interval=1)
        store = Store(GRAPH_SCHEMA, engine=engine)
        faults.install(
            faults.FaultPlan().site("wal.checkpoint.write", exc="oserror", limit=1)
        )
        # the commit triggering the poisoned checkpoint must NOT raise: the
        # batch is already durable in the log when the snapshot attempt dies
        commit_edges(store, (1, 2))
        assert store.version == 1
        assert engine.stats()["checkpoint_failures"] == 1
        store.engine.crash()
        assert recovered_edges(tmp_path) == frozenset({(1, 2)})


class TestSuccessorPromotionUnderFaults:
    @pytest.mark.parametrize(
        "site, exc",
        [("wal.fsync", "oserror"), ("wal.append", "oserror"),
         ("storage.commit_batch", "storage")],
    )
    def test_refused_batch_never_promotes_its_successor(self, tmp_path, site, exc):
        store = make_store(tmp_path, fsync="commit")
        commit_edges(store, (1, 2))
        version, base = store.pin()
        successor = base.insert("E", (3, 4))

        faults.install(faults.FaultPlan().site(site, exc=exc, limit=1))
        store.begin()
        store.insert("E", (3, 4))
        with pytest.raises(StorageEngineError):
            store.commit_unchecked(successor=successor)
        store.rollback()
        assert store.pin() == (version, base) and store.pin()[1] is base
        assert store.stats.snapshot_promoted == 0

        # the same successor is promoted once the engine accepts the batch
        store.begin()
        store.insert("E", (3, 4))
        store.commit_unchecked(successor=successor)
        assert store.pin()[1] is successor
        store.engine.crash()
        assert recovered_edges(tmp_path) == frozenset({(1, 2), (3, 4)})


class TestSingleWriter:
    def test_second_engine_on_a_live_directory_is_refused(self, tmp_path):
        store = make_store(tmp_path)
        commit_edges(store, (1, 2))
        with pytest.raises(StorageEngineError, match=str(tmp_path)):
            WalStorageEngine(str(tmp_path))
        # the refused opener touched nothing: the holder keeps committing
        commit_edges(store, (2, 3))
        store.close()
        assert recovered_edges(tmp_path) == frozenset({(1, 2), (2, 3)})

    def test_crashed_engine_releases_the_directory(self, tmp_path):
        store = make_store(tmp_path)
        commit_edges(store, (1, 2))
        store.engine.crash()
        assert recovered_edges(tmp_path) == frozenset({(1, 2)})

    def test_closed_engine_releases_the_directory(self, tmp_path):
        store = make_store(tmp_path)
        commit_edges(store, (1, 2))
        store.close()
        store.close()  # a second close leaves the next holder alone
        with make_store(tmp_path) as reborn:
            commit_edges(reborn, (2, 3))
        assert recovered_edges(tmp_path) == frozenset({(1, 2), (2, 3)})

    def test_collected_engine_releases_the_directory(self, tmp_path):
        engine = WalStorageEngine(str(tmp_path))
        del engine
        gc.collect()
        WalStorageEngine(str(tmp_path)).close()

    def test_refused_opener_leaves_the_files_untouched(self, tmp_path):
        store = make_store(tmp_path)
        commit_edges(store, (1, 2))
        before = directory_bytes(tmp_path)
        with pytest.raises(StorageEngineError):
            make_store(tmp_path)
        assert directory_bytes(tmp_path) == before
        store.close()

    def test_each_directory_has_its_own_lock(self, tmp_path):
        left = make_store(tmp_path / "left")
        right = make_store(tmp_path / "right")
        commit_edges(left, (1, 2))
        commit_edges(right, (3, 4))
        left.close()
        right.close()
        assert recovered_edges(tmp_path / "left") == frozenset({(1, 2)})
        assert recovered_edges(tmp_path / "right") == frozenset({(3, 4)})

    def test_closing_a_service_releases_its_wal_directory(self, tmp_path):
        service = build_service(
            Database.graph([(1, 2)]), engine=WalStorageEngine(str(tmp_path))
        )
        with pytest.raises(StorageEngineError):
            WalStorageEngine(str(tmp_path))
        service.close()
        assert recovered_edges(tmp_path) == frozenset({(1, 2)})

    def test_killed_holder_process_releases_the_directory(self, tmp_path):
        holder = subprocess.Popen(
            [sys.executable, "-c",
             "import sys, time\n"
             "from repro.db import WalStorageEngine\n"
             "engine = WalStorageEngine(sys.argv[1])\n"
             "print('held', flush=True)\n"
             "time.sleep(600)\n",
             str(tmp_path)],
            env={**os.environ, "PYTHONPATH": SRC},
            stdout=subprocess.PIPE,
        )
        try:
            assert holder.stdout.readline().strip() == b"held"
            with pytest.raises(StorageEngineError):
                WalStorageEngine(str(tmp_path))
        finally:
            holder.kill()
            holder.wait(timeout=30)
            holder.stdout.close()
        WalStorageEngine(str(tmp_path)).close()

    def test_serve_exits_1_on_a_held_directory(self, tmp_path):
        holder = WalStorageEngine(str(tmp_path))
        try:
            env = {
                **os.environ,
                "PYTHONPATH": SRC,
                "REPRO_DURABLE": "on",
                "REPRO_WAL_DIR": str(tmp_path),
            }
            proc = subprocess.run(
                [sys.executable, "-m", "repro.serve", "--port", "0",
                 "--accounts", "10"],
                env=env, capture_output=True, text=True, timeout=120,
            )
        finally:
            holder.close()
        assert proc.returncode == 1
        assert "locked by another storage engine" in proc.stderr
        assert "listening on" not in proc.stdout
