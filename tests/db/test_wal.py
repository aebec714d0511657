"""The durable WAL engine: framing, corruption tolerance, checkpoints.

The contract under test is the one ``docs/durability.md`` states: a record
either round-trips exactly or is *rejected* — a torn write, truncated tail or
bit flip must never replay garbage, and recovery always stops at the last
valid record.  The corpus here mutates real log bytes (hypothesis picks the
cut points and flipped bits), which is how the crash-point analysis in
``repro.db.wal`` stays honest.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import (
    Database,
    GRAPH_SCHEMA,
    Store,
    StorageEngineError,
    WalStorageEngine,
)
from repro.db.wal import _HEADER, _KIND_BATCH, _frame, _parse_frames

from strategies import maybe_seed, update_streams


def wal_path(directory) -> str:
    return os.path.join(str(directory), "wal.log")


def make_store(directory, **engine_kwargs) -> Store:
    engine = WalStorageEngine(str(directory), **engine_kwargs)
    return Store(GRAPH_SCHEMA, engine=engine)


def commit_edges(store: Store, *edges) -> None:
    store.begin()
    for edge in edges:
        store.insert("E", edge)
    store.commit_unchecked()


class TestFraming:
    @given(payloads=st.lists(st.binary(max_size=64), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_frames_round_trip(self, payloads):
        data = b"".join(_frame(_KIND_BATCH, p) for p in payloads)
        frames, end = _parse_frames(data)
        assert end == len(data)
        assert [payload for _kind, payload, _end in frames] == payloads

    @given(
        payloads=st.lists(st.binary(max_size=32), min_size=1, max_size=4),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_single_bit_flip_is_detected(self, payloads, data):
        blob = bytearray(b"".join(_frame(_KIND_BATCH, p) for p in payloads))
        position = data.draw(st.integers(0, len(blob) - 1))
        bit = data.draw(st.integers(0, 7))
        blob[position] ^= 1 << bit
        frames, end = _parse_frames(bytes(blob))
        # every frame returned must be byte-identical to an original frame:
        # the flip either lands behind `end` or kills its frame entirely
        assert end <= len(blob)
        intact = {p for p in payloads}
        for _kind, payload, _frame_end in frames:
            assert payload in intact

    @given(
        payloads=st.lists(st.binary(max_size=32), min_size=1, max_size=4),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_truncation_keeps_only_whole_frames(self, payloads, data):
        blob = b"".join(_frame(_KIND_BATCH, p) for p in payloads)
        cut = data.draw(st.integers(0, len(blob)))
        frames, end = _parse_frames(blob[:cut])
        assert end <= cut
        boundaries = []
        offset = 0
        for payload in payloads:
            offset += _HEADER.size + len(payload)
            boundaries.append(offset)
        # the parsed prefix is exactly the whole frames that fit before `cut`
        expected = sum(1 for b in boundaries if b <= cut)
        assert len(frames) == expected

    def test_impossible_length_header_rejected(self):
        # a corrupted length field must not trigger a giant allocation
        bogus = _HEADER.pack(b"RW", _KIND_BATCH, (1 << 31), 0)
        frames, end = _parse_frames(bogus + b"x" * 16)
        assert frames == [] and end == 0


class TestRecovery:
    def test_fresh_directory_recovers_nothing(self, tmp_path):
        with make_store(tmp_path) as store:
            assert store.version == 0
            assert store.snapshot() == Database.graph([])

    def test_commits_survive_crash(self, tmp_path):
        store = make_store(tmp_path)
        commit_edges(store, (1, 2))
        commit_edges(store, (2, 3))
        expected = store.snapshot()
        store.engine.crash()

        with make_store(tmp_path) as reborn:
            assert reborn.snapshot() == expected
            assert reborn.version == 2
            assert reborn.storage_stats()["recovered_batches"] == 2

    def test_initial_database_survives_via_bootstrap(self, tmp_path):
        engine = WalStorageEngine(str(tmp_path))
        store = Store(GRAPH_SCHEMA, Database.graph([(7, 8)]), engine=engine)
        # no commit at all: the bootstrap checkpoint alone must carry it
        store.engine.crash()
        with make_store(tmp_path) as reborn:
            assert reborn.snapshot() == Database.graph([(7, 8)])

    def test_recovered_store_keeps_committing(self, tmp_path):
        store = make_store(tmp_path)
        commit_edges(store, (1, 2))
        store.engine.crash()

        second = make_store(tmp_path)
        commit_edges(second, (2, 3))
        second.engine.crash()

        with make_store(tmp_path) as third:
            assert third.snapshot() == Database.graph([(1, 2), (2, 3)])
            assert third.version == 2

    def test_torn_tail_is_dropped_and_log_reusable(self, tmp_path):
        store = make_store(tmp_path)
        commit_edges(store, (1, 2))
        commit_edges(store, (3, 4))
        store.engine.crash()
        # a torn final append: garbage after the last durable record
        with open(wal_path(tmp_path), "ab") as handle:
            handle.write(b"\x13" * 23)

        second = make_store(tmp_path)
        assert second.snapshot() == Database.graph([(1, 2), (3, 4)])
        assert second.storage_stats()["tail_dropped_bytes"] == 23
        # the truncated log accepts new appends and stays contiguous
        commit_edges(second, (5, 6))
        second.engine.crash()
        with make_store(tmp_path) as third:
            assert third.snapshot() == Database.graph([(1, 2), (3, 4), (5, 6)])

    def test_recovery_stops_at_mid_log_corruption(self, tmp_path):
        store = make_store(tmp_path)
        commit_edges(store, (1, 2))
        with open(wal_path(tmp_path), "rb") as handle:
            one_batch = handle.read()
        commit_edges(store, (3, 4))
        commit_edges(store, (5, 6))
        store.engine.crash()
        # flip one byte inside the *second* record's payload
        with open(wal_path(tmp_path), "r+b") as handle:
            handle.seek(len(one_batch) + _HEADER.size + 1)
            byte = handle.read(1)
            handle.seek(len(one_batch) + _HEADER.size + 1)
            handle.write(bytes((byte[0] ^ 0xFF,)))

        with make_store(tmp_path) as reborn:
            # everything after the first bad record is unrecoverable tail
            assert reborn.snapshot() == Database.graph([(1, 2)])
            assert reborn.version == 1

    def test_version_gap_stops_replay(self, tmp_path):
        store = make_store(tmp_path)
        commit_edges(store, (1, 2))
        commit_edges(store, (3, 4))
        commit_edges(store, (5, 6))
        store.engine.crash()
        # surgically remove the middle record: replay must stop before the
        # gap rather than apply version 3 on top of version 1
        with open(wal_path(tmp_path), "rb") as handle:
            frames, _ = _parse_frames(handle.read())
        first, second, third = (f[2] for f in frames)
        with open(wal_path(tmp_path), "r+b") as handle:
            data = handle.read()
            handle.seek(0)
            handle.write(data[:first] + data[second:third])
            handle.truncate()

        with make_store(tmp_path) as reborn:
            assert reborn.snapshot() == Database.graph([(1, 2)])
            assert reborn.version == 1


class TestCheckpoints:
    def test_checkpoint_truncates_log_and_recovers(self, tmp_path):
        store = make_store(tmp_path, checkpoint_interval=3)
        for i in range(7):
            commit_edges(store, (i, i + 1))
        stats = store.storage_stats()
        assert stats["checkpoints"] == 2           # after batches 3 and 6
        assert stats["checkpoint_version"] == 6
        # only the post-checkpoint tail lives in the log
        assert os.path.getsize(wal_path(tmp_path)) > 0
        expected = store.snapshot()
        store.engine.crash()

        with make_store(tmp_path, checkpoint_interval=3) as reborn:
            assert reborn.snapshot() == expected
            assert reborn.version == 7
            # recovery replayed only the single post-checkpoint batch
            assert reborn.storage_stats()["recovered_batches"] == 1
            assert reborn.storage_stats()["checkpoint_version"] == 6

    def test_old_checkpoints_are_deleted(self, tmp_path):
        store = make_store(tmp_path, checkpoint_interval=2)
        for i in range(8):
            commit_edges(store, (i, i + 1))
        snaps = [f for f in os.listdir(tmp_path) if f.endswith(".snap")]
        assert len(snaps) == 1
        store.close()

    def test_corrupt_checkpoint_falls_back_to_replay(self, tmp_path):
        store = make_store(tmp_path, checkpoint_interval=0)  # no checkpoints
        for i in range(4):
            commit_edges(store, (i, i + 1))
        expected = store.snapshot()
        store.engine.crash()
        # plant a corrupt checkpoint claiming a newer version: recovery must
        # reject it (bad frame) and fall back to pure log replay
        bogus = os.path.join(str(tmp_path), "checkpoint-0000000000000099.snap")
        with open(bogus, "wb") as handle:
            handle.write(b"not a checkpoint at all")

        with make_store(tmp_path) as reborn:
            assert reborn.snapshot() == expected
            assert reborn.version == 4

    def test_stale_log_prefix_after_checkpoint_crash(self, tmp_path):
        """Crash between checkpoint write and log truncation: replay skips."""
        store = make_store(tmp_path, checkpoint_interval=0)
        commit_edges(store, (1, 2))
        commit_edges(store, (3, 4))
        with open(wal_path(tmp_path), "rb") as handle:
            full_log = handle.read()
        # checkpoint at version 2, then restore the untruncated log — exactly
        # the on-disk state of a crash after os.replace, before truncate
        store.engine.checkpoint(
            {"E": frozenset({(1, 2), (3, 4)})}, store.version
        )
        store.engine.crash()
        with open(wal_path(tmp_path), "wb") as handle:
            handle.write(full_log)

        with make_store(tmp_path) as reborn:
            assert reborn.snapshot() == Database.graph([(1, 2), (3, 4)])
            assert reborn.version == 2
            assert reborn.storage_stats()["recovered_batches"] == 0


class TestEngineContract:
    def test_non_contiguous_commit_rejected(self, tmp_path):
        engine = WalStorageEngine(str(tmp_path))
        store = Store(GRAPH_SCHEMA, engine=engine)
        commit_edges(store, (1, 2))
        from repro.db import Delta

        with pytest.raises(StorageEngineError):
            engine.commit_batch(Delta(inserted={"E": {(9, 9)}}), version=5)
        store.close()

    def test_closed_engine_refuses_appends(self, tmp_path):
        store = make_store(tmp_path)
        store.close()
        from repro.db import Delta

        with pytest.raises(StorageEngineError):
            store.engine.commit_batch(Delta(inserted={"E": {(1, 2)}}), 1)

    def test_unknown_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(StorageEngineError):
            WalStorageEngine(str(tmp_path), fsync="sometimes")

    @pytest.mark.parametrize("policy", ["commit", "close", "never"])
    def test_every_fsync_policy_recovers(self, tmp_path, policy):
        store = make_store(tmp_path, fsync=policy)
        commit_edges(store, (1, 2), (2, 3))
        expected = store.snapshot()
        store.engine.crash()
        with make_store(tmp_path, fsync=policy) as reborn:
            assert reborn.snapshot() == expected

    def test_fsync_counters_follow_policy(self, tmp_path):
        eager = make_store(tmp_path / "eager", fsync="commit")
        commit_edges(eager, (1, 2))
        commit_edges(eager, (2, 3))
        assert eager.storage_stats()["fsyncs"] >= 2
        eager.close()

        lazy = make_store(tmp_path / "lazy", fsync="never")
        commit_edges(lazy, (1, 2))
        assert lazy.storage_stats()["fsyncs"] == 0
        lazy.close()

    def test_ephemeral_engine_cleans_its_directory(self):
        engine = WalStorageEngine.ephemeral()
        directory = engine.directory
        store = Store(GRAPH_SCHEMA, engine=engine)
        commit_edges(store, (1, 2))
        assert os.path.isdir(directory)
        store.close()
        assert not os.path.exists(directory)

    def test_wal_appends_counter(self, tmp_path):
        store = make_store(tmp_path)
        commit_edges(store, (1, 2))
        store.begin()
        store.commit_unchecked()  # empty commit: no append
        commit_edges(store, (2, 3))
        stats = store.storage_stats()
        assert stats["wal_appends"] == 2
        store.close()


class TestRandomStreams:
    """The hypothesis corpus: random histories, random corruption."""

    @maybe_seed
    @given(stream=update_streams(length=8))
    @settings(max_examples=40, deadline=None)
    def test_crash_recovery_replays_any_history(self, stream):
        import tempfile
        import shutil

        directory = tempfile.mkdtemp(prefix="repro-waltest-")
        try:
            store = Store(GRAPH_SCHEMA, engine=WalStorageEngine(directory))
            for delta in stream:
                store.begin()
                store.apply_delta(delta)
                store.commit_unchecked()
            expected = store.snapshot()
            version = store.version
            store.engine.crash()

            reborn = Store(GRAPH_SCHEMA, engine=WalStorageEngine(directory))
            assert reborn.snapshot() == expected
            assert reborn.version == version
            reborn.engine.crash()
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    @maybe_seed
    @given(stream=update_streams(length=6), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_tail_corruption_never_breaks_recovery(self, stream, data):
        """Cut the log anywhere, then scribble garbage: recovery still yields
        a *prefix* of the committed history, never an error, never garbage."""
        import tempfile
        import shutil

        directory = tempfile.mkdtemp(prefix="repro-waltest-")
        try:
            store = Store(GRAPH_SCHEMA, engine=WalStorageEngine(directory))
            states = [store.snapshot()]
            for delta in stream:
                store.begin()
                store.apply_delta(delta)
                store.commit_unchecked()
                states.append(store.snapshot())
            store.engine.crash()

            path = os.path.join(directory, "wal.log")
            with open(path, "rb") as handle:
                blob = handle.read()
            cut = data.draw(st.integers(0, len(blob)))
            junk = data.draw(st.binary(max_size=40))
            with open(path, "wb") as handle:
                handle.write(blob[:cut] + junk)

            reborn = Store(GRAPH_SCHEMA, engine=WalStorageEngine(directory))
            assert any(reborn.snapshot() == s for s in states), (
                "recovered state must be one of the committed prefixes"
            )
            reborn.engine.crash()
        finally:
            shutil.rmtree(directory, ignore_errors=True)
