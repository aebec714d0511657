"""The durable storage engine: a delta write-ahead log with checkpoints.

:class:`WalStorageEngine` makes a :class:`~repro.db.storage.Store` survive
process death.  The design follows the classic WAL recipe, specialised to the
store's group-commit shape:

* **Log records are deltas.**  Every committed batch is exactly one
  :class:`~repro.db.delta.Delta` (the group-commit leader already folds a
  whole batch into one delta), so the log records ``(version, delta)`` pairs
  in canonical bytes (:meth:`Delta.to_bytes <repro.db.delta.Delta.to_bytes>`)
  — one append, at most one fsync, per batch.
* **Records are framed and CRC-guarded.**  ``magic | kind | length | crc32 |
  payload``.  A torn write, truncated tail or bit flip fails the frame check
  and recovery stops at the last valid record — it never replays garbage and
  never raises mid-replay for tail corruption.
* **Checkpoints bound recovery time.**  Every ``checkpoint_interval`` batches
  the store offers its committed snapshot; the engine writes it to a side
  file (write-temp, fsync, atomic rename), truncates the log, and deletes
  older checkpoints.  Recovery loads the newest readable checkpoint and
  replays only the tail, so recovery cost is O(interval), not O(history).
* **fsync policy is explicit.**  ``commit`` (default) fsyncs every append —
  a committed transaction survives OS crash; ``close`` flushes per append
  but fsyncs only at checkpoints and close — survives *process* crash, not
  power loss; ``never`` is for benchmarking the framing overhead alone.

Crash points and their recovery:

* mid-append → the torn record fails its CRC; recovery keeps everything
  before it and truncates the tail.
* after checkpoint write, before log truncation → the log still holds
  pre-checkpoint records; replay skips records with ``version <=``
  the checkpoint version.
* mid-checkpoint → the temp file never renamed; recovery uses the previous
  checkpoint (or the empty state) plus the intact log.

**One writer per directory.**  An engine holds an exclusive ``flock`` on
``<directory>/LOCK`` from open to close (or crash); a second engine on a live
directory is refused with :class:`~repro.db.engines.StorageEngineError`.  The
kernel drops the lock when the holding process dies, so a restart after a
kill reopens the directory.
"""

from __future__ import annotations

import fcntl
import logging
import os
import shutil
import struct
import tempfile
import threading
import time
import weakref
import zlib
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from .. import faults as _faults
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..settings import KNOBS_BY_NAME, setting
from .delta import Delta, DeltaError, decode_wire_value, encode_wire_value
from .engines import RecoveredState, StorageEngine, StorageEngineError
from .schema import Schema

logger = logging.getLogger(__name__)

__all__ = [
    "FSYNC_POLICIES",
    "WalStorageEngine",
]

FSYNC_POLICIES = KNOBS_BY_NAME["REPRO_WAL_FSYNC"].choices

DEFAULT_CHECKPOINT_INTERVAL = 256

Row = Tuple[object, ...]

_MAGIC = b"RW"
_HEADER = struct.Struct(">2sBII")  # magic, kind, payload length, crc32
_KIND_BATCH = 0x44       # "D": one committed (version, delta) batch
_KIND_CHECKPOINT = 0x53  # "S": one full (version, relations) snapshot

_WAL_NAME = "wal.log"
_LOCK_NAME = "LOCK"
_CHECKPOINT_PREFIX = "checkpoint-"
_CHECKPOINT_SUFFIX = ".snap"

#: guard against absurd length headers produced by corruption: no single
#: record payload may claim more bytes than this (1 GiB)
_MAX_PAYLOAD = 1 << 30


def _crc(kind: int, payload: bytes) -> int:
    return zlib.crc32(payload, zlib.crc32(bytes((kind,))))


def _frame(kind: int, payload: bytes) -> bytes:
    return _HEADER.pack(_MAGIC, kind, len(payload), _crc(kind, payload)) + payload


def _parse_frames(data: bytes) -> Tuple[List[Tuple[int, bytes, int]], int]:
    """Parse ``data`` into ``(kind, payload, end offset)`` frames.

    Stops at the first bad frame (wrong magic, unknown kind, impossible
    length, truncated payload, CRC mismatch) and returns the valid prefix
    plus the offset of the first invalid byte (== ``len(data)`` when the
    whole buffer parsed) — the caller truncates there.
    """
    frames: List[Tuple[int, bytes, int]] = []
    pos = 0
    while pos + _HEADER.size <= len(data):
        magic, kind, length, crc = _HEADER.unpack_from(data, pos)
        if magic != _MAGIC or kind not in (_KIND_BATCH, _KIND_CHECKPOINT):
            break
        if length > _MAX_PAYLOAD or pos + _HEADER.size + length > len(data):
            break
        payload = data[pos + _HEADER.size:pos + _HEADER.size + length]
        if _crc(kind, payload) != crc:
            break
        pos += _HEADER.size + length
        frames.append((kind, payload, pos))
    return frames, pos


def _sync_directory(path: str) -> None:
    """fsync a directory so renames/creates inside it are durable (best effort)."""
    if not hasattr(os, "O_DIRECTORY"):
        return
    try:
        fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _canonical_relations(relations: Mapping[str, FrozenSet[Row]]) -> Tuple:
    return tuple(
        (name, tuple(sorted(relations[name], key=repr)))
        for name in sorted(relations)
    )


def _lock_directory(directory: str) -> int:
    """Take ``directory``'s single-writer lock; returns the descriptor holding it.

    A non-blocking exclusive ``flock`` on ``<directory>/LOCK``: a directory
    another engine holds — in this process or any other — is refused at once
    instead of interleaving two writers' appends.
    """
    fd = os.open(os.path.join(directory, _LOCK_NAME), os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError as exc:
        os.close(fd)
        raise StorageEngineError(
            f"WAL directory {directory} is locked by another storage engine"
        ) from exc
    return fd


def _release_lock(state: Dict[str, object]) -> None:
    fd = state.get("lock")
    if fd is not None:
        state["lock"] = None
        os.close(fd)


def _cleanup(state: Dict[str, object]) -> None:
    """Close the WAL handle, release the directory lock and drop ephemeral
    directories (finalizer-safe).

    Runs via ``weakref.finalize`` when an engine is garbage collected without
    :meth:`WalStorageEngine.close` — the net that keeps the full-suite
    ``REPRO_DURABLE=on`` leg from leaking temp directories when a test never
    closes its store.
    """
    handle = state.get("file")
    if handle is not None:
        state["file"] = None
        try:
            handle.close()
        except Exception:  # noqa: BLE001 - nothing to do at GC time
            pass
    _release_lock(state)
    if state.get("ephemeral"):
        shutil.rmtree(str(state["dir"]), ignore_errors=True)


class WalStorageEngine(StorageEngine):
    """Durable delta WAL + snapshot checkpoints in one directory.

    ``directory`` is created if missing and owns four kinds of files:
    ``wal.log`` (the current log segment), ``checkpoint-<version>.snap``
    (the newest snapshot; older ones are deleted after a successful
    checkpoint), transient ``*.tmp`` files from interrupted checkpoints and
    ``LOCK``, whose ``flock`` the engine holds while it is open.

    One engine instance belongs to exactly one store; the engine takes its
    own lock around file mutation, so a store shared across threads (the
    service's group-commit leader runs in whichever worker thread takes the
    commit lock) appends safely.
    """

    name = "wal"

    def __init__(
        self,
        directory: str,
        *,
        fsync: Optional[str] = None,
        checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
        _ephemeral: bool = False,
    ):
        if fsync is None:
            fsync = setting("REPRO_WAL_FSYNC")
        if fsync not in FSYNC_POLICIES:
            raise StorageEngineError(
                f"unknown fsync policy {fsync!r}; have {FSYNC_POLICIES}"
            )
        self.directory = os.path.abspath(directory)
        self.fsync_policy = fsync
        self.checkpoint_interval = max(0, checkpoint_interval)
        os.makedirs(self.directory, exist_ok=True)
        lock_fd = _lock_directory(self.directory)
        self._lock = threading.Lock()
        self._closed = False
        self._last_version = -1
        self._batches_since_checkpoint = 0
        self._counters: Dict[str, int] = {
            "wal_appends": 0,
            "fsyncs": 0,
            "checkpoints": 0,
            "recovered_batches": 0,
            "recovered_version": -1,
            "orphan_frames": 0,
            "checkpoint_version": -1,
            "checkpoint_failures": 0,
            "tail_dropped_bytes": 0,
        }
        # registry twins of the legacy counter dict (docs/observability.md);
        # the dict keeps its historical keys, the registry gets dotted names
        registry = _metrics.get_registry()
        self._m_appends = registry.counter("wal.appends")
        self._m_fsyncs = registry.counter("wal.fsyncs")
        self._m_checkpoints = registry.counter("wal.checkpoints")
        self._m_checkpoint_failures = registry.counter("wal.checkpoint_failures")
        self._m_recovered = registry.counter("wal.recovered_batches")
        self._m_tail_dropped = registry.counter("wal.tail_dropped_bytes")
        # the engine-agnostic commit count, shared with the in-memory engine
        self._m_batches = registry.counter("storage.batches")
        # the shared mutable state the GC finalizer closes/cleans — keep it
        # in sync with the live handle so an unclosed engine never leaks the
        # file descriptor or (for ephemeral engines) the directory
        self._state: Dict[str, object] = {
            "file": None,
            "lock": lock_fd,
            "dir": self.directory,
            "ephemeral": _ephemeral,
        }
        self._finalizer = weakref.finalize(self, _cleanup, self._state)
        self._open_wal()

    @classmethod
    def ephemeral(cls, **kwargs) -> "WalStorageEngine":
        """An engine on a fresh private temp directory, removed on close.

        This is what ``REPRO_DURABLE=on`` without ``REPRO_WAL_DIR`` builds:
        every store exercises the full WAL/checkpoint path, but nothing
        outlives the store — the configuration the durable test-suite leg
        runs under.
        """
        directory = tempfile.mkdtemp(prefix="repro-wal-")
        return cls(directory, _ephemeral=True, **kwargs)

    # -- file plumbing -----------------------------------------------------------

    @property
    def _wal_path(self) -> str:
        return os.path.join(self.directory, _WAL_NAME)

    def _open_wal(self) -> None:
        handle = open(self._wal_path, "ab")
        self._state["file"] = handle

    def _file(self):
        handle = self._state.get("file")
        if self._closed or handle is None:
            raise StorageEngineError("storage engine is closed")
        return handle

    def _maybe_fsync(self, handle, *, force: bool = False) -> None:
        if force or self.fsync_policy == "commit":
            if self.fsync_policy != "never":
                _faults.fire("wal.fsync")
                with _trace.span("wal.fsync"):
                    os.fsync(handle.fileno())
                self._counters["fsyncs"] += 1
                self._m_fsyncs.inc()

    def _append(self, kind: int, payload: bytes, *, force_sync: bool = False) -> None:
        handle = self._file()
        lag = _faults.delay("wal.io.slow")
        if lag > 0.0:
            time.sleep(lag)
        try:
            start = handle.tell()
        except OSError:
            start = None
        try:
            _faults.fire("wal.append")
            frame = _frame(kind, payload)
            if _faults.fired("wal.append.torn"):
                # a torn write: persist a strict prefix of the frame, then
                # fail the append as a crashed disk would — recovery must
                # CRC-reject the partial record and truncate it away
                handle.write(frame[: max(1, len(frame) // 2)])
                handle.flush()
                raise OSError(5, "injected torn append")
            handle.write(frame)
            # always flush to the OS: an in-process "crash" (the store object
            # dying) must never lose an acked commit; fsync policy only
            # decides what survives an OS/power failure
            handle.flush()
            self._maybe_fsync(handle, force=force_sync)
        except (OSError, StorageEngineError, _faults.FaultError) as exc:
            # best effort un-tear: drop whatever partial frame made it out so
            # the log stays a clean record boundary and a retried commit does
            # not land behind garbage.  This matters even when the write
            # itself succeeded and only the fsync failed: the commit is
            # reported failed and will be retried under the same version, so
            # leaving the un-acked frame behind would put two frames with
            # one version in the log
            if start is not None:
                try:
                    handle.truncate(start)
                    handle.seek(start)
                except OSError:
                    pass
            raise StorageEngineError(f"WAL append failed: {exc}") from exc

    # -- checkpoint files --------------------------------------------------------

    def _checkpoint_path(self, version: int) -> str:
        return os.path.join(
            self.directory, f"{_CHECKPOINT_PREFIX}{version:016d}{_CHECKPOINT_SUFFIX}"
        )

    def _checkpoint_files(self) -> List[Tuple[int, str]]:
        """``(version, path)`` of every checkpoint file, newest first."""
        found: List[Tuple[int, str]] = []
        for entry in os.listdir(self.directory):
            if not (
                entry.startswith(_CHECKPOINT_PREFIX)
                and entry.endswith(_CHECKPOINT_SUFFIX)
            ):
                continue
            stem = entry[len(_CHECKPOINT_PREFIX):-len(_CHECKPOINT_SUFFIX)]
            try:
                version = int(stem)
            except ValueError:
                continue
            found.append((version, os.path.join(self.directory, entry)))
        found.sort(reverse=True)
        return found

    def _write_checkpoint(
        self, relations: Mapping[str, FrozenSet[Row]], version: int
    ) -> None:
        payload = encode_wire_value((version, _canonical_relations(relations)))
        final = self._checkpoint_path(version)
        tmp = final + ".tmp"
        try:
            with open(tmp, "wb") as handle:
                _faults.fire("wal.checkpoint.write")
                handle.write(_frame(_KIND_CHECKPOINT, payload))
                handle.flush()
                if self.fsync_policy != "never":
                    os.fsync(handle.fileno())
                    self._counters["fsyncs"] += 1
                    self._m_fsyncs.inc()
            _faults.fire("wal.checkpoint.rename")
            os.replace(tmp, final)
            if self.fsync_policy != "never":
                _sync_directory(self.directory)
        except (OSError, _faults.FaultError) as exc:
            # never leave a half-written snapshot where recovery could find
            # it: the temp file is garbage the moment the write failed
            self._counters["checkpoint_failures"] += 1
            self._m_checkpoint_failures.inc()
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise StorageEngineError(f"checkpoint write failed: {exc}") from exc
        # the checkpoint is durable: the log prefix and older snapshots are
        # dead weight from here on
        handle = self._file()
        try:
            handle.truncate(0)
            handle.seek(0)
            self._maybe_fsync(handle, force=True)
        except OSError as exc:
            raise StorageEngineError(f"WAL truncation failed: {exc}") from exc
        for old_version, path in self._checkpoint_files():
            if old_version < version:
                try:
                    os.remove(path)
                except OSError:
                    pass
        self._counters["checkpoints"] += 1
        self._counters["checkpoint_version"] = version
        _metrics.get_registry().gauge("wal.checkpoint_version").set(version)
        self._batches_since_checkpoint = 0

    def _load_latest_checkpoint(
        self, schema: Schema
    ) -> Optional[Tuple[int, Dict[str, FrozenSet[Row]]]]:
        """The newest readable checkpoint — a corrupt one falls back to older."""
        for version, path in self._checkpoint_files():
            try:
                with open(path, "rb") as handle:
                    data = handle.read()
            except OSError:
                continue
            frames, _end = _parse_frames(data)
            if len(frames) != 1 or frames[0][0] != _KIND_CHECKPOINT:
                continue
            try:
                stored_version, rows_by_name = decode_wire_value(frames[0][1])
                relations = {
                    str(name): frozenset(tuple(row) for row in rows)
                    for name, rows in rows_by_name
                }
            except (DeltaError, TypeError, ValueError):
                continue
            if stored_version != version:
                continue
            if not set(relations) <= set(schema.relation_names):
                continue
            for name in schema.relation_names:
                relations.setdefault(name, frozenset())
            return version, relations
        return None

    # -- the StorageEngine contract ----------------------------------------------

    def recover(self, schema: Schema) -> Optional[RecoveredState]:
        with self._lock:
            checkpoint = self._load_latest_checkpoint(schema)
            try:
                with open(self._wal_path, "rb") as handle:
                    data = handle.read()
            except OSError:
                data = b""
            frames, valid_end = _parse_frames(data)
            if checkpoint is None and not frames:
                # fresh directory (or nothing readable): a fresh start, but
                # still drop a corrupt tail so new appends start clean
                self._truncate_to(valid_end, len(data))
                return None
            if checkpoint is not None:
                version, relations = checkpoint
                mutable = {name: set(rows) for name, rows in relations.items()}
            else:
                version = 0
                mutable = {name: set() for name in schema.relation_names}
            checkpoint_version = version if checkpoint is not None else -1
            replayed = 0
            orphans = 0
            # decode once up front so duplicate versions can be resolved
            # *before* anything is applied: a version can appear twice when
            # an append failed after its bytes reached the file (the commit
            # was never acked, the store retried under the same version and
            # the retry's frame landed later).  The LAST frame of a version
            # is the acked history; earlier ones are orphans to skip
            decoded = []
            for kind, payload, frame_end in frames:
                if kind != _KIND_BATCH:
                    decoded.append((kind, None, None, frame_end))
                    continue
                try:
                    batch_version, delta_wire = decode_wire_value(payload)
                    delta = Delta.from_wire(delta_wire)
                except (DeltaError, TypeError, ValueError):
                    decoded.append((kind, None, None, frame_end))
                    continue
                if not isinstance(batch_version, int):
                    decoded.append((kind, None, None, frame_end))
                    continue
                decoded.append((kind, batch_version, delta, frame_end))
            last_frame_for = {
                batch_version: index
                for index, (kind, batch_version, _d, _e) in enumerate(decoded)
                if batch_version is not None
            }
            # everything up to `good_end` is meaningful history; a frame that
            # parses but cannot replay (checkpoint kind inside the log, a
            # version gap, an undecodable delta) ends the history *there*, so
            # the truncation below keeps future appends contiguous with the
            # recovered state instead of burying them behind dead frames
            good_end = 0
            for index, (kind, batch_version, delta, frame_end) in enumerate(decoded):
                if kind != _KIND_BATCH:
                    break  # a checkpoint frame inside the log is corruption
                if batch_version is None:
                    break  # framed-but-meaningless: stop at the last good batch
                if last_frame_for[batch_version] != index:
                    orphans += 1
                    good_end = frame_end
                    continue  # an un-acked duplicate: the later frame wins
                if batch_version <= version:
                    good_end = frame_end
                    continue  # pre-checkpoint tail not yet truncated at crash
                if batch_version != version + 1:
                    break  # a gap means lost records: stop before it
                for name, rows in delta.deleted.items():
                    if name not in mutable:
                        mutable[name] = set()
                    mutable[name] -= rows
                for name, rows in delta.inserted.items():
                    if name not in mutable:
                        mutable[name] = set()
                    mutable[name] |= rows
                version = batch_version
                replayed += 1
                good_end = frame_end
            if orphans:
                logger.warning(
                    "recovery skipped %d orphaned frame(s) whose version was "
                    "re-appended by a commit retry; the acked (last) frames "
                    "were replayed",
                    orphans,
                )
            self._truncate_to(good_end, len(data))
            self._last_version = version
            self._counters["recovered_batches"] = replayed
            self._counters["recovered_version"] = version
            self._counters["orphan_frames"] = orphans
            self._counters["checkpoint_version"] = checkpoint_version
            self._m_recovered.inc(replayed)
            registry = _metrics.get_registry()
            registry.gauge("wal.recovered_version").set(version)
            registry.gauge("wal.checkpoint_version").set(checkpoint_version)
            return RecoveredState(
                relations={name: frozenset(rows) for name, rows in mutable.items()},
                version=version,
                checkpoint_version=checkpoint_version,
                recovered_batches=replayed,
            )

    def _truncate_to(self, valid_end: int, total: int) -> None:
        if valid_end >= total:
            return
        dropped = total - valid_end
        # a torn tail is expected after a crash mid-append, but it is data
        # the caller believed unacked being discarded — say so, with the
        # offsets a post-mortem needs
        logger.warning(
            "WAL torn tail: dropping %d trailing byte(s) of %s "
            "(valid prefix ends at offset %d of %d)",
            dropped, self._wal_path, valid_end, total,
        )
        self._counters["tail_dropped_bytes"] += dropped
        self._m_tail_dropped.inc(dropped)
        handle = self._file()
        try:
            handle.truncate(valid_end)
            handle.seek(valid_end)
            self._maybe_fsync(handle, force=True)
        except OSError as exc:
            raise StorageEngineError(f"WAL tail truncation failed: {exc}") from exc

    def bootstrap(
        self, relations: Mapping[str, FrozenSet[Row]], version: int
    ) -> None:
        """Persist the initial state as checkpoint zero.

        Without this a store opened from a non-empty ``initial`` database
        would recover to *initial-less* replay — the log alone cannot
        reconstruct rows it never saw.
        """
        with self._lock:
            if any(relations.values()):
                self._write_checkpoint(relations, version)
                # the bootstrap snapshot is a durability necessity, not a
                # periodic checkpoint — keep the cadence counter untouched
                self._counters["checkpoints"] -= 1
            self._last_version = version

    def commit_batch(self, delta: Delta, version: int) -> None:
        with self._lock:
            _faults.fire("storage.commit_batch")
            if self._last_version >= 0 and version != self._last_version + 1:
                raise StorageEngineError(
                    f"non-contiguous commit: version {version} after "
                    f"{self._last_version}"
                )
            payload = encode_wire_value((version, delta.to_wire()))
            with _trace.span("wal.append", version=version, bytes=len(payload)):
                self._append(_KIND_BATCH, payload)
            self._last_version = version
            self._counters["wal_appends"] += 1
            self._m_appends.inc()
            self._m_batches.inc()
            self._batches_since_checkpoint += 1

    def wants_checkpoint(self) -> bool:
        with self._lock:
            return (
                self.checkpoint_interval > 0
                and self._batches_since_checkpoint >= self.checkpoint_interval
            )

    def checkpoint(
        self, relations: Mapping[str, FrozenSet[Row]], version: int
    ) -> None:
        with self._lock:
            self._file()  # raises when closed
            with _trace.span("wal.checkpoint", version=version):
                self._write_checkpoint(relations, version)
            self._m_checkpoints.inc()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handle = self._state.get("file")
            if handle is not None:
                try:
                    handle.flush()
                    if self.fsync_policy == "close":
                        os.fsync(handle.fileno())
                        self._counters["fsyncs"] += 1
                        self._m_fsyncs.inc()
                except (OSError, ValueError):
                    pass
            # the finalizer does the actual close/cleanup and is idempotent
            self._finalizer()

    def crash(self) -> None:
        """Testing hook: die without the orderly close.

        Drops the file handle and the directory lock exactly as an abrupt
        process death would leave the directory — every acked append is
        already flushed to the OS, any torn tail the test wants must be carved
        with direct file truncation.  Ephemeral directories are *not* removed:
        the point of crashing is to recover from what is left.
        """
        with self._lock:
            self._closed = True
            self._state["ephemeral"] = False
            handle = self._state.get("file")
            self._state["file"] = None
            if handle is not None:
                try:
                    handle.close()
                except OSError:
                    pass
            _release_lock(self._state)

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "engine": self.name,
                "fsync_policy": self.fsync_policy,
                "checkpoint_interval": self.checkpoint_interval,
                "wal_dir": self.directory,
                **self._counters,
            }

    def __repr__(self) -> str:
        return (
            f"WalStorageEngine(dir={self.directory!r}, "
            f"fsync={self.fsync_policy!r}, "
            f"interval={self.checkpoint_interval})"
        )
