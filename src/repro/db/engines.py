"""The pluggable storage-engine layer beneath :class:`~repro.db.storage.Store`.

The store splits into two layers: *up top*, the buffered write log and the
read-your-own-writes overlay (in :mod:`repro.db.storage`); *below*, a :class:`StorageEngine` that decides what
happens to each committed group-commit batch.  The engine is the durability
boundary — the store acks a commit only after the engine accepted the batch.

Two implementations ship:

* :class:`MemoryEngine` — the default.  Accepts everything and remembers
  nothing; byte-for-byte the pre-refactor behavior (a restart loses the
  store).
* :class:`~repro.db.wal.WalStorageEngine` — the durable engine: appends each
  batch as a framed, CRC-guarded :meth:`Delta.to_bytes
  <repro.db.delta.Delta.to_bytes>` record to a write-ahead log, writes
  periodic snapshot checkpoints with log truncation, and recovers by loading
  the latest checkpoint and replaying the tail.

Engine selection follows explicit-beats-ambient: ``Store(..., engine=...)``
wins, else the ``REPRO_DURABLE`` / ``REPRO_WAL_DIR`` environment knobs decide
(see :func:`engine_from_env`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from .. import faults as _faults
from ..settings import setting
from .delta import Delta
from .schema import Schema

__all__ = [
    "StorageEngineError",
    "RecoveredState",
    "StorageEngine",
    "MemoryEngine",
    "engine_from_env",
]

Row = Tuple[object, ...]


class StorageEngineError(RuntimeError):
    """Raised when a storage engine cannot accept or recover state."""


@dataclass(frozen=True)
class RecoveredState:
    """What an engine found on open: the committed state it can prove durable.

    ``relations`` maps relation names to recovered row sets, ``version`` is
    the store version of the last durable commit, and the counters describe
    how the state was reassembled (surfaced through the engine's stats).
    """

    relations: Mapping[str, FrozenSet[Row]]
    version: int
    checkpoint_version: int
    recovered_batches: int


class StorageEngine:
    """The persistence contract behind :class:`~repro.db.storage.Store`.

    The store calls, in order: :meth:`recover` once on open (then
    :meth:`bootstrap` if nothing was recovered and the store starts from a
    non-empty initial database), :meth:`commit_batch` once per committed
    group-commit batch *before* the in-memory state mutates (a raise here
    fails the commit — the transaction stays open and can be rolled back),
    :meth:`wants_checkpoint`/:meth:`checkpoint` after a successful commit,
    and :meth:`close` exactly once at the end of the store's life.
    """

    name = "abstract"

    def recover(self, schema: Schema) -> Optional[RecoveredState]:
        """The durable state from a previous life, or ``None`` for a fresh start."""
        raise NotImplementedError

    def bootstrap(self, relations: Mapping[str, FrozenSet[Row]], version: int) -> None:
        """Record the store's initial state (called when :meth:`recover` found nothing)."""
        raise NotImplementedError

    def commit_batch(self, delta: Delta, version: int) -> None:
        """Make one committed batch durable; raising fails the commit."""
        raise NotImplementedError

    def wants_checkpoint(self) -> bool:
        """Should the store offer a checkpoint after the commit it just acked?"""
        return False

    def checkpoint(self, relations: Mapping[str, FrozenSet[Row]], version: int) -> None:
        """Write a snapshot checkpoint of the full committed state at ``version``."""
        raise NotImplementedError

    def close(self) -> None:
        """Release every resource the engine holds (idempotent)."""
        raise NotImplementedError

    def stats(self) -> Dict[str, object]:
        """Durability counters, surfaced by ``Store.storage_stats()``."""
        return {"engine": self.name}


class MemoryEngine(StorageEngine):
    """The default engine: everything stays in the store's own memory.

    Behavior-identical to the pre-engine store — commits are acked
    unconditionally, nothing survives the process.  Counters exist so the
    stats surface is uniform across engines.
    """

    name = "memory"

    def __init__(self) -> None:
        self._batches = 0
        from ..obs import metrics as _metrics

        self._m_batches = _metrics.get_registry().counter("storage.batches")

    def recover(self, schema: Schema) -> Optional[RecoveredState]:
        return None

    def bootstrap(self, relations: Mapping[str, FrozenSet[Row]], version: int) -> None:
        pass

    def commit_batch(self, delta: Delta, version: int) -> None:
        _faults.fire("storage.commit_batch")
        self._batches += 1
        self._m_batches.inc()

    def wants_checkpoint(self) -> bool:
        return False

    def checkpoint(self, relations: Mapping[str, FrozenSet[Row]], version: int) -> None:
        pass

    def close(self) -> None:
        pass

    def stats(self) -> Dict[str, object]:
        return {
            "engine": self.name,
            "batches": self._batches,
            "wal_appends": 0,
            "fsyncs": 0,
            "checkpoints": 0,
            "recovered_batches": 0,
        }


def engine_from_env() -> StorageEngine:
    """The engine selected by ``REPRO_DURABLE`` / ``REPRO_WAL_DIR``.

    ``REPRO_DURABLE=on`` builds a :class:`~repro.db.wal.WalStorageEngine`:
    rooted at ``REPRO_WAL_DIR`` when set (shared across store lifetimes —
    that is what makes restart recovery work), else at a private temporary
    directory that is deleted again when the store closes (the
    full-test-suite durable leg runs this way).  Otherwise (``off``, unset,
    or a typo, which warns) it returns a fresh :class:`MemoryEngine`.
    """
    if setting("REPRO_DURABLE") == "off":
        return MemoryEngine()
    from .wal import WalStorageEngine

    wal_dir = setting("REPRO_WAL_DIR")
    if wal_dir:
        return WalStorageEngine(wal_dir)
    return WalStorageEngine.ephemeral()
