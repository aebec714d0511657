"""A small transactional storage engine.

The paper's motivation is integrity maintenance: a database system executes
transactions and must keep a set of integrity constraints true, either by

* **run-time monitoring** — execute the transaction, check the constraints on
  the new state, and roll back if any is violated (potentially expensive), or
* **static verification** — evaluate a weakest precondition on the *current*
  state and refuse to run the transaction when the precondition fails
  (``if wpc(T, alpha) then T else abort``).

This module provides the substrate both strategies run on: an in-memory,
multi-relation store with snapshots, explicit transactions (begin /
``commit_unchecked`` / rollback) and write logging; it checks no constraint
itself.  The integrity-maintenance engine in :mod:`repro.core.maintenance` builds the two
strategies on top of it and the E13 benchmark compares them; the concurrent
transaction service in :mod:`repro.service` uses it as the canonical tail of
its MVCC version chain.

**Isolation semantics.**  Writes inside an open transaction are *buffered* in
the write log, not applied to the committed state; the committed state only
changes at commit time.  All reads issued through the store — :meth:`Store.scan`,
:meth:`Store.contains`, :meth:`Store.cardinality` and :meth:`Store.snapshot`
— are **read-your-own-writes**: during an open transaction they overlay the
pending write log on the committed state, so a transaction always sees its own
effects.  :meth:`Store.committed_snapshot` and :meth:`Store.pin` are the
exceptions by design: they expose the last *committed* state (never the open
log), which is what concurrent snapshot readers must see while a writer is
mid-transaction.

The store intentionally keeps the same data model as
:class:`~repro.db.database.Database` (sets of tuples per relation) so that a
snapshot can be handed to the logic evaluator or to a transaction object
without conversion cost beyond freezing the sets.  All public methods take an
internal re-entrant lock, so one store may be shared by a committing writer
and any number of snapshot readers; the single-writer discipline (one open
transaction at a time) is unchanged.

**Layering.**  Persistence lives *below* the store, behind the pluggable
:class:`~repro.db.engines.StorageEngine` interface: the write log, the RYOW
overlay stay up here, while every committed batch
is offered to the engine — as one :class:`~repro.db.delta.Delta` — before the
in-memory state mutates.  The default :class:`~repro.db.engines.MemoryEngine`
keeps the historical everything-in-RAM behavior; the durable
:class:`~repro.db.wal.WalStorageEngine` (``Store(..., engine=...)`` or
``REPRO_DURABLE=on``) appends each batch to a CRC-guarded write-ahead log,
checkpoints periodically, and lets a new store recover the committed state
after a crash (see :mod:`repro.db.wal` and ``docs/durability.md``).  Stores
with durable engines hold file handles: close them (:meth:`Store.close`, or
use the store as a context manager) when done.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .database import Database
from .delta import Delta
from .engines import MemoryEngine, StorageEngine, StorageEngineError, engine_from_env
from .schema import Schema

logger = logging.getLogger(__name__)

__all__ = [
    "StorageError",
    "WriteOp",
    "TransactionStats",
    "Store",
]

Row = Tuple[object, ...]


class StorageError(RuntimeError):
    """Raised on misuse of the storage engine (no open transaction, etc.)."""


@dataclass(frozen=True)
class WriteOp:
    """A single logged write: an insert or delete of one tuple."""

    kind: str  # "insert" | "delete"
    relation: str
    row: Row

    def inverse(self) -> "WriteOp":
        """The operation that undoes this one."""
        return WriteOp("delete" if self.kind == "insert" else "insert",
                       self.relation, self.row)


@dataclass
class TransactionStats:
    """Bookkeeping about committed / aborted transactions, used by benchmarks.

    Counters are updated through :meth:`add`, which takes an internal lock, so
    the stats object can be shared by the service's worker threads; reading
    the individual fields is a plain attribute access (a single aligned read).
    """

    committed: int = 0
    aborted: int = 0
    rolled_back_writes: int = 0
    # how each changing commit advanced the committed snapshot: a successor
    # state that already existed was promoted, or the snapshot had to be
    # re-patched under the store lock by the next reader (the degraded mode)
    snapshot_promoted: int = 0
    snapshot_repatched: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def add(self, **deltas: float) -> None:
        """Atomically add ``deltas`` to the named counters."""
        with self._lock:
            for name, amount in deltas.items():
                setattr(self, name, getattr(self, name) + amount)
        registry = _metrics.get_registry()
        for name, amount in deltas.items():
            registry.counter(f"store.{name}").inc(amount)

    def reset(self) -> None:
        with self._lock:
            self.committed = 0
            self.aborted = 0
            self.rolled_back_writes = 0
            self.snapshot_promoted = 0
            self.snapshot_repatched = 0


def _fold_ops(ops: Sequence[WriteOp]) -> Delta:
    """Fold an in-order write log into its net :class:`Delta`.

    The log only records *effective* writes, so an insert later deleted (or
    vice versa) cancels exactly.
    """
    inserted: Dict[str, Set[Row]] = {}
    deleted: Dict[str, Set[Row]] = {}
    for op in ops:
        if op.kind == "insert":
            doomed = deleted.get(op.relation)
            if doomed is not None and op.row in doomed:
                doomed.discard(op.row)
            else:
                inserted.setdefault(op.relation, set()).add(op.row)
        else:
            added = inserted.get(op.relation)
            if added is not None and op.row in added:
                added.discard(op.row)
            else:
                deleted.setdefault(op.relation, set()).add(op.row)
    return Delta(inserted, deleted)


class Store:
    """An in-memory transactional store over a fixed schema.

    Outside a transaction, reads are allowed but writes raise
    :class:`StorageError`.  Inside a transaction, writes are buffered in the
    write log and overlaid on every read (read-your-own-writes); ``rollback``
    simply discards the log, and :meth:`commit_unchecked` folds it into the
    committed state.  Integrity is not checked here: the caller (the
    service's admission, or a maintenance policy) decided what to check
    before it commits.

    Each commit that changes the store advances :attr:`version`;
    :meth:`pin` atomically returns ``(version, committed snapshot)``, the
    anchor the MVCC service hands to concurrently running transactions.
    """

    def __init__(
        self,
        schema: Schema,
        initial: Optional[Database] = None,
        *,
        engine: Optional[StorageEngine] = None,
    ):
        self._lock = threading.RLock()
        self._schema = schema
        # the persistence layer: every committed batch is offered to the
        # engine before the in-memory state moves (see _commit_pending);
        # `engine=None` defers to REPRO_DURABLE/REPRO_WAL_DIR, whose default
        # is the in-memory engine — the historical behavior
        self._engine = engine if engine is not None else engine_from_env()
        self._closed = False
        if initial is not None and initial.schema != schema:
            raise StorageError("initial database has a different schema")
        # committed rows only — an open transaction's writes live in the log
        self._data: Dict[str, Set[Row]] = {name: set() for name in schema.relation_names}
        # the last materialised committed snapshot plus the committed writes
        # applied since; the next snapshot() patches the old one with the
        # accumulated delta, so repeated snapshots along a transaction stream
        # cost O(delta) instead of O(database) — and form the provenance
        # chain Delta.between recovers updates from
        self._snapshot: Optional[Database] = None
        self._since_snapshot: List[WriteOp] = []
        recovered = self._engine.recover(schema)
        if recovered is not None:
            # a durable past beats `initial`: the engine's state is what the
            # last process acked to its clients (schema row validation is the
            # last line of defense against a tampered/foreign log directory)
            for name in schema.relation_names:
                rel_schema = schema[name]
                self._data[name] = {
                    rel_schema.validate_tuple(row)
                    for row in recovered.relations.get(name, ())
                }
            self._version = recovered.version
        else:
            self._version = 0
            if initial is not None:
                for name in schema.relation_names:
                    self._data[name] = set(initial.relation(name))
                self._snapshot = initial
                # persist the starting state: the log alone cannot
                # reconstruct rows it never saw
                self._engine.bootstrap(
                    {name: frozenset(rows) for name, rows in self._data.items()},
                    self._version,
                )
        self._log: Optional[List[WriteOp]] = None
        # net overlay of the open log, per relation (kept in sync with _log
        # so reads and effectiveness checks are O(1) per row)
        self._pending_add: Dict[str, Set[Row]] = {}
        self._pending_del: Dict[str, Set[Row]] = {}
        # tentative (committed + pending) snapshot, cached by log length
        self._tentative: Optional[Tuple[int, Database]] = None
        self.stats = TransactionStats()

    # -- lifecycle ---------------------------------------------------------------

    @property
    def engine(self) -> StorageEngine:
        """The storage engine persisting this store's commits."""
        return self._engine

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def storage_stats(self) -> Dict[str, object]:
        """The engine's durability counters (wal_appends, fsyncs, checkpoints,
        recovered_batches, ...), surfaced alongside :attr:`stats`."""
        with self._lock:
            return self._engine.stats()

    def close(self) -> None:
        """Release the storage engine (file handles, temp directories).

        An open transaction is rolled back — its writes were never acked.
        Idempotent; a closed store still serves reads (the committed state
        stays in memory) but refuses new transactions.
        """
        with self._lock:
            if self._closed:
                return
            if self._log is not None:
                self.rollback()
            self._closed = True
            self._engine.close()

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- schema and snapshots ----------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def version(self) -> int:
        """A counter advanced by every commit that changed the store."""
        with self._lock:
            return self._version

    def committed_snapshot(self) -> Database:
        """The last *committed* state as an immutable :class:`Database`.

        Never includes the open transaction's write log — this is the view a
        concurrent snapshot reader is allowed to see while a writer is
        mid-transaction.  Cached: a commit that came with its successor state
        (the tentative snapshot a read inside the transaction built, or the
        group-commit leader's final state — see :meth:`commit_unchecked`) already promoted it, so this is
        a field read.  Otherwise the cached snapshot is patched forward here,
        under the store lock, by the deltas committed since —
        ``Database.apply_delta``, which still copies each touched relation's
        row set — and ``stats.snapshot_repatched`` counts it.
        """
        with self._lock:
            if self._snapshot is None:
                relations = {k: list(v) for k, v in self._data.items()}
                self._snapshot = Database(self._schema, relations)
                self._since_snapshot.clear()
            elif self._since_snapshot:
                self._snapshot = self._snapshot.apply_delta(
                    _fold_ops(self._since_snapshot)
                )
                self._since_snapshot.clear()
                self.stats.add(snapshot_repatched=1)
            return self._snapshot

    def pin(self) -> Tuple[int, Database]:
        """Atomically, the current ``(version, committed snapshot)`` pair.

        This is the MVCC anchor: the returned database is immutable, so the
        caller can evaluate against it for as long as it likes while other
        threads commit; ``version`` tells the service which later deltas are
        *foreign* to the pinned view.
        """
        with self._lock:
            return self._version, self.committed_snapshot()

    def snapshot(self) -> Database:
        """An immutable :class:`Database` view of the current state.

        **Read-your-own-writes**: during an open transaction this is the
        *tentative* state — the committed snapshot patched with the open
        write log (as a :class:`Delta`, so it provenance-chains off the
        committed state and shares everything untouched with it).
        Outside a transaction it is simply the committed snapshot.
        """
        with self._lock:
            committed = self.committed_snapshot()
            if not self._log:  # no transaction open, or nothing written yet
                return committed
            if self._tentative is not None and self._tentative[0] == len(self._log):
                return self._tentative[1]
            tentative = committed.apply_delta(_fold_ops(self._log))
            self._tentative = (len(self._log), tentative)
            return tentative

    def cardinality(self, relation: Optional[str] = None) -> int:
        """Row count, read-your-own-writes (sees the open write log)."""
        with self._lock:
            if relation is not None:
                return len(self._effective_rows(relation))
            return sum(
                len(self._effective_rows(name)) for name in self._schema.relation_names
            )

    def contains(self, relation: str, row: Sequence[object]) -> bool:
        """Is ``row`` present, read-your-own-writes?

        During an open transaction the pending write log is consulted first:
        a row inserted by the transaction is visible, a row it deleted is
        not, regardless of the committed state.
        """
        with self._lock:
            return self._present(relation, self._schema[relation].validate_tuple(row))

    def _present(self, relation: str, row: Row) -> bool:
        """Is the validated ``row`` visible through the open log (locked)?

        Two or three set probes: the pending overlay, then the committed
        rows — never a materialised ``(rows - removed) | added``.
        """
        if self._log is not None:
            if row in self._pending_add.get(relation, ()):
                return True
            if row in self._pending_del.get(relation, ()):
                return False
        return row in self._data[relation]

    def scan(self, relation: str) -> Iterable[Row]:
        """Iterate over the rows of ``relation`` (a stable copy).

        Read-your-own-writes: rows inserted by the open transaction are
        included, rows it deleted are excluded.
        """
        with self._lock:
            return list(self._effective_rows(relation))

    def _effective_rows(self, relation: str) -> Set[Row]:
        """Committed rows overlaid with the open write log (internal, locked).

        Materialises a full copy of the relation once the transaction wrote
        to it, so only the whole-relation reads (``scan``, ``cardinality``)
        use it; per-row decisions go through :meth:`_present`.
        """
        rows = self._data[relation]
        if self._log is None:
            return rows
        added = self._pending_add.get(relation)
        removed = self._pending_del.get(relation)
        if not added and not removed:
            return rows
        return (rows - (removed or set())) | (added or set())

    # -- transactions ----------------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        with self._lock:
            return self._log is not None

    def begin(self) -> None:
        with self._lock:
            if self._closed:
                raise StorageError("the store is closed")
            if self._log is not None:
                raise StorageError("a transaction is already open")
            self._log = []
            self._pending_add = {}
            self._pending_del = {}
            self._tentative = None

    def insert(self, relation: str, row: Sequence[object]) -> bool:
        """Insert ``row``; returns ``True`` if the (effective) store changed."""
        with self._lock:
            log = self._require_transaction()
            validated = self._schema[relation].validate_tuple(row)
            removed = self._pending_del.get(relation)
            if removed is not None and validated in removed:
                removed.discard(validated)  # re-insert of a row this txn deleted
            elif self._present(relation, validated):
                return False
            else:
                self._pending_add.setdefault(relation, set()).add(validated)
            log.append(WriteOp("insert", relation, validated))
            return True

    def delete(self, relation: str, row: Sequence[object]) -> bool:
        """Delete ``row``; returns ``True`` if the (effective) store changed."""
        with self._lock:
            log = self._require_transaction()
            validated = self._schema[relation].validate_tuple(row)
            added = self._pending_add.get(relation)
            if added is not None and validated in added:
                added.discard(validated)  # delete of a row this txn inserted
            elif not self._present(relation, validated):
                return False
            else:
                self._pending_del.setdefault(relation, set()).add(validated)
            log.append(WriteOp("delete", relation, validated))
            return True

    def apply_delta(self, delta: Delta) -> int:
        """Inside a transaction, apply ``delta``; returns the writes performed.

        Every write goes through :meth:`insert`/:meth:`delete`, so the write
        log (and therefore rollback) sees the delta tuple by tuple.
        """
        with self._lock:
            self._require_transaction()
            changed = 0
            for name, rows in delta.deleted.items():
                for row in rows:
                    changed += self.delete(name, row)
            for name, rows in delta.inserted.items():
                for row in rows:
                    changed += self.insert(name, row)
            return changed

    def apply_database(self, target: Database) -> None:
        """Inside a transaction, make the store equal to ``target``.

        Used to run paper-style transactions (functions on databases) against
        the store while retaining the write log for rollback.  When ``target``
        descends from the store's current snapshot via ``apply_delta``
        provenance (the shape every transaction built from functional updates
        produces), the net delta is replayed directly — O(|delta|) instead of
        an O(database) relation-by-relation diff.
        """
        with self._lock:
            self._require_transaction()
            if target.schema != self._schema:
                raise StorageError("target database has a different schema")
            if (
                self._snapshot is not None
                and not self._since_snapshot
                and not self._log
            ):
                # effective state == self._snapshot: a provenance chain from
                # it gives the net update without reading one unchanged row
                delta = Delta.between(self._snapshot, target)
                if delta is not None:
                    self.apply_delta(delta)
                    return
            for name in self._schema.relation_names:
                current = set(self._effective_rows(name))
                wanted = set(target.relation(name))
                for row in current - wanted:
                    self.delete(name, row)
                for row in wanted - current:
                    self.insert(name, row)

    def rollback(self) -> int:
        """Discard every write of the open transaction; returns the number undone.

        Writes are buffered, so rollback never touches the committed state —
        it drops the log (the ``never needs a roll-back`` property static
        verification pays for is about *logical* aborts; physically, aborting
        is free either way).
        """
        with self._lock:
            log = self._require_transaction()
            undone = len(log)
            self._discard_pending()
            self.stats.add(rolled_back_writes=undone, aborted=1)
            return undone

    def commit_unchecked(self, successor: Optional[Database] = None) -> None:
        """Commit the open transaction; the store checks no constraint.

        Integrity is the caller's: maintenance policies establish it before
        they commit (a weakest-precondition check before execution, or a
        post-state check), and the service's group-commit pipeline commits
        what its admission controller let through.

        ``successor`` is the post-commit state, if the caller already built
        it (the group-commit leader holds ``current ⊕ batch``).  It becomes
        the committed snapshot — so the next :meth:`pin` patches nothing —
        only after the storage engine accepted the batch, and only if its
        ``apply_delta`` provenance from the current committed snapshot
        composes to exactly the delta being committed; a successor that
        cannot prove that is ignored and the snapshot is re-patched as if
        none had been given.
        """
        with self._lock:
            self._require_transaction()
            self._commit_pending(successor)
            self.stats.add(committed=1)

    # -- internal ------------------------------------------------------------------

    def _commit_pending(self, successor: Optional[Database] = None) -> None:
        """Fold the open write log into the committed state (locked).

        With a durable engine this is the **group-commit WAL append unit**:
        the whole batch goes to the engine as one framed delta record (one
        append, at most one fsync) *before* the in-memory state moves.  An
        engine refusal raises with the transaction still open and the
        committed state untouched — the commit was never acked.
        """
        log = self._log
        assert log is not None
        # the *net* overlay decides whether anything changed: a log whose
        # writes cancel out (insert then delete of the same row) must not
        # advance the version — `version` promises one bump per commit that
        # changed the store, and the MVCC validation window keys on it
        changed = any(self._pending_add.values()) or any(self._pending_del.values())
        if changed:
            delta = Delta(self._pending_add, self._pending_del)
            with _trace.span(
                "store.commit_batch", version=self._version + 1, rows=len(delta)
            ):
                self._engine.commit_batch(delta, self._version + 1)
        for name, rows in self._pending_add.items():
            self._data[name] |= rows
        for name, rows in self._pending_del.items():
            self._data[name] -= rows
        if changed:
            promoted: Optional[Database] = None
            if self._snapshot is not None and not self._since_snapshot:
                if self._tentative is not None and self._tentative[0] == len(log):
                    # the tentative snapshot the last read saw *is* the
                    # new committed state
                    promoted = self._tentative[1]
                elif (
                    successor is not None
                    and Delta.between(self._snapshot, successor) == delta
                ):
                    promoted = successor
            if promoted is not None:
                self._snapshot = promoted
                self.stats.add(snapshot_promoted=1)
            else:
                self._since_snapshot.extend(log)
            self._version += 1
        self._discard_pending()
        if changed and self._engine.wants_checkpoint():
            # snapshot checkpoints bound recovery time: the engine persists
            # the full committed state and truncates its log.  The commit
            # itself is already durable (the WAL append above succeeded), so
            # a failed checkpoint must not surface as a failed commit — the
            # log tail still reconstructs this state; recovery just replays
            # more of it
            try:
                self._engine.checkpoint(
                    {name: frozenset(rows) for name, rows in self._data.items()},
                    self._version,
                )
            except StorageEngineError as exc:
                logger.warning(
                    "checkpoint at version %d failed (%s); commit is durable "
                    "via the log, recovery will replay a longer tail",
                    self._version, exc,
                )
                _metrics.get_registry().counter("storage.checkpoint_errors").inc()

    def _discard_pending(self) -> None:
        self._log = None
        self._pending_add = {}
        self._pending_del = {}
        self._tentative = None

    def _require_transaction(self) -> List[WriteOp]:
        if self._log is None:
            raise StorageError("no open transaction")
        return self._log

    def __repr__(self) -> str:
        with self._lock:
            sizes = {
                name: len(self._effective_rows(name))
                for name in self._schema.relation_names
            }
            return (
                f"Store(schema={self._schema!r}, sizes={sizes}, "
                f"version={self._version}, in_txn={self._log is not None})"
            )
