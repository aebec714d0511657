"""MVCC snapshots: versioned reads, tracked transactions, optimistic validation.

The service runs every client transaction against an **immutable snapshot**
of the store — a pinned ``(version, Database)`` pair — while other clients
commit freely.  Whether the transaction may then commit is decided by
*delta-based optimistic validation*: the composition of the deltas committed
since the transaction's snapshot (its **foreign delta**) is checked against
the transaction's read set and write delta.

Three layers live here:

* :class:`SnapshotManager` — owns the version chain on top of
  :meth:`repro.db.storage.Store.pin`: it remembers the per-commit
  :class:`~repro.db.delta.Delta` of a bounded window of recent versions and
  can answer "what happened between version ``v`` and now?" as one composed
  delta (O(|changes|), never O(database)).
* :class:`SnapshotTransaction` — the client handle.  Reads go through it and
  are *tracked* (rows probed, relations scanned, predicates evaluated);
  writes are buffered into a private delta and overlaid on every read
  (read-your-own-writes), mirroring the store's own transaction semantics.
* :func:`validate` — the conflict test: write-write overlap on touched rows
  (:meth:`Delta.overlaps`), row- and relation-level read-write overlap, and
  **predicate re-validation** — each predicate the transaction read is
  re-evaluated under the foreign delta, streamed to its first witness (at
  ``base ⊕ foreign ⊕ own``, the transaction's own writes at read time
  layered on top by :meth:`Database.apply_delta`), so a predicate read only
  conflicts when a concurrent commit actually *changed its truth value*,
  not merely because it touched the same relation.

The guarantee (checked end-to-end by the serializability stress suite): a
history of committed transactions is equivalent to executing them serially in
commit order.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Deque, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..db.database import Database
from ..db.delta import Delta
from ..db.storage import Store
from ..engine.backend import Backend, active_backend
from ..logic.signature import EMPTY_SIGNATURE, Signature
from ..logic.syntax import Formula
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..transactions.base import Transaction

__all__ = [
    "ServiceError",
    "ReadSet",
    "SnapshotTransaction",
    "SnapshotManager",
    "validate",
]

Row = Tuple[object, ...]


class ServiceError(RuntimeError):
    """Raised on misuse of the transaction service or one of its handles."""


class ReadSet:
    """Everything a transaction observed: the input to conflict validation.

    ``rows`` records point probes (:meth:`SnapshotTransaction.contains`),
    ``scanned`` whole-relation reads, and ``predicates`` formula evaluations
    — each with the transaction's own delta *at read time*, so validation can
    reconstruct exactly the state the value was observed against.
    ``opaque`` marks a transaction whose reads were not tracked (a paper-style
    function on databases): validation must then be maximally conservative.
    """

    __slots__ = ("scanned", "rows", "predicates", "opaque")

    def __init__(self) -> None:
        self.scanned: Set[str] = set()
        self.rows: Dict[str, Set[Row]] = {}
        # (formula, own-delta at read time) -> observed truth value
        self.predicates: Dict[Tuple[Formula, Delta], bool] = {}
        self.opaque = False

    def __repr__(self) -> str:
        probes = sum(len(r) for r in self.rows.values())
        return (
            f"ReadSet(scans={sorted(self.scanned)}, probes={probes}, "
            f"predicates={len(self.predicates)}, opaque={self.opaque})"
        )


class SnapshotTransaction:
    """A client transaction pinned to one immutable snapshot version.

    All reads are **read-your-own-writes**: the handle's buffered write delta
    is overlaid on the pinned snapshot (via ``apply_delta``, so the view
    shares every untouched row and index with the snapshot).
    All reads are also **tracked** in :attr:`reads`, which is what makes
    fine-grained optimistic validation possible — prefer the handle API over
    :meth:`apply`, whose reads are opaque and validate conservatively.
    """

    def __init__(
        self,
        base: Database,
        version: int,
        signature: Signature = EMPTY_SIGNATURE,
        backend: Optional[Backend] = None,
    ):
        self.base = base
        self.version = version
        self.signature = signature
        self.backend = backend if backend is not None else active_backend()
        self.reads = ReadSet()
        self._ins: Dict[str, Set[Row]] = {}
        self._del: Dict[str, Set[Row]] = {}
        self._write_count = 0
        self._view: Optional[Tuple[int, Database]] = None

    # -- the transaction's own state --------------------------------------------

    def delta(self) -> Delta:
        """The buffered write delta (normalized against the snapshot)."""
        return Delta(self._ins, self._del)

    @property
    def db(self) -> Database:
        """The read-your-own-writes view: snapshot ⊕ own writes (cached)."""
        if self._view is not None and self._view[0] == self._write_count:
            return self._view[1]
        delta = self.delta()
        view = self.base if delta.is_empty() else self.base.apply_delta(delta)
        self._view = (self._write_count, view)
        return view

    # -- tracked reads -----------------------------------------------------------

    def contains(self, relation: str, row: Sequence[object]) -> bool:
        """Point probe; recorded as a row-level read."""
        validated = self.base.schema[relation].validate_tuple(row)
        self.reads.rows.setdefault(relation, set()).add(validated)
        if validated in self._ins.get(relation, ()):
            return True
        if validated in self._del.get(relation, ()):
            return False
        return validated in self.base.relation(relation)

    def scan(self, relation: str) -> FrozenSet[Row]:
        """Whole-relation read; recorded as a relation-level scan."""
        self.reads.scanned.add(relation)
        return self.db.relation(relation)

    def evaluate(self, formula: Formula, **assignment: object) -> bool:
        """Evaluate a sentence against the RYOW view; recorded as a predicate read.

        The recorded entry keeps the transaction's own delta as of this read,
        so validation re-checks the predicate against *exactly* the state it
        was observed on, shifted by the foreign delta.
        """
        if assignment:
            from ..logic.terms import Const

            formula = formula.substitute(
                {name: Const(value) for name, value in assignment.items()}
            )
        value = self.backend.evaluate(formula, self.db, signature=self.signature)
        self.reads.predicates.setdefault((formula, self.delta()), value)
        return value

    # -- buffered writes ---------------------------------------------------------

    def insert(self, relation: str, row: Sequence[object]) -> bool:
        """Buffer an insert; returns ``True`` if the effective view changed.

        The effectiveness probe (is the row already present?) is itself a
        tracked read: whether this write made it into the delta depends on
        it, so validation must notice a foreign commit flipping it.
        """
        validated = self.base.schema[relation].validate_tuple(row)
        self.reads.rows.setdefault(relation, set()).add(validated)
        removed = self._del.get(relation)
        if removed is not None and validated in removed:
            removed.discard(validated)
        elif (
            validated in self._ins.get(relation, ())
            or validated in self.base.relation(relation)
        ):
            return False
        else:
            self._ins.setdefault(relation, set()).add(validated)
        self._write_count += 1
        return True

    def delete(self, relation: str, row: Sequence[object]) -> bool:
        """Buffer a delete; returns ``True`` if the effective view changed.

        The effectiveness probe is a tracked read, exactly as for
        :meth:`insert`.
        """
        validated = self.base.schema[relation].validate_tuple(row)
        self.reads.rows.setdefault(relation, set()).add(validated)
        added = self._ins.get(relation)
        if added is not None and validated in added:
            added.discard(validated)
        elif (
            validated in self._del.get(relation, ())
            or validated not in self.base.relation(relation)
        ):
            return False
        else:
            self._del.setdefault(relation, set()).add(validated)
        self._write_count += 1
        return True

    def apply(self, transaction: Transaction) -> Database:
        """Run a paper-style transaction (a function on databases) in this handle.

        The post-state's delta (recovered through ``apply_delta`` provenance)
        is merged into the write buffer.  The transaction's *reads* cannot be
        observed from the outside, so the read set is marked opaque —
        validation then treats any non-empty foreign delta as a conflict.
        Prefer the tracked handle API when the transaction can be expressed
        through it.
        """
        before = self.db
        after = transaction.apply(before)
        delta = Delta.between(before, after)
        if delta is None:
            delta = Delta.from_databases(before, after)
        for name, rows in delta.deleted.items():
            for row in rows:
                self.delete(name, row)
        for name, rows in delta.inserted.items():
            for row in rows:
                self.insert(name, row)
        self.reads.opaque = True
        return self.db

    def __repr__(self) -> str:
        return (
            f"SnapshotTransaction(version={self.version}, "
            f"delta={self.delta()!r}, reads={self.reads!r})"
        )


def validate(
    reads: ReadSet,
    write_delta: Delta,
    foreign: Delta,
    base: Database,
    signature: Signature = EMPTY_SIGNATURE,
    backend: Optional[Backend] = None,
) -> Optional[str]:
    """Decide whether a transaction survives the foreign delta.

    Returns ``None`` when the transaction is still valid — committing its
    delta after the foreign one is equivalent to having run it serially — or
    a human-readable conflict reason otherwise.  Checks, cheapest first:

    1. opaque read sets conflict with any non-empty foreign delta;
    2. write-write: a row touched by both deltas;
    3. scans: the foreign delta touched a relation read wholesale;
    4. row probes: the foreign delta touched a row that was probed;
    5. predicates: re-evaluation — the foreign delta changed the observed
       truth value of a formula the transaction read (evaluated on
       ``base ⊕ foreign ⊕ own-writes-at-read-time``, streamed to its first
       witness).
    """
    if foreign.is_empty():
        return None
    _metrics.get_registry().counter("service.validate.checks").inc()
    with _trace.span("service.validate", foreign_rows=len(foreign)) as span:
        reason = _validate(reads, write_delta, foreign, base, signature, backend)
        span.annotate(result="ok" if reason is None else "conflict")
        return reason


def _validate(
    reads: ReadSet,
    write_delta: Delta,
    foreign: Delta,
    base: Database,
    signature: Signature,
    backend: Optional[Backend],
) -> Optional[str]:
    if reads.opaque:
        return "opaque read set: concurrent commits are indistinguishable from conflicts"
    common = write_delta.overlapping_rows(foreign)
    if common:
        name = next(iter(common))
        return f"write-write overlap on {name!r}: {sorted(common[name], key=repr)[:3]}"
    foreign_touched = foreign.touched()
    for relation in reads.scanned:
        if relation in foreign_touched:
            return f"scan of {relation!r} invalidated by a foreign write"
    for relation, rows in reads.rows.items():
        clash = rows & foreign.rows_in(relation)
        if clash:
            return f"read row overwritten in {relation!r}: {sorted(clash, key=repr)[:3]}"
    if reads.predicates:
        if backend is None:
            backend = active_backend()
        shifted = base.apply_delta(foreign)
        for (formula, own), value in reads.predicates.items():
            # the predicate was observed on `base ⊕ own`; its value at the
            # commit point is `(base ⊕ foreign) ⊕ own` — built by apply_delta,
            # which carries the indexes the streamed check probes
            after = shifted.apply_delta(own)
            if backend.evaluate(formula, after, signature=signature) != value:
                return f"predicate changed under foreign delta: {formula}"
    return None


class SnapshotManager:
    """The version chain: pinned snapshots plus a window of per-commit deltas.

    Every committed batch appends ``(version, delta)``; the composition of
    the suffix after version ``v`` is the foreign delta of a transaction
    pinned at ``v``.  The window is bounded (``history_limit`` commits): a
    transaction older than the window cannot be validated precisely and is
    treated as conflicted (it retries against a fresh snapshot), which keeps
    memory O(window · delta) on an unbounded commit stream.

    Durable stores stay coherent for free: a store recovered from a WAL
    resumes at its recovered version ``N`` (not 0), the history window starts
    empty, and ``foreign_delta`` for any pin at ``>= N`` is the empty delta —
    exactly as if the service had just started on a fresh store whose version
    happened to be ``N``.  Engine-level checkpoints happen inside the store's
    commit lock, so a ``pin()`` can never observe a half-checkpointed state.
    """

    def __init__(self, store: Store, history_limit: int = 1024):
        self._store = store
        self._lock = threading.Lock()
        self._history: Deque[Tuple[int, Delta]] = deque(maxlen=history_limit)

    @property
    def store(self) -> Store:
        return self._store

    def begin(
        self,
        signature: Signature = EMPTY_SIGNATURE,
        backend: Optional[Backend] = None,
    ) -> SnapshotTransaction:
        """A new transaction handle pinned to the current committed version."""
        version, snapshot = self._store.pin()
        return SnapshotTransaction(snapshot, version, signature, backend)

    def record(self, version: int, delta: Delta) -> None:
        """Remember the delta that produced ``version`` (called under the commit lock)."""
        with self._lock:
            self._history.append((version, delta))

    def foreign_delta(self, since_version: int) -> Optional[Delta]:
        """The net delta committed after ``since_version``, or ``None``.

        ``None`` means the window no longer covers the pinned version — the
        caller must treat the transaction as conflicted.  The common cases
        are O(1) (nothing committed) and O(suffix) otherwise.
        """
        with self._lock:
            head = self._store.version
            if since_version >= head:
                return Delta()
            composed: Optional[Delta] = None
            expected = since_version + 1
            for version, delta in self._history:
                if version <= since_version:
                    continue
                if version != expected:
                    return None  # a commit fell out of (or bypassed) the window
                composed = delta if composed is None else composed.then(delta)
                expected = version + 1
            if expected != head + 1:
                return None  # the store advanced through a commit we never saw
            return composed
