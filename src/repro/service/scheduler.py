"""The transaction service: optimistic execution, WPC admission, group commit.

:class:`TransactionService` turns one :class:`~repro.db.storage.Store` into a
multi-client transaction processor.  The lifecycle of one client transaction:

1. **Pin** — the worker thread gets a :class:`SnapshotTransaction` against
   the current committed ``(version, Database)`` (no locks held while the
   client code runs).
2. **Execute optimistically** — the client reads through the tracked handle
   (read-your-own-writes) and buffers writes as a delta.  This is the
   parallel part: any number of transactions execute simultaneously against
   their immutable snapshots.
3. **Group commit** — the worker enqueues a commit request and the first
   worker to take the commit lock becomes the *leader*: it drains the queue,
   validates each request against the deltas committed since its snapshot
   (plus the earlier requests of the same batch), runs the admission-decided
   constraint work, composes the surviving deltas with
   :meth:`Delta.then <repro.db.delta.Delta.then>`, and applies the whole
   batch to the canonical store in **one** ``apply_delta`` — one write-log
   pass, one version bump, amortised over the batch.
   :meth:`~TransactionService.execute_many` enqueues a caller's whole batch
   at once (the serving front-end passes each network flush), so one drain
   takes it whole.  The state the leader
   validated the last request against *is* the post-batch state, so it is
   handed to the store as the new committed snapshot: each surviving request
   costs one ``Database.apply_delta`` and the next ``pin()`` patches nothing.
   With a durable store (``REPRO_DURABLE=on``) the batch is also the WAL
   unit: one framed delta append and at most one fsync cover every commit in
   the batch, and outcomes are reported to clients only after the storage
   engine accepted the batch (an engine refusal aborts the whole batch, the
   store's committed state untouched).
4. **Retry** — a conflicted transaction re-runs against a fresh snapshot; a
   transaction still conflicted after ``max_retries`` optimistic attempts is
   executed by the leader *inside* the commit section (the serial fallback),
   which cannot conflict, so every transaction terminates.

Admission (see :mod:`repro.service.admission`) decides the constraint work
per request, by the shape of the program it runs: the caller's thread builds
that program once — ``template.build(*params)`` for a template item, the
transaction itself for a bare :class:`Transaction` — and takes its verdicts
from :meth:`AdmissionController.guard_for` before the request is queued, so
the leader only reads them.  ``static`` shapes commit with zero checks,
``guarded`` shapes get one pre-state guard evaluation (no rollback ever),
everything else — a callable with no registered template included — gets a
post-state check: at the rows the request inserted for a constraint in
denial form (:func:`~repro.core.simplification.holds_after_update`; the
invariant that assumes is established by one full check the first time such
a request arrives), of the whole constraint otherwise.

A ``commit_timeout`` bounds every wait in the pipeline, so a deadlock (or a
stuck leader) surfaces as a :class:`ServiceError` instead of a hang — both
the stress suite and CI rely on this to fail fast.
"""

from __future__ import annotations

import contextvars
import logging
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .. import faults as _faults
from ..core.maintenance import Constraint
from ..core.simplification import holds_after_update
from ..core.wpc import PreservationVerdict
from ..db.database import Database
from ..db.delta import Delta
from ..db.engines import StorageEngineError
from ..db.storage import Store
from ..engine.backend import Backend, active_backend
from ..logic.signature import EMPTY_SIGNATURE, Signature
from ..logic.syntax import BOTTOM
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..settings import current as current_settings
from ..transactions.base import Transaction, TransactionAbortedSignal
from .admission import AdmissionController, TransactionTemplate
from .snapshots import ServiceError, SnapshotManager, SnapshotTransaction, validate

logger = logging.getLogger(__name__)

__all__ = [
    "classify_commit_error",
    "ServiceStats",
    "TxnOutcome",
    "TxnItem",
    "TransactionService",
]

#: transparent retries of a retryable commit failure before it surfaces
COMMIT_RETRIES = 3

#: exponential backoff between transient-failure retries: base doubling per
#: attempt, capped — a flapping disk gets breathing room without parking a
#: client for seconds
_BACKOFF_BASE = 0.01
_BACKOFF_CAP = 0.5

Work = Union[Transaction, Callable[[SnapshotTransaction], object]]


def classify_commit_error(exc: BaseException) -> bool:
    """Is this commit-path failure worth retrying?

    *Retryable* failures are environmental: the storage engine refused the
    batch (flaky disk, injected fault), an OS-level I/O error, a timeout.
    Everything else — constraint logic blowing up, a TypeError in client
    work — is deterministic and retrying would only repeat it.
    """
    return isinstance(
        exc, (StorageEngineError, OSError, TimeoutError, _faults.FaultError)
    )


#: dotted registry names mirroring each :class:`ServiceStats` field
#: (``batches``/``batched_commits``/``max_batch`` live under ``service.commit``
#: alongside the batch-size histogram; the admission-decided check counters
#: live under ``service.admission`` next to the controller's own counters)
_SERVICE_METRICS = {
    "submitted": "service.submitted",
    "committed": "service.committed",
    "read_only_commits": "service.read_only_commits",
    "conflicts": "service.conflicts",
    "retries": "service.retries",
    "serial_fallbacks": "service.serial_fallbacks",
    "rejected": "service.rejected",
    "aborted": "service.aborted",
    "batches": "service.commit.batches",
    "batched_commits": "service.commit.batched_commits",
    "static_skips": "service.admission.static_skips",
    "guard_checks": "service.admission.guard_checks",
    "runtime_checks": "service.admission.runtime_checks",
    "runtime_full_checks": "service.admission.runtime_full_checks",
    "transient_retries": "service.transient_retries",
    "commit_failures": "service.commit_failures",
}

#: group-commit amortisation is the interesting distribution — count buckets
_BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


class ServiceStats:
    """Thread-safe counters describing the service's life so far."""

    _FIELDS = (
        "submitted", "committed", "read_only_commits", "conflicts", "retries",
        "serial_fallbacks", "rejected", "aborted", "batches", "batched_commits",
        "max_batch", "static_skips", "guard_checks", "runtime_checks",
        "runtime_full_checks", "transient_retries", "commit_failures",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        for name in self._FIELDS:
            setattr(self, name, 0)
        registry = _metrics.get_registry()
        self._instruments = {
            field: registry.counter(name) for field, name in _SERVICE_METRICS.items()
        }
        self._m_max_batch = registry.gauge("service.commit.max_batch")
        self._m_batch_size = registry.histogram(
            "service.commit.batch_size", buckets=_BATCH_SIZE_BUCKETS
        )

    def add(self, **deltas: int) -> None:
        with self._lock:
            for name, amount in deltas.items():
                setattr(self, name, getattr(self, name) + amount)
        for name, amount in deltas.items():
            instrument = self._instruments.get(name)
            if instrument is not None:
                instrument.inc(amount)

    def saw_batch(self, size: int) -> None:
        with self._lock:
            self.batches += 1
            self.batched_commits += size
            if size > self.max_batch:
                self.max_batch = size
        self._instruments["batches"].inc()
        self._instruments["batched_commits"].inc(size)
        self._m_max_batch.set(self.max_batch)
        self._m_batch_size.observe(size)

    def as_dict(self) -> Dict[str, int]:
        with self._lock:
            return {name: getattr(self, name) for name in self._FIELDS}

    def __repr__(self) -> str:
        return f"ServiceStats({self.as_dict()!r})"


@dataclass(frozen=True)
class TxnOutcome:
    """What happened to one submitted transaction.

    ``status`` is ``"committed"`` (its delta is durable at ``version``),
    ``"rejected"`` (an admission guard refused it before execution effects —
    the no-rollback path), or ``"aborted"`` (a runtime constraint check on
    the post-state failed, or the commit path itself failed).  Conflicts
    never surface here: they are retried internally and only show up in
    ``attempts`` and the service stats.  ``retryable`` marks an abort caused
    by a *transient* commit-path failure (storage refusal, I/O error): the
    transaction itself is fine and a later resubmission may succeed — the
    service already spent its own ``commit_retries`` budget before giving
    this back.
    """

    status: str
    reason: str = ""
    version: int = -1
    attempts: int = 1
    retryable: bool = False

    @property
    def committed(self) -> bool:
        return self.status == "committed"


class TxnItem(NamedTuple):
    """:meth:`~TransactionService.execute`'s arguments, plus the context the
    item's spans open in (``None``: a copy of the caller's)."""

    work: Work
    template: Optional[str] = None
    params: Tuple = ()
    tag: Optional[object] = None
    deadline: Optional[float] = None
    context: Optional[contextvars.Context] = None


class _CommitRequest:
    __slots__ = (
        "handle", "delta", "template", "admitted", "work", "serial", "tag",
        "deadline", "done", "status", "reason", "version", "retryable", "error",
    )

    def __init__(
        self, handle, delta, template, admitted, work, serial, tag=None, deadline=None
    ):
        self.handle = handle
        self.delta = delta
        self.template = template
        #: ``(verdicts, values)`` from ``guard_for``: per constraint name, the
        #: verdict for the request's program's shape (empty: every constraint
        #: checked at run time), and the values of the shape's slots
        self.admitted = admitted
        self.work = work
        self.serial = serial
        self.tag = tag
        #: the client's absolute ``time.monotonic()`` deadline, if any
        self.deadline = deadline
        self.done = threading.Event()
        self.status = "pending"
        self.reason = ""
        self.version = -1
        self.retryable = False
        #: set when the wait ran out before an outcome (see ``_give_up``)
        self.error: Optional[ServiceError] = None


class _Run:
    """One item of ``execute_many``: its lifecycle generator and context."""

    __slots__ = ("context", "steps", "request", "wake", "result")

    def __init__(self, context: contextvars.Context, steps) -> None:
        self.context = context
        self.steps = steps
        self.request: Optional[_CommitRequest] = None
        self.wake = 0.0
        self.result: Union[TxnOutcome, Exception, None] = None

    def step(self, failure: Optional[Exception] = None) -> bool:
        """Resume (raising ``failure`` in); True if it stopped at ``request``."""
        try:
            if failure is None:
                yielded = self.context.run(next, self.steps)
            else:
                yielded = self.context.run(self.steps.throw, failure)
        except StopIteration as stop:
            self.result = stop.value
        except Exception as exc:  # noqa: BLE001 - the item's own failure
            self.result = exc
        else:
            if isinstance(yielded, _CommitRequest):
                self.request = yielded
                return True
            self.wake = yielded
        return False


class TransactionService:
    """A multi-client, MVCC + group-commit transaction processor over a store.

    ``store`` may be a :class:`Store` or a plain :class:`Database` (wrapped).
    ``constraints`` are maintained across every commit; *how* each commit
    pays for them is decided by the admission controller from the shape of
    the program the commit runs — register transaction templates with
    :meth:`register` so that callables submitted under a template's name
    have a program to judge.  The store only applies what admission let
    through (``commit_unchecked``).
    """

    def __init__(
        self,
        store: Union[Store, Database],
        constraints: Sequence[Constraint] = (),
        signature: Signature = EMPTY_SIGNATURE,
        admission: Optional[AdmissionController] = None,
        max_retries: int = 8,
        commit_timeout: float = 60.0,
        backend: Optional[Backend] = None,
        history_limit: int = 1024,
        owns_store: bool = False,
    ):
        self.backend = backend if backend is not None else active_backend()
        self._owns_store = owns_store
        if isinstance(store, Database):
            store = Store(store.schema, store)
            # the service built this store, so the service must close it —
            # with REPRO_DURABLE=on it holds WAL file handles
            self._owns_store = True
        self.store = store
        self.constraints = list(constraints)
        self.signature = signature
        self.admission = (
            admission if admission is not None else AdmissionController(self.constraints)
        )
        self.snapshots = SnapshotManager(store, history_limit=history_limit)
        self.max_retries = max_retries
        self.commit_timeout = commit_timeout
        self.commit_retries = COMMIT_RETRIES
        #: every knob as parsed when the service was built (see observability)
        self.settings = current_settings()
        self.stats = ServiceStats()
        self._queue_lock = threading.Lock()
        self._queue: List[_CommitRequest] = []
        self._commit_lock = threading.Lock()
        #: followers block here instead of polling: a leader notifies after
        #: releasing the commit lock, which is also (because outcomes are
        #: published before the release) the moment every request it drained
        #: has its ``done`` event set — so one notify wakes both "my commit
        #: finished" and "the leader seat is free" waiters
        self._commit_cond = threading.Condition()
        #: tags of committed *writer* transactions, in commit order — the
        #: serial history every committed run is equivalent to (appended under
        #: the commit lock; read-only commits never enter the pipeline and
        #: serialize at their snapshot point instead)
        self.commit_log: List[object] = []
        #: the constraints hold on the committed state — and so on every
        #: later one, each commit being checked or admitted under them;
        #: established lazily by one full check (see ``_process``)
        self._invariant_known = False

    def close(self) -> None:
        """Release service-owned resources.

        A store the service created itself (one passed as a plain
        :class:`Database`, or ``owns_store=True``) is closed, releasing the
        storage engine's file handles under ``REPRO_DURABLE=on``.
        Idempotent.
        """
        if self._owns_store:
            self._owns_store = False
            self.store.close()

    # -- registration and reads ----------------------------------------------------

    def register(self, template: TransactionTemplate) -> None:
        """Record a transaction template's builder (see :mod:`.admission`)."""
        self.admission.register(template)

    def begin(self) -> SnapshotTransaction:
        """A fresh tracked handle pinned to the committed head (for ad-hoc use)."""
        return self.snapshots.begin(self.signature, self.backend)

    def snapshot(self) -> Database:
        """The current committed state (never sees in-flight transactions)."""
        return self.store.committed_snapshot()

    def invariant_holds(self) -> bool:
        """Do all constraints hold on the committed state?"""
        state = self.snapshot()
        return all(c.holds(state, self.signature, self.backend) for c in self.constraints)

    # -- the client entry points -----------------------------------------------------

    def execute(
        self,
        work: Work,
        template: Optional[str] = None,
        params: Tuple = (),
        tag: Optional[object] = None,
        deadline: Optional[float] = None,
    ) -> TxnOutcome:
        """Run one client transaction to a final outcome (thread-safe).

        ``work`` is either a callable taking a :class:`SnapshotTransaction`
        (the tracked API — precise conflict detection) or a paper-style
        :class:`Transaction` (opaque reads — validated conservatively).
        A transaction is judged by its own shape; a callable by the program
        the registered template ``template`` builds from ``params``, and
        without one every constraint is checked at runtime.

        Conflicts are retried internally against fresh snapshots; after
        ``max_retries`` optimistic rounds the transaction is executed by the
        group-commit leader inside the critical section, so this method
        always terminates with a definitive outcome (or raises
        :class:`ServiceError` on timeout).  Transient commit-path failures
        (see :func:`classify_commit_error`) are retried up to
        ``commit_retries`` times with exponential backoff before surfacing
        as a ``retryable`` abort.

        ``deadline`` is an absolute ``time.monotonic()`` instant: once it
        passes, conflict/transient retry loops stop and the transaction
        surfaces its current outcome (or a :class:`ServiceError` if it never
        reached a leader).  Callers propagate it down from their own client
        budget; ``None`` keeps the classic commit_timeout-only behavior.

        This is :meth:`execute_many` of one item.
        """
        (result,) = self.execute_many([TxnItem(work, template, params, tag, deadline)])
        if isinstance(result, Exception):
            raise result
        return result

    def execute_many(
        self, items: Sequence[TxnItem]
    ) -> List[Union[TxnOutcome, Exception]]:
        """Run several client transactions, committed together (thread-safe).

        Each item gets :meth:`execute`'s treatment, in rounds: the calling
        thread runs the optimistic phase of every pending item, enqueues the
        survivors at once and leads or waits once, so one drain (one WAL
        append) takes the whole round.  Conflicted and transiently failed
        items go on to the next round.  Entry ``i`` is item ``i``'s outcome,
        or the exception that ended it (:class:`ServiceError` on a timeout
        or deadline, or whatever its work raised).
        """
        runs = [
            _Run(
                contextvars.copy_context() if item.context is None else item.context,
                self._lifecycle(item),
            )
            for item in items
        ]
        live = runs
        while live:
            now = time.monotonic()
            ready = [run for run in live if run.wake <= now]
            if not ready:
                # every pending item is backing off a transient failure
                time.sleep(min(run.wake for run in live) - now)
                continue
            queued = [run for run in ready if run.step()]
            if queued:
                try:
                    # the leader's spans nest under the first item's, as a
                    # lone transaction's do under its own
                    queued[0].context.run(
                        self._submit_and_wait, [run.request for run in queued]
                    )
                except Exception as exc:  # noqa: BLE001 - ends every item of the round
                    for run in queued:
                        run.step(exc)
            live = [run for run in live if run.result is None]
        return [run.result for run in runs]

    def _lifecycle(self, item: TxnItem):
        """One item's life: yields each :class:`_CommitRequest` to commit (and
        reads its outcome when resumed) or a monotonic instant to sleep until;
        returns the :class:`TxnOutcome`."""
        work, template = item.work, item.template
        if isinstance(work, Transaction):
            program = transaction = work
            work = lambda handle: handle.apply(transaction)  # noqa: E731
        else:
            registered = self.admission.template(template)
            program = registered.build(*item.params) if registered is not None else None
        admitted = self.admission.guard_for(program) if program is not None else ({}, ())
        self.stats.add(submitted=1)
        with _trace.span("service.txn", template=template) as txn_span:
            outcome = yield from self._attempts(
                work, template, admitted, item.tag, item.deadline
            )
            txn_span.annotate(status=outcome.status, attempts=outcome.attempts)
        return outcome

    def _attempts(
        self,
        work: Callable[[SnapshotTransaction], object],
        template: Optional[str],
        admitted: Tuple[Dict[str, PreservationVerdict], Tuple[object, ...]],
        tag: Optional[object],
        deadline: Optional[float],
    ):
        attempts = 0
        transient = 0
        while True:
            if deadline is not None and time.monotonic() >= deadline:
                raise ServiceError(
                    "deadline exceeded before the transaction reached an outcome"
                )
            attempts += 1
            serial = attempts - transient > self.max_retries
            if serial:
                self.stats.add(serial_fallbacks=1)
                logger.warning(
                    "serial fallback: transaction (template=%s) still conflicted "
                    "after %d optimistic attempt(s) (max_retries=%d); executing "
                    "inside the group-commit critical section",
                    template, attempts - 1, self.max_retries,
                )
                request = _CommitRequest(
                    None, Delta(), template, admitted, work, True, tag, deadline
                )
            else:
                with _trace.span("service.txn_attempt", attempt=attempts):
                    handle = self.begin()
                    try:
                        work(handle)
                    except TransactionAbortedSignal as exc:
                        self.stats.add(rejected=1)
                        return TxnOutcome("rejected", str(exc), attempts=attempts)
                    delta = handle.delta()
                if delta.is_empty() and not handle.reads.opaque:
                    # a read-only transaction is serializable at its snapshot
                    # point; nothing to validate, nothing to apply
                    self.stats.add(committed=1, read_only_commits=1)
                    return TxnOutcome(
                        "committed", version=handle.version, attempts=attempts
                    )
                request = _CommitRequest(
                    handle, delta, template, admitted, work, False, tag, deadline
                )
            yield request
            if request.error is not None:
                raise request.error
            if request.status == "conflict":
                self.stats.add(conflicts=1, retries=1)
                continue
            if (
                request.status == "aborted"
                and request.retryable
                and transient < self.commit_retries
            ):
                # a transient commit-path failure (storage refusal, injected
                # I/O error): the transaction itself is fine — back off and
                # resubmit against a fresh snapshot
                transient += 1
                self.stats.add(transient_retries=1)
                backoff = min(_BACKOFF_BASE * (2 ** (transient - 1)), _BACKOFF_CAP)
                if deadline is not None:
                    backoff = min(backoff, max(0.0, deadline - time.monotonic()))
                logger.warning(
                    "transient commit failure (%s); retry %d/%d after %.0f ms",
                    request.reason, transient, self.commit_retries, backoff * 1e3,
                )
                if backoff > 0:
                    yield time.monotonic() + backoff
                continue
            self.stats.add(**{request.status: 1})
            return TxnOutcome(
                request.status, request.reason, request.version, attempts,
                retryable=request.retryable,
            )

    # -- the group-commit pipeline ---------------------------------------------------

    def _submit_and_wait(self, requests: List[_CommitRequest]) -> None:
        """Enqueue ``requests`` at once and drive/await the group-commit leader.

        One ``_queue_lock`` section enqueues them all, so one drain takes them
        all.  Followers never poll: a thread that loses the leader election
        blocks on ``_commit_cond`` until the leader — after publishing every
        drained outcome and releasing the commit lock — notifies; the wake-up
        check under the condition's own lock closes the race with that
        notify.  A request waits at most ``commit_timeout``, or until its
        client deadline if sooner, and then goes to :meth:`_give_up`.
        """
        with self._queue_lock:
            self._queue.extend(requests)
        timeout_at = time.monotonic() + self.commit_timeout

        def expiry(request: _CommitRequest) -> float:
            if request.deadline is not None and request.deadline < timeout_at:
                return request.deadline
            return timeout_at

        waiting = requests
        with _trace.span("service.leader_wait", requests=len(requests)) as span:
            became_leader = False
            while True:
                waiting = [r for r in waiting if not (r.done.is_set() or r.error)]
                if not waiting:
                    break
                now = time.monotonic()
                due = min(expiry(r) for r in waiting)
                if due <= now:
                    for request in waiting:
                        if expiry(request) <= now:
                            self._give_up(request, timeout_at)
                    continue
                with self._commit_cond:
                    acquired = self._commit_lock.acquire(blocking=False)
                    if not acquired and not all(r.done.is_set() for r in waiting):
                        # blocks until the leader's post-release notify (or
                        # the first expiry); re-checks done/leadership on wake
                        self._commit_cond.wait(timeout=due - now)
                if acquired:
                    became_leader = True
                    try:
                        self._drain()
                    finally:
                        with self._commit_cond:
                            self._commit_lock.release()
                            self._commit_cond.notify_all()
            span.annotate(leader=became_leader)

    def _give_up(self, request: _CommitRequest, timeout_at: float) -> None:
        """Abandon a request whose wait ran out, without a ghost commit.

        If the request is still queued it is withdrawn (no leader will ever
        see it) and its ``error`` names the budget that ran out: the
        client's deadline or ``commit_timeout``.  If a leader already took
        it, its fate is decided — ``_drain`` guarantees ``done`` is
        eventually set even when the leader fails — so wait one more grace
        period for the definitive outcome instead of reporting a failure for
        a transaction that may well have committed.
        """
        by_client = request.deadline is not None and request.deadline < timeout_at
        with self._queue_lock:
            try:
                self._queue.remove(request)
                withdrawn = True
            except ValueError:
                withdrawn = False
        if withdrawn:
            request.error = ServiceError(
                "client deadline expired while queued for the group commit"
                if by_client
                else f"commit timed out after {self.commit_timeout:.1f}s "
                "(deadlocked or overloaded leader)"
            )
        elif not request.done.wait(timeout=self.commit_timeout):
            request.error = ServiceError(
                "client deadline expired, and the leader that took the request "
                f"did not finish within a further {self.commit_timeout:.1f}s"
                if by_client
                else f"commit timed out after {2 * self.commit_timeout:.1f}s "
                "with the request already taken by a leader"
            )

    def _drain(self) -> None:
        """Leader body: validate, admit, compose and apply one batch (locked).

        No request may be left hanging: a failure inside one request's
        validation, guard or constraint work is attributed to *that* request
        (an ``aborted`` outcome carrying the error), and the ``finally``
        block marks anything still pending and wakes every waiter even when
        the leader itself blows up mid-batch.
        """
        lag = _faults.delay("service.leader.stall")
        if lag > 0.0:
            time.sleep(lag)
        with self._queue_lock:
            batch = list(self._queue)
            self._queue.clear()
        if not batch:
            return
        try:
            with _trace.span("service.group_commit", requests=len(batch)) as gc_span:
                version, current = self.store.pin()
                # every state of the batch, held strongly until the store has
                # the batch: `Database` keeps its parent weakly, and the store
                # accepts `running` as its next snapshot only while the
                # provenance chain back to `current` is walkable
                lineage = [current]
                running = current
                batch_delta = Delta()
                survivors: List[_CommitRequest] = []
                for request in batch:
                    with _trace.span(
                        "service.txn_commit",
                        template=request.template,
                        serial=request.serial,
                    ) as req_span:
                        try:
                            admitted = self._process(request, running, batch_delta)
                        except Exception as exc:  # noqa: BLE001 - one bad txn must not sink the batch
                            request.status = "aborted"
                            request.reason = f"transaction failed: {exc!r}"
                            req_span.annotate(status="aborted")
                            continue
                        if admitted is None:
                            req_span.annotate(status=request.status)
                            continue
                        req_span.annotate(status="committed")
                    survivors.append(request)
                    effective, successor = admitted
                    if successor is not running:
                        running = successor
                        lineage.append(running)
                        batch_delta = batch_delta.then(effective)
                if not batch_delta.is_empty():
                    with _trace.span(
                        "service.apply_delta",
                        rows=len(batch_delta),
                        survivors=len(survivors),
                    ):
                        self.store.begin()
                        try:
                            self.store.apply_delta(batch_delta)
                            self.store.commit_unchecked(successor=running)
                        except Exception as exc:  # noqa: BLE001 - classified below
                            # the storage engine (or the apply itself) refused
                            # the batch: the store rolled nothing committed
                            # back, so every survivor aborts with a *typed*
                            # outcome instead of the leader's raw exception —
                            # the client decides whether to resubmit based on
                            # the retryable classification
                            if self.store.in_transaction:
                                self.store.rollback()
                            retryable = classify_commit_error(exc)
                            self.stats.add(commit_failures=1)
                            logger.warning(
                                "group-commit batch of %d failed at the store "
                                "(%s: %s); aborting batch as %s",
                                len(survivors), type(exc).__name__, exc,
                                "retryable" if retryable else "fatal",
                            )
                            for request in survivors:
                                request.status = "aborted"
                                request.reason = (
                                    f"commit failed ({type(exc).__name__}): {exc}"
                                )
                                request.retryable = retryable
                            gc_span.annotate(committed=0, error=type(exc).__name__)
                            return
                        except BaseException:
                            if self.store.in_transaction:
                                self.store.rollback()
                            raise
                    # read once: validation records the version clients get
                    version = self.store.version
                    self.snapshots.record(version, batch_delta)
                    # the amortization metric: committed writers per store apply
                    # (conflicted/rejected/aborted requests are not part of the
                    # batch the store paid for, and drains that applied nothing
                    # are not batches)
                    self.stats.saw_batch(len(survivors))
                gc_span.annotate(committed=len(survivors), version=version)
                for request in survivors:
                    request.status = "committed"
                    request.version = version
                    if request.tag is not None:
                        self.commit_log.append(request.tag)
        finally:
            for request in batch:
                if request.status == "pending":
                    request.status = "aborted"
                    request.reason = "group-commit leader failed mid-batch"
                request.done.set()

    def _process(
        self, request: _CommitRequest, running: Database, batch_delta: Delta
    ) -> Optional[Tuple[Delta, Database]]:
        """Validate and admission-check one request against the running state.

        Returns the request's effective delta (to fold into the batch) and
        the state it leaves behind — ``running ⊕ effective``, built once and
        shared by the runtime checks and the rest of the batch — when it
        commits; ``None`` otherwise, with ``request.status`` set to the
        conflict/rejection/abort it suffered.
        """
        lag = _faults.delay("service.validate.delay")
        if lag > 0.0:
            time.sleep(lag)
        if request.serial:
            handle = SnapshotTransaction(
                running, -1, self.signature, self.backend
            )
            try:
                request.work(handle)
            except TransactionAbortedSignal as exc:
                request.status, request.reason = "rejected", str(exc)
                return None
            delta = handle.delta()
        else:
            foreign = self.snapshots.foreign_delta(request.handle.version)
            if foreign is None:
                request.status = "conflict"
                request.reason = "snapshot fell out of the validation window"
                return None
            reason = validate(
                request.handle.reads,
                request.delta,
                foreign.then(batch_delta),
                request.handle.base,
                self.signature,
                self.backend,
            )
            if reason is not None:
                request.status, request.reason = "conflict", reason
                return None
            delta = request.delta

        runtime_checks: List[Constraint] = []
        verdicts, values = request.admitted
        for constraint in self.constraints:
            verdict = verdicts.get(constraint.name)
            mode = verdict.mode if verdict is not None else "runtime"
            if mode == "static":
                self.stats.add(static_skips=1)
                continue
            if mode == "guarded":
                guard = verdict.guard
                self.stats.add(guard_checks=1)
                # a guard false for the whole shape (a loop under no-loops)
                # decides with no evaluation; any other runs its slotted plan
                # with the request's values
                if guard == BOTTOM or not self.backend.holds_prepared(
                    guard, running, values, self.signature
                ):
                    request.status = "rejected"
                    request.reason = f"guard of {constraint.name!r} failed on the pre-state"
                    return None
                continue
            runtime_checks.append(constraint)

        effective = delta.normalized(running)
        if effective.is_empty():
            return effective, running
        candidate = running.apply_delta(effective)
        if runtime_checks and not self._invariant_known:
            self._invariant_known = all(
                c.holds(running, self.signature, self.backend) for c in self.constraints
            )
        known = effective if self._invariant_known else None
        for constraint in runtime_checks:
            holds, full = holds_after_update(
                constraint, candidate, known, self.signature, self.backend
            )
            self.stats.add(runtime_checks=1, runtime_full_checks=int(full))
            if not holds:
                request.status = "aborted"
                request.reason = f"constraint {constraint.name!r} violated"
                return None
        return effective, candidate

    # -- observability ---------------------------------------------------------------

    def observability(self) -> Dict[str, object]:
        """One merged snapshot of every stats surface the service touches.

        Combines the service's own counters, the admission controller's
        bookkeeping, the backend's cache statistics, the store's transaction
        and durability counters, the metrics-registry snapshot (empty under
        ``REPRO_METRICS=off``), the tracer status, and every ``REPRO_*``
        knob's value as parsed when the service was built (an invalid one
        shows the default it fell back to; a backend, registry or tracer
        installed in code later shows in its own block) — the single dict
        the benchmark harness embeds into its result files and ``GET /stats``
        serves.
        """
        store_stats = self.store.stats
        with store_stats._lock:
            txn_stats = {
                "committed": store_stats.committed,
                "aborted": store_stats.aborted,
                "rolled_back_writes": store_stats.rolled_back_writes,
                "snapshot_promoted": store_stats.snapshot_promoted,
                "snapshot_repatched": store_stats.snapshot_repatched,
            }
        cache_stats = getattr(self.backend, "cache_stats", None)
        return {
            "service": self.stats.as_dict(),
            "admission": self.admission.stats(),
            "backend": cache_stats() if cache_stats is not None else {},
            "store": {
                "transactions": txn_stats,
                "engine": self.store.storage_stats(),
            },
            "metrics": _metrics.get_registry().snapshot(),
            "trace": {
                "enabled": _trace.trace_enabled(),
                "finished_spans": len(_trace.finished()),
            },
            "settings": dict(self.settings),
        }

    def __repr__(self) -> str:
        return (
            f"TransactionService(store={self.store!r}, "
            f"constraints={[c.name for c in self.constraints]})"
        )
