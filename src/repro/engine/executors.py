"""Shard executors: thread-, inline- and process-parallel task dispatch.

:class:`~repro.engine.parallel.ShardedBackend` evaluates every plan operator
*per shard*; this module owns **how** those per-shard tasks run.  Three
implementations share one interface (:meth:`map_pending`):

``InlineShardExecutor``
    runs tasks in the calling thread — the 1-worker degenerate case.
``ThreadShardExecutor``
    the historical default: a ``ThreadPoolExecutor``.  Cheap, shares all
    memory, but GIL-bound — CPU-heavy relational work tops out near 1 core.
``ProcessShardExecutor``
    a pool of **long-lived worker processes** (the ``REPRO_SHARD_PROCS``
    knob).  Each worker *owns its shards' relations persistently* in a
    :class:`~repro.db.sharding.ShardStateMachine`; the coordinator ships
    compact picklable plan specs (:mod:`repro.engine.codec`), per-shard
    :class:`~repro.db.delta.Delta` wire values and broadcast tables **once
    per fingerprint**, and thereafter only tiny task messages — so a
    re-check after a commit transfers ``O(|delta|)``, and the CPU-bound
    operator work really runs on multiple cores.

The wire protocol (one reply per message, per-pipe FIFO)::

    ("ping",)                                  -> ("ok", None)
    ("attach", idx, Database, sid)             -> install full shard state
    ("delta", idx, delta_wire, sid)            -> advance shard by a delta
    ("plan", plan_id, spec)                    -> decode + hold a plan table
    ("domain", did, values)                    -> hold a quantification domain
    ("sig", sig_id, Signature)                 -> hold an interpreted signature
    ("table", bid, rows)                       -> hold a broadcast/merged table
    ("task", run_id, i, plan_id, node_id, cache_key, op)
                                               -> ("ok", rows, was_cache_hit)
    ("stats",) / ("evict",) / ("reset", kind)  -> stats / cache / bookkeeping
    ("stop",)                                  -> acknowledge and exit

Every failure mode degrades, never breaks: a plan with no spec form, an
unpicklable signature, a dead worker mid-batch — each falls back to running
the affected shard's closure in-process (the coordinator always holds the
inputs), and dead workers are respawned lazily with state re-attached from
the coordinator's current shard objects (the store snapshot).  Conformance
over the sharded-procs matrix axis checks the fallbacks agree with the
oracle.
"""

from __future__ import annotations

import itertools
import logging
import multiprocessing
import os
import pickle
import threading
import time
import warnings
from collections import Counter
from collections.abc import Set as AbstractSet
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import faults as _faults
from ..db.database import Database
from ..db.delta import Delta
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .backend import _LRU
from .codec import PlanCodecError, encode_plan
from .plan import Plan

logger = logging.getLogger(__name__)

__all__ = [
    "BREAKER_THRESHOLD_ENV",
    "BREAKER_COOLDOWN_ENV",
    "ShardExecutor",
    "InlineShardExecutor",
    "ThreadShardExecutor",
    "ProcessShardExecutor",
    "make_shard_executor",
]

#: shipped-id bookkeeping per worker is reset past these bounds
_RESET_BOUNDS = {"plans": 192, "domains": 96, "sigs": 64, "tables": 384}

#: environment knob: worker deaths before a slot's circuit breaker opens
BREAKER_THRESHOLD_ENV = "REPRO_BREAKER_THRESHOLD"

#: environment knob: seconds an open breaker waits before a half-open probe
BREAKER_COOLDOWN_ENV = "REPRO_BREAKER_COOLDOWN"

DEFAULT_BREAKER_THRESHOLD = 5
DEFAULT_BREAKER_COOLDOWN = 5.0


def _env_number(name: str, fallback, cast):
    raw = os.environ.get(name, "").strip()
    if not raw:
        return fallback
    try:
        return cast(raw)
    except ValueError:
        warnings.warn(
            f"ignoring invalid {name}={raw!r}; expected a number — "
            f"using {fallback}",
            RuntimeWarning,
            stacklevel=3,
        )
        return fallback


class _Breaker:
    """Per-slot circuit breaker over worker respawns.

    *Closed* while the death count stays under ``threshold``: every death is
    followed by an ordinary lazy respawn.  At ``threshold`` consecutive
    deaths the breaker *opens* — the slot stops being respawned and its
    shards run inline (degraded but correct) — until ``cooldown`` seconds
    pass, when one *half-open* respawn probe is allowed.  A successful task
    reply closes the breaker again; a probe that dies re-opens it for
    another cooldown.
    """

    __slots__ = ("threshold", "cooldown", "failures", "opened_at", "trips")

    def __init__(self, threshold: int, cooldown: float):
        self.threshold = max(1, threshold)
        self.cooldown = max(0.0, cooldown)
        self.failures = 0
        self.opened_at: Optional[float] = None
        self.trips = 0

    @property
    def state(self) -> str:
        if self.opened_at is None:
            return "closed"
        if time.monotonic() - self.opened_at >= self.cooldown:
            return "half-open"
        return "open"

    def record_failure(self) -> bool:
        """Count one worker death; returns True when this death trips it open."""
        self.failures += 1
        if self.failures >= self.threshold:
            first = self.opened_at is None
            self.opened_at = time.monotonic()
            if first:
                self.trips += 1
            return first
        return False

    def record_success(self) -> None:
        self.failures = 0
        self.opened_at = None

    def allows_respawn(self) -> bool:
        """May this slot spawn a replacement right now?"""
        if self.opened_at is None:
            return True
        if time.monotonic() - self.opened_at >= self.cooldown:
            # half-open: grant exactly one probe per cooldown window by
            # re-arming the clock — a probe that dies again waits a full
            # cooldown instead of hot-looping respawns
            self.opened_at = time.monotonic()
            return True
        return False


class _WorkerDied(RuntimeError):
    """IPC to a worker failed: the process is gone (or its pipe is)."""


class _WorkerRefused(RuntimeError):
    """A worker replied ``("err", ...)`` to a control message."""


# ---------------------------------------------------------------------------
# the executor interface + in-process implementations
# ---------------------------------------------------------------------------

class ShardExecutor:
    """How per-shard tasks run.  ``kind`` feeds the optimizer's cost model."""

    kind = "threads"

    def map_pending(
        self,
        run,
        node: Plan,
        fn: Callable[[int], object],
        pending: Sequence[int],
        keys: Sequence[Optional[Tuple]],
        task: Optional[Tuple],
    ) -> Dict[int, object]:
        """Evaluate shard ``fn(i)`` for every pending ``i``.

        ``task`` is the declarative description of what ``fn`` computes
        (``None`` when the work is not shippable); in-process executors
        ignore it and call ``fn``, the process executor ships it and falls
        back to ``fn`` per shard on any failure.
        """
        raise NotImplementedError  # pragma: no cover - interface

    def stats(self) -> Dict[str, object]:
        return {}

    def evict(self) -> None:
        pass

    def close(self) -> None:
        pass


class InlineShardExecutor(ShardExecutor):
    """Single-worker degenerate case: run every task in the calling thread."""

    def map_pending(self, run, node, fn, pending, keys, task):
        return {i: fn(i) for i in pending}


class ThreadShardExecutor(ShardExecutor):
    """The GIL-bound default: per-shard tasks on a shared thread pool."""

    def __init__(self, workers: int):
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-shard"
        )

    def map_pending(self, run, node, fn, pending, keys, task):
        if len(pending) > 1:
            return dict(zip(pending, self._pool.map(fn, pending)))
        return {i: fn(i) for i in pending}

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False)


# ---------------------------------------------------------------------------
# the worker process
# ---------------------------------------------------------------------------

def _worker_main(conn, memo_size: int) -> None:  # pragma: no cover - subprocess
    """The long-lived worker loop: hold shard state, evaluate task messages.

    Runs in a child process; all state is process-local.  Exits on
    ``("stop",)``, on a closed pipe, or with the (daemonic) parent.
    """
    from ..db.delta import row_key
    from ..db.sharding import ShardStateMachine, shard_of
    from .codec import decode_plan
    from .plan import (
        ExecutionContext,
        build_left_table,
        build_right_table,
        group_count_rows,
        join_key,
        join_rows,
        probe_left_table,
        probe_right_table,
    )

    # worker spans cannot share the coordinator's ring: queue them for the
    # reply pipe instead (and drop an inherited JSONL sink — the coordinator
    # writes the adopted spans, so a worker-side sink would double-dump them)
    if _trace.trace_enabled():
        if _trace.get_tracer().path is not None:
            _trace.configure("on")
        _trace.enable_forwarding()

    state = ShardStateMachine()
    plans: Dict[int, Tuple[Plan, ...]] = {}
    domains: Dict[int, frozenset] = {}
    splits: Dict[Tuple[int, int], Tuple[Tuple[object, ...], ...]] = {}
    sigs: Dict[int, object] = {}
    tables: Dict[int, frozenset] = {}
    built: Dict[Tuple, object] = {}  # prebuilt probe structures per (node, bid)
    cache = _LRU(memo_size)
    current_run: Optional[int] = None
    run_results: Dict[Tuple[int, int], object] = {}
    hits = misses = tasks = 0

    def domain_split(did: int, n: int) -> Tuple[Tuple[object, ...], ...]:
        key = (did, n)
        got = splits.get(key)
        if got is None:
            buckets: List[List[object]] = [[] for _ in range(n)]
            for value in domains[did]:
                buckets[shard_of(value, n)].append(value)
            got = tuple(tuple(b) for b in buckets)
            if len(splits) > 64:
                splits.clear()
            splits[key] = got
        return got

    def probe_structure(key: Tuple, build: Callable[[], object]) -> object:
        got = built.get(key)
        if got is None:
            got = build()
            if len(built) > 256:
                built.clear()
            built[key] = got
        return got

    def resolve(ref: Tuple):
        if ref[0] == "r":
            return run_results[ref[1]]
        return ref[1]

    def evaluate(msg: Tuple) -> Tuple[object, bool]:
        nonlocal current_run, hits, misses, tasks
        _tag, run_id, shard_idx, plan_id, node_id, ckey, op = msg
        if run_id != current_run:
            run_results.clear()
            current_run = run_id
        tasks += 1
        full_key = None
        if ckey is not None:
            full_key = (state.state_id(shard_idx), ckey)
            held = cache.get(full_key)
            if held is not None:
                hits += 1
                run_results[(node_id, shard_idx)] = held
                return held, True
        node = plans[plan_id][node_id]
        kind = op[0]
        if kind == "scan":
            ctx = ExecutionContext(state.shard(shard_idx), domains[op[1]], sigs[op[2]])
            value = node._rows(ctx)
        elif kind == "select":
            ctx = ExecutionContext(state.shard(shard_idx), domains[op[2]], sigs[op[3]])
            predicate = node.predicate
            value = frozenset(r for r in resolve(op[1]) if predicate(r, ctx))
        elif kind == "project":
            value = frozenset(map(row_key(node._indices), resolve(op[1])))
        elif kind == "dscan":
            part = domain_split(op[2], op[3])[shard_idx]
            if op[1] == "diag":
                value = frozenset((v, v) for v in part)
            else:
                value = frozenset((v,) for v in part)
        elif kind == "dprod":
            part = domain_split(op[1], op[2])[shard_idx]
            rest = (tuple(domains[op[1]]),) * (len(node.columns) - 1)
            value = frozenset(itertools.product(part, *rest))
        elif kind == "join_co":
            value = join_rows(node, resolve(op[1]), resolve(op[2]))
        elif kind == "join_b":
            kept_rows, keep_left, bid = resolve(op[1]), op[2], op[3]
            broadcast = tables[bid]
            shared = node.shared
            if not shared:
                if keep_left:
                    value = frozenset(l + r for l in kept_rows for r in broadcast)
                else:
                    value = frozenset(l + r for l in broadcast for r in kept_rows)
            elif keep_left:
                table = probe_structure(
                    (plan_id, node_id, bid, "R"),
                    lambda: build_right_table(node, broadcast),
                )
                value = probe_right_table(node, table, kept_rows)
            else:
                table = probe_structure(
                    (plan_id, node_id, bid, "L"),
                    lambda: build_left_table(node, broadcast),
                )
                value = probe_left_table(node, table, kept_rows)
        elif kind == "anti_co":
            left_rows, right_rows = resolve(op[1]), resolve(op[2])
            if not right_rows:
                value = left_rows
            else:
                right_key = join_key(node.right.columns, node.shared)
                keys = {right_key(r) for r in right_rows}
                left_key = join_key(node.left.columns, node.shared)
                value = frozenset(r for r in left_rows if left_key(r) not in keys)
        elif kind == "anti_b":
            left_rows, bid = resolve(op[1]), op[2]
            keys = probe_structure(
                (plan_id, node_id, bid, "A"),
                lambda: frozenset(
                    join_key(node.right.columns, node.shared)(r)
                    for r in tables[bid]
                ),
            )
            left_key = join_key(node.left.columns, node.shared)
            value = frozenset(r for r in left_rows if left_key(r) not in keys)
        elif kind == "union":
            value = frozenset().union(*(resolve(ref) for ref in op[1]))
        elif kind == "group":
            value = group_count_rows(node, resolve(op[1]))
        elif kind == "gpart":
            value = Counter(map(join_key(node.child.columns, node.columns), resolve(op[1])))
        elif kind == "compl":
            merged = tables[op[1]]
            part = domain_split(op[2], op[3])[shard_idx]
            rest = (tuple(domains[op[2]]),) * (len(node.columns) - 1)
            value = frozenset(
                t for t in itertools.product(part, *rest) if t not in merged
            )
        else:
            raise RuntimeError(f"unknown task op {kind!r}")
        misses += 1
        run_results[(node_id, shard_idx)] = value
        if full_key is not None:
            cache.put(full_key, value)
        return value, False

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        kind = msg[0]
        if kind == "stop":
            try:
                conn.send(("ok", None))
            except (OSError, BrokenPipeError):
                pass
            break
        try:
            if kind == "task":
                with _trace.span(
                    "executor.task", shard=msg[2], op=msg[6][0]
                ) as task_span:
                    value, was_hit = evaluate(msg)
                    task_span.annotate(cache_hit=was_hit)
                reply = ("ok", value, was_hit)
                spans = _trace.drain_forwarded()
                if spans:
                    # piggyback finished spans on the task reply; the
                    # coordinator unwraps and adopts them into its own ring
                    reply = ("spans", spans, reply)
            elif kind == "attach":
                state.attach(msg[1], msg[2], msg[3])
                reply = ("ok", None)
            elif kind == "delta":
                state.apply(msg[1], msg[2], msg[3])
                reply = ("ok", None)
            elif kind == "plan":
                plans[msg[1]] = decode_plan(msg[2])[1]
                reply = ("ok", None)
            elif kind == "domain":
                domains[msg[1]] = frozenset(msg[2])
                reply = ("ok", None)
            elif kind == "sig":
                sigs[msg[1]] = msg[2]
                reply = ("ok", None)
            elif kind == "table":
                tables[msg[1]] = msg[2]
                reply = ("ok", None)
            elif kind == "stats":
                reply = (
                    "ok",
                    {
                        "tasks": tasks,
                        "hits": hits,
                        "misses": misses,
                        "cached": len(cache),
                        "shards": state.sizes(),
                    },
                )
            elif kind == "evict":
                cache = _LRU(memo_size)
                built.clear()
                run_results.clear()
                reply = ("ok", None)
            elif kind == "reset":
                target = msg[1]
                if target == "plans":
                    plans.clear()
                    built.clear()
                elif target == "domains":
                    domains.clear()
                    splits.clear()
                elif target == "sigs":
                    sigs.clear()
                elif target == "tables":
                    tables.clear()
                    built.clear()
                reply = ("ok", None)
            elif kind == "ping":
                reply = ("ok", os.getpid())
            else:
                reply = ("err", f"unknown message kind {kind!r}")
        except Exception as exc:  # degrade, never kill the worker
            reply = ("err", f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except (OSError, BrokenPipeError):
            break


# ---------------------------------------------------------------------------
# the process-pool coordinator
# ---------------------------------------------------------------------------

class _Worker:
    """Coordinator-side record of one worker process and what it holds."""

    __slots__ = (
        "slot",
        "process",
        "conn",
        "alive",
        "respawns",
        "shard_sids",   # shard index -> state id the worker holds
        "shard_objs",   # shard index -> the Database that state id names
        "plans",
        "domains",
        "sigs",
        "tables",
    )

    def __init__(self, slot: int, process, conn, respawns: int):
        self.slot = slot
        self.process = process
        self.conn = conn
        self.alive = True
        self.respawns = respawns
        self.shard_sids: Dict[int, int] = {}
        self.shard_objs: Dict[int, Database] = {}
        self.plans: set = set()
        self.domains: set = set()
        self.sigs: set = set()
        self.tables: set = set()


class _RunInfo:
    """Per-:class:`_ShardedRun` shipping context (ids + result bookkeeping)."""

    __slots__ = (
        "run_id", "plan_id", "node_ids", "spec",
        "domain_obj", "did", "sig_obj", "sig_id", "on_worker",
    )

    def __init__(self, run_id, plan_id, node_ids, spec, domain_obj, did, sig_obj, sig_id):
        self.run_id = run_id
        self.plan_id = plan_id
        self.node_ids = node_ids
        self.spec = spec
        self.domain_obj = domain_obj
        self.did = did
        self.sig_obj = sig_obj
        self.sig_id = sig_id
        # worker slot -> {(node_id, shard_idx)} already computed over there
        self.on_worker: Dict[int, set] = {}


#: sentinel stored on runs whose plan/signature cannot be shipped
_UNSHIPPABLE = object()


class ProcessShardExecutor(ShardExecutor):
    """Long-lived worker processes, spawned lazily on first dispatch.

    Shard ``i`` is owned by worker ``i % procs``.  One coordinator lock
    serializes whole task batches (concurrent plan executions from service
    threads queue up rather than interleave messages on the pipes); within a
    batch, dispatch is three-phase — sync worker state (control round-trips),
    fire all task messages, collect all replies — so every worker computes
    its shards concurrently while the coordinator blocks only once.
    """

    kind = "procs"

    def __init__(
        self,
        num_shards: int,
        procs: int,
        memo_size: int = 256,
        breaker_threshold: Optional[int] = None,
        breaker_cooldown: Optional[float] = None,
    ):
        self.num_shards = num_shards
        self.procs = max(1, min(int(procs), num_shards))
        self._memo_size = memo_size
        self._lock = threading.RLock()
        self._workers: Optional[List[_Worker]] = None
        self._broken = False
        self._closed = False
        if breaker_threshold is None:
            breaker_threshold = _env_number(
                BREAKER_THRESHOLD_ENV, DEFAULT_BREAKER_THRESHOLD, int
            )
        if breaker_cooldown is None:
            breaker_cooldown = _env_number(
                BREAKER_COOLDOWN_ENV, DEFAULT_BREAKER_COOLDOWN, float
            )
        self._breakers = [
            _Breaker(breaker_threshold, breaker_cooldown)
            for _ in range(self.procs)
        ]
        self._ids = itertools.count(1)
        self._runs = itertools.count(1)
        # content-keyed id tables: same content -> same id -> nothing reships
        self._plan_info = _LRU(128)     # id(plan) -> (plan, plan_id|None, spec, node_ids)
        self._sig_info: Dict[int, Tuple[object, Optional[int]]] = {}
        self._domain_ids = _LRU(64)     # domain frozenset -> did
        self._table_ids = _LRU(384)     # rows frozenset -> bid
        self._shard_sids = _LRU(512)    # shard Database (content-keyed) -> sid
        self.tasks = 0
        self.task_hits = 0
        self.fallbacks = 0
        self.restarts = 0
        registry = _metrics.get_registry()
        self._m_tasks = registry.counter("executor.tasks")
        self._m_task_hits = registry.counter("executor.task_hits")
        self._m_fallbacks = registry.counter("executor.fallbacks")
        self._m_restarts = registry.counter("executor.restarts")
        self._m_breaker_trips = registry.counter("executor.breaker_trips")

    # -- lifecycle ---------------------------------------------------------------

    def _spawn(self, slot: int, respawns: int) -> _Worker:
        _faults.fire("executor.spawn")
        ctx_kind = (
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        ctx = multiprocessing.get_context(ctx_kind)
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=_worker_main,
            args=(child_conn, self._memo_size),
            daemon=True,
            name=f"repro-shard-worker-{slot}",
        )
        process.start()
        child_conn.close()
        worker = _Worker(slot, process, parent_conn, respawns)
        # handshake: a worker that cannot even echo is no worker at all
        parent_conn.send(("ping",))
        if not parent_conn.poll(30):
            process.kill()
            raise RuntimeError(f"worker {slot} failed the startup handshake")
        reply = parent_conn.recv()
        if reply[0] != "ok":
            process.kill()
            raise RuntimeError(f"worker {slot} refused the startup handshake")
        return worker

    def _ensure_workers(self) -> Optional[List[_Worker]]:
        if self._broken or self._closed:
            return None
        if self._workers is None:
            try:
                self._workers = [self._spawn(slot, 0) for slot in range(self.procs)]
            except Exception as exc:
                self._broken = True
                self._workers = None
                warnings.warn(
                    f"shard worker pool unavailable ({exc}); "
                    "process mode degrades to in-process execution",
                    RuntimeWarning,
                    stacklevel=3,
                )
                return None
        return self._workers

    def close(self) -> None:
        with self._lock:
            workers, self._workers = self._workers, None
            self._closed = True
        if not workers:
            return
        for worker in workers:
            if not worker.alive:
                continue
            try:
                worker.conn.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
        for worker in workers:
            try:
                worker.process.join(timeout=5)
                if worker.process.is_alive():
                    worker.process.kill()
                worker.conn.close()
            except Exception:
                pass

    # -- dispatch ----------------------------------------------------------------

    def map_pending(self, run, node, fn, pending, keys, task):
        if task is None:
            return {i: fn(i) for i in pending}
        with self._lock:
            return self._map_locked(run, node, fn, pending, keys, task)

    def _map_locked(self, run, node, fn, pending, keys, task):
        out: Dict[int, object] = {}
        workers = self._ensure_workers()
        info = self._run_info(run) if workers is not None else None
        node_id = info.node_ids.get(node) if info is not None else None
        if workers is None or info is None or node_id is None:
            self.fallbacks += len(pending)
            self._m_fallbacks.inc(len(pending))
            return {i: fn(i) for i in pending}
        # Inline fallbacks run ONLY after every in-flight reply has been
        # drained: `fn(i)` may raise (exactly like inline execution would —
        # evaluation errors are part of the semantics), and an exception
        # while replies are still in the pipe would desynchronise the
        # per-pipe send/recv pairing for every later batch.
        failed: List[int] = []
        # phase 1: per-shard worker sync (control round-trips) + task build
        sends: List[Tuple[_Worker, int, Tuple]] = []
        for i in pending:
            worker = self._worker_for(i)
            if worker is None:
                failed.append(i)
                continue
            if _faults.fired("executor.crash"):
                # injected worker crash: kill the process exactly as a real
                # segfault would, then take the ordinary dead-worker path
                self._mark_dead(worker)
                failed.append(i)
                continue
            try:
                message = self._build_task(worker, run, info, i, node, node_id,
                                           keys[i], task)
                sends.append((worker, i, message))
            except _WorkerDied:
                self._mark_dead(worker)
                failed.append(i)
            except (_WorkerRefused, PlanCodecError, pickle.PicklingError):
                failed.append(i)
        # phase 2: fire every task message
        inflight: List[Tuple[_Worker, int]] = []
        for worker, i, message in sends:
            if not worker.alive:
                failed.append(i)
                continue
            try:
                worker.conn.send(message)
                inflight.append((worker, i))
            except (OSError, BrokenPipeError, ValueError):
                self._mark_dead(worker)
                failed.append(i)
        # phase 3: collect (per-pipe FIFO keeps replies aligned with sends)
        for worker, i in inflight:
            if not worker.alive:
                failed.append(i)
                continue
            lag = _faults.delay("executor.reply.slow")
            if lag > 0.0:
                time.sleep(lag)
            try:
                reply = worker.conn.recv()
            except (EOFError, OSError):
                self._mark_dead(worker)
                failed.append(i)
                continue
            if reply[0] == "spans":
                _trace.adopt(reply[1], parent_id=_trace.current_span_id())
                reply = reply[2]
            if reply[0] == "ok" and len(reply) == 3:
                out[i] = reply[1]
                # a real task reply is the breaker's health proof: a probe
                # that answers closes the slot's breaker again
                self._breakers[worker.slot].record_success()
                self.tasks += 1
                self._m_tasks.inc()
                if reply[2]:
                    self.task_hits += 1
                    self._m_task_hits.inc()
                info.on_worker.setdefault(worker.slot, set()).add((node_id, i))
            else:
                failed.append(i)
        # phase 4: inline fallbacks, pipes quiescent — a raising fn(i)
        # surfaces the evaluation error without corrupting the protocol
        for i in failed:
            self.fallbacks += 1
            self._m_fallbacks.inc()
            out[i] = fn(i)
        return out

    def _worker_for(self, i: int) -> Optional[_Worker]:
        slot = i % len(self._workers)
        worker = self._workers[slot]
        if worker.alive:
            return worker
        breaker = self._breakers[slot]
        if not breaker.allows_respawn():
            # breaker open: the slot crash-looped past the threshold and is
            # inside its cooldown — its shards run inline, no respawn churn
            return None
        try:
            replacement = self._spawn(slot, worker.respawns + 1)
        except Exception as exc:
            if breaker.record_failure():
                self._trip(slot, breaker, f"respawn failed: {exc}")
            else:
                logger.warning(
                    "shard worker slot %d (shard %d) could not be respawned "
                    "(%s); running inline this round (death %d of %d before "
                    "the breaker opens)",
                    slot, i, exc, breaker.failures, breaker.threshold,
                )
            return None
        logger.warning(
            "shard worker slot %d died; respawned for shard %d "
            "(death %d of %d before the breaker opens), state re-attaches "
            "lazily",
            slot, i, breaker.failures, breaker.threshold,
        )
        # fresh process: shipped-id bookkeeping starts empty, so shard state,
        # plans and tables re-attach lazily from the coordinator's current
        # objects — recovery *is* the ordinary first-contact path
        self._workers[slot] = replacement
        self.restarts += 1
        self._m_restarts.inc()
        return replacement

    def _trip(self, slot: int, breaker: _Breaker, cause: str) -> None:
        self._m_breaker_trips.inc()
        logger.warning(
            "shard worker slot %d crash-looped %d time(s) (%s): circuit "
            "breaker OPEN — its shards degrade to inline execution for "
            "%.1fs, then one respawn probe",
            slot, breaker.failures, cause, breaker.cooldown,
        )

    def _mark_dead(self, worker: _Worker) -> None:
        if not worker.alive:
            return
        worker.alive = False
        breaker = self._breakers[worker.slot]
        if breaker.record_failure():
            self._trip(worker.slot, breaker, "worker died mid-batch")
        try:
            worker.conn.close()
        except Exception:
            pass
        try:
            if worker.process.is_alive():
                worker.process.kill()
        except Exception:
            pass

    # -- worker-state sync --------------------------------------------------------

    def _control(self, worker: _Worker, message: Tuple):
        try:
            worker.conn.send(message)
            reply = worker.conn.recv()
        except (EOFError, OSError, BrokenPipeError, ValueError) as exc:
            raise _WorkerDied(str(exc)) from exc
        if reply[0] != "ok":
            raise _WorkerRefused(reply[1])
        return reply[1]

    def _maybe_reset(self, worker: _Worker, kind: str) -> None:
        shipped = getattr(worker, kind)
        if len(shipped) > _RESET_BOUNDS[kind]:
            self._control(worker, ("reset", kind))
            shipped.clear()
            if kind == "plans":
                # worker run_results reference plan nodes only by id — safe;
                # but prebuilt probe tables died with the plans
                pass

    def _ensure_shard(self, worker: _Worker, run, i: int) -> None:
        shard = run.shards[i]
        sid = self._shard_sids.get(shard)
        if sid is None:
            sid = next(self._ids)
            self._shard_sids.put(shard, sid)
        if worker.shard_sids.get(i) == sid:
            return
        held = worker.shard_objs.get(i)
        delta = None
        if held is not None and held.schema == shard.schema:
            delta = Delta.between(held, shard)
            if delta is None:
                delta = Delta.from_databases(held, shard)
        if delta is not None:
            self._control(worker, ("delta", i, delta.to_wire(), sid))
        else:
            self._control(worker, ("attach", i, shard, sid))
        worker.shard_sids[i] = sid
        worker.shard_objs[i] = shard

    def _ensure_plan(self, worker: _Worker, info: _RunInfo) -> None:
        self._maybe_reset(worker, "plans")
        if info.plan_id not in worker.plans:
            self._control(worker, ("plan", info.plan_id, info.spec))
            worker.plans.add(info.plan_id)

    def _ensure_domain(self, worker: _Worker, info: _RunInfo) -> None:
        self._maybe_reset(worker, "domains")
        if info.did not in worker.domains:
            self._control(worker, ("domain", info.did, tuple(info.domain_obj)))
            worker.domains.add(info.did)

    def _ensure_sig(self, worker: _Worker, info: _RunInfo) -> None:
        self._maybe_reset(worker, "sigs")
        if info.sig_id not in worker.sigs:
            self._control(worker, ("sig", info.sig_id, info.sig_obj))
            worker.sigs.add(info.sig_id)

    def _table_id(self, rows: frozenset) -> int:
        bid = self._table_ids.get(rows)
        if bid is None:
            bid = next(self._ids)
            self._table_ids.put(rows, bid)
        return bid

    def _ensure_table(self, worker: _Worker, rows: frozenset) -> int:
        bid = self._table_id(rows)
        self._maybe_reset(worker, "tables")
        if bid not in worker.tables:
            self._control(worker, ("table", bid, rows))
            worker.tables.add(bid)
        return bid

    # -- task building ------------------------------------------------------------

    def _run_info(self, run) -> Optional[_RunInfo]:
        info = getattr(run, "_proc_exec_info", None)
        if info is _UNSHIPPABLE:
            return None
        if info is not None:
            return info
        plan = getattr(run, "root_plan", None)
        if plan is None:
            run._proc_exec_info = _UNSHIPPABLE
            return None
        entry = self._plan_info.get(id(plan))
        if entry is None or entry[0] is not plan:
            try:
                spec, node_ids = encode_plan(plan)
                entry = (plan, next(self._ids), spec, node_ids)
            except PlanCodecError:
                entry = (plan, None, None, None)
            self._plan_info.put(id(plan), entry)
        if entry[1] is None:
            run._proc_exec_info = _UNSHIPPABLE
            return None
        sig_id = self._sig_id(run.signature)
        if sig_id is None:
            run._proc_exec_info = _UNSHIPPABLE
            return None
        domain_obj = run.base_key[0]
        did = self._domain_ids.get(domain_obj)
        if did is None:
            did = next(self._ids)
            self._domain_ids.put(domain_obj, did)
        info = _RunInfo(
            run_id=next(self._runs),
            plan_id=entry[1],
            node_ids=entry[3],
            spec=entry[2],
            domain_obj=domain_obj,
            did=did,
            sig_obj=run.signature,
            sig_id=sig_id,
        )
        run._proc_exec_info = info
        return info

    def _sig_id(self, signature) -> Optional[int]:
        entry = self._sig_info.get(id(signature))
        if entry is not None and entry[0] is signature:
            return entry[1]
        try:
            pickle.dumps(signature)
            sig_id: Optional[int] = next(self._ids)
        except Exception:
            # interpreted signatures built from closures cannot cross the
            # boundary; the whole run falls back to in-process execution
            sig_id = None
        if len(self._sig_info) > 128:
            self._sig_info.clear()
        self._sig_info[id(signature)] = (signature, sig_id)
        return sig_id

    def _input(self, worker: _Worker, run, info: _RunInfo, i: int, child: Plan):
        child_id = info.node_ids.get(child)
        if child_id is not None and (child_id, i) in info.on_worker.get(
            worker.slot, ()
        ):
            return ("r", (child_id, i))
        return ("v", run.results[child].parts[i])

    def _build_task(self, worker, run, info, i, node, node_id, key, task) -> Tuple:
        self._ensure_shard(worker, run, i)
        self._ensure_plan(worker, info)
        self._ensure_domain(worker, info)
        self._ensure_sig(worker, info)
        kind = task[0]
        if kind == "scan":
            op = ("scan", info.did, info.sig_id)
        elif kind == "select":
            op = ("select", self._input(worker, run, info, i, task[1]),
                  info.did, info.sig_id)
        elif kind == "project":
            op = ("project", self._input(worker, run, info, i, task[1]))
        elif kind == "dscan":
            op = ("dscan", task[1], info.did, run.n)
        elif kind == "dprod":
            op = ("dprod", info.did, run.n)
        elif kind == "join_co":
            op = ("join_co",
                  self._input(worker, run, info, i, task[1]),
                  self._input(worker, run, info, i, task[2]))
        elif kind == "join_b":
            bid = self._ensure_table(worker, task[3])
            op = ("join_b", self._input(worker, run, info, i, task[1]),
                  task[2], bid)
        elif kind == "anti_co":
            op = ("anti_co",
                  self._input(worker, run, info, i, task[1]),
                  self._input(worker, run, info, i, task[2]))
        elif kind == "anti_b":
            bid = self._ensure_table(worker, task[2])
            op = ("anti_b", self._input(worker, run, info, i, task[1]), bid)
        elif kind == "union":
            op = ("union", tuple(
                self._input(worker, run, info, i, child) for child in task[1]
            ))
        elif kind == "group":
            op = ("group", self._input(worker, run, info, i, task[1]))
        elif kind == "gpart":
            op = ("gpart", self._input(worker, run, info, i, task[1]))
        elif kind == "compl":
            bid = self._ensure_table(worker, task[2])
            op = ("compl", bid, info.did, run.n)
        else:
            raise PlanCodecError(f"unknown task kind {kind!r}")
        ckey = self._translate_key(info, key) if key is not None else None
        return ("task", info.run_id, i, info.plan_id, node_id, ckey, op)

    def _translate_key(self, info: _RunInfo, full_key: Tuple) -> Optional[Tuple]:
        """The worker-side form of a shard-cache key.

        Plan nodes, domains, signatures and broadcast tables become compact
        ids (stable per content via the coordinator's intern tables), so a
        worker's warm cache keys stay valid across runs and re-shipping.
        """
        out = []
        for comp in full_key:
            if isinstance(comp, Plan):
                node_id = info.node_ids.get(comp)
                if node_id is None:
                    return None
                out.append(("n", info.plan_id, node_id))
            elif comp is info.domain_obj:
                out.append(("d", info.did))
            elif comp is info.sig_obj:
                out.append(("s", info.sig_id))
            elif isinstance(comp, AbstractSet):  # a broadcast table: frozenset or RowSet
                out.append(("t", self._table_id(comp)))
            else:
                out.append(comp)
        return tuple(out)

    # -- stats / eviction ---------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        with self._lock:
            out: Dict[str, object] = {
                "proc_workers": 0 if not self._workers else sum(
                    1 for w in self._workers if w.alive
                ),
                "proc_tasks": self.tasks,
                "proc_task_hits": self.task_hits,
                "proc_fallbacks": self.fallbacks,
                "proc_restarts": self.restarts,
                "proc_breaker_trips": sum(b.trips for b in self._breakers),
                "proc_breaker_states": tuple(b.state for b in self._breakers),
            }
            per_worker: Dict[int, object] = {}
            for worker in self._workers or ():
                if not worker.alive:
                    continue
                try:
                    per_worker[worker.slot] = self._control(worker, ("stats",))
                except _WorkerDied:
                    self._mark_dead(worker)
                except _WorkerRefused:
                    pass
            out["proc_worker_stats"] = per_worker
        return out

    def evict(self) -> None:
        with self._lock:
            for worker in self._workers or ():
                if not worker.alive:
                    continue
                try:
                    self._control(worker, ("evict",))
                except _WorkerDied:
                    self._mark_dead(worker)
                except _WorkerRefused:
                    pass


def make_shard_executor(
    num_shards: int, threads: int, procs: int, memo_size: int
) -> ShardExecutor:
    """The executor the backend's knobs select (procs beats threads)."""
    if procs > 0 and num_shards > 1:
        return ProcessShardExecutor(num_shards, procs, memo_size)
    if threads > 1:
        return ThreadShardExecutor(threads)
    return InlineShardExecutor()
