"""Sharded parallel plan execution.

:class:`ShardedBackend` extends :class:`~repro.engine.backend.CompiledBackend`
with a partition-aware executor: when the database is a
:class:`~repro.db.sharding.ShardedDatabase`, every plan operator is evaluated
*per shard* (on a thread pool when more than one worker is available) and the
per-shard partial results are combined by an operator-specific strategy:

===================  =========================================================
operator             sharded strategy
===================  =========================================================
``Scan``             shard-local: each shard scans its own partition (a
                     constant-bound partition key prunes to one shard for free
                     — the other partitions simply contain no matching rows)
``Select``           shard-local filter of the child's partials
``Project``          shard-local map of the child's partials
``HashJoin``         **co-partitioned** when both sides are routed on a shared
                     join column (each shard joins locally, nothing crosses
                     shards); otherwise **broadcast**: the smaller side is
                     merged and joined against every partial of the larger
``Antijoin``         broadcast the right side's key set, filter partials
``UnionAll``         per-shard union (falls back to a merge when a child has
                     no partitioned form)
``GroupCount``       co-partitioned count when the group key contains the
                     partition column; otherwise **partial-aggregate + merge**
                     (per-shard counts summed) over disjoint partials
``DomainComplement`` merged active domain, partitioned over the first column
domain leaves        routed by the shared hash router
===================  =========================================================

The union of the partials always equals the serial operator's result — the
conformance suite (``tests/conformance``) checks this against both the naive
interpreter and the serial compiled engine over the full backend × shard
matrix.

**Shard-level result caching** is what makes sharding pay off on update
streams even without provenance: partials of *shard-local* operator subtrees
are cached per shard database, keyed by content (databases hash by content,
and shard objects are interned), so after an update that touches one shard
every other shard's partials are reused — work proportional to the touched
shards, not the database.  This is the scale-out story measured by
``benchmarks/bench_e17_sharded.py``, and because routing is stable across
processes (:func:`repro.db.sharding.shard_of`), the same decomposition is the
unit of distribution for later multi-process deployments.

**Executors.** *How* the per-shard tasks run is delegated to
:mod:`repro.engine.executors`: inline, on a thread pool (the default —
cheap, but GIL-bound), or on a pool of long-lived worker processes
(``REPRO_SHARD_PROCS`` / ``procs=``) that own their shards' relations
persistently and receive plans, deltas and broadcast tables over a compact
wire protocol — true multi-core scaling for CPU-bound operator work,
measured by ``benchmarks/bench_e19_scaling.py``.
"""

from __future__ import annotations

import itertools
import os
import threading
import warnings
import weakref
from collections import Counter
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..db.database import Database
from ..db.delta import row_key as _row_key
from ..db.sharding import (
    PARTITION_COLUMN,
    ShardedDatabase,
    shard_of,
    shards_from_env,
)
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .backend import CompiledBackend, _MAX_PROVENANCE_CHAIN, _LRU
from .executors import make_shard_executor
from .optimize import OptimizerParams
from .plan import (
    build_left_table as _build_left_table,
)
from .plan import (
    build_right_table as _build_right_table,
)
from .plan import (
    group_count_rows as _group_count_rows,
)
from .plan import (
    join_key as _join_key,
)
from .plan import (
    join_rows as _join_rows,
)
from .plan import (
    probe_left_table as _probe_left_table,
)
from .plan import (
    probe_right_table as _probe_right_table,
)
from .plan import (
    Antijoin,
    ConstantTable,
    DomainComplement,
    DomainDiagonal,
    DomainProduct,
    DomainScan,
    ExecutionContext,
    GroupCount,
    HashJoin,
    Plan,
    Project,
    Rows,
    Scan,
    Select,
    SingletonIfActive,
    UnionAll,
)

__all__ = ["POOL_ENV", "PROCS_ENV", "ShardedBackend"]

Row = Tuple[object, ...]

_EMPTY: FrozenSet[Row] = frozenset()
_EMPTY_DEPENDS: FrozenSet[str] = frozenset()

#: environment knob: worker threads of the per-shard pool (0 = inline)
POOL_ENV = "REPRO_SHARD_THREADS"

#: environment knob: worker *processes* (0/unset = stay on threads)
PROCS_ENV = "REPRO_SHARD_PROCS"


def _pool_threads_from_env(num_shards: int) -> int:
    """Pool size: ``REPRO_SHARD_THREADS`` or ``min(shards, cpu count)``.

    On a single-core host this resolves to 1 and the executor runs inline —
    sharding's wins there are algorithmic (co-partitioning, pruning, shard
    cache reuse), and the pool only starts paying once cores exist.
    """
    default = min(num_shards, os.cpu_count() or 1)
    raw = os.environ.get(POOL_ENV, "").strip()
    if raw:
        try:
            return max(0, int(raw))
        except ValueError:
            warnings.warn(
                f"ignoring invalid {POOL_ENV}={raw!r}; expected an integer "
                f"— using {default}",
                RuntimeWarning,
                stacklevel=2,
            )
    return default


def _procs_from_env() -> int:
    """Worker processes: ``REPRO_SHARD_PROCS`` (0/unset keeps thread mode)."""
    raw = os.environ.get(PROCS_ENV, "").strip()
    if raw:
        try:
            return max(0, int(raw))
        except ValueError:
            warnings.warn(
                f"ignoring invalid {PROCS_ENV}={raw!r}; expected an integer "
                "— staying on threads",
                RuntimeWarning,
                stacklevel=2,
            )
    return 0


class _ShardResult:
    """A plan node's result in sharded form.

    ``parts`` is a per-shard decomposition whose union is the node's result
    (``None`` for results only available merged).  ``partition`` names a
    column on which the parts are routed by the shared hash router (the
    co-partitioning witness); ``disjoint`` says the parts are pairwise
    disjoint (required for count-style merging); ``local`` says each part is
    a function of that shard's contents alone (plus domain and signature) —
    the licence for shard-level caching.
    """

    __slots__ = ("parts", "partition", "disjoint", "local", "indexed", "_merged")

    def __init__(
        self,
        parts: Optional[Tuple[Rows, ...]] = None,
        partition: Optional[str] = None,
        disjoint: bool = False,
        local: bool = False,
        indexed: bool = False,
        merged: Optional[Rows] = None,
    ):
        self.parts = parts
        self.partition = partition
        self.disjoint = disjoint
        self.local = local
        # parts depend on the shard *position* (domain-split operators): any
        # cache key covering them must carry (index, shard count)
        self.indexed = indexed
        self._merged = merged

    @classmethod
    def whole(cls, rows: Rows) -> "_ShardResult":
        return cls(merged=rows, disjoint=True)

    def merged(self) -> Rows:
        if self._merged is None:
            self._merged = frozenset().union(*self.parts) if self.parts else _EMPTY
        return self._merged

    def size_hint(self) -> int:
        if self._merged is not None:
            return len(self._merged)
        return sum(len(p) for p in self.parts)


class _ShardedRun:
    """One sharded execution of a plan DAG against one sharded database."""

    def __init__(self, backend: "ShardedBackend", ctx: ExecutionContext):
        self.backend = backend
        self.ctx = ctx
        self.db: ShardedDatabase = ctx.db  # type: ignore[assignment]
        self.shards = self.db.shards
        self.n = len(self.shards)
        self.domain = ctx.domain
        self.signature = ctx.signature
        # a domain that covers the merged database covers each shard of it
        # (scans of whole relations hand out the shard's relation unfiltered);
        # one that does not leaves each shard to compare for itself
        covers = True if ctx.covers_database() else None
        self.shard_ctxs = [
            ExecutionContext(shard, self.domain, self.signature, covers=covers)
            for shard in self.shards
        ]
        # (domain, signature) prefix every shard-cache key carries: a cached
        # partial is only valid for the same quantification domain and the
        # same interpreted signature.  The domain is interned (one equality
        # check per run) so key comparisons hit by object identity instead
        # of re-comparing the whole value set per node.
        self.base_key: Tuple = (backend._intern_domain(self.domain), self.signature)
        self.results: Dict[Plan, _ShardResult] = {}
        self._domain_parts: Optional[Tuple[Tuple[object, ...], ...]] = None

    # -- driving -----------------------------------------------------------------

    def execute(self, plan: Plan) -> Rows:
        # the process executor encodes the whole DAG from this root (and
        # addresses nodes by their index in its spec)
        self.root_plan = plan
        return self.visit(plan).merged()

    def visit(self, node: Plan) -> _ShardResult:
        cached = self.results.get(node)
        if cached is None:
            cached = self._dispatch(node)
            self.results[node] = cached
        return cached

    def _dispatch(self, node: Plan) -> _ShardResult:
        if isinstance(node, Scan):
            return self._scan(node)
        if isinstance(node, Select):
            return self._select(node)
        if isinstance(node, Project):
            return self._project(node)
        if isinstance(node, HashJoin):
            return self._hash_join(node)
        if isinstance(node, Antijoin):
            return self._antijoin(node)
        if isinstance(node, UnionAll):
            return self._union(node)
        if isinstance(node, GroupCount):
            return self._group_count(node)
        if isinstance(node, DomainComplement):
            return self._complement(node)
        if isinstance(node, DomainScan):
            return self._domain_leaf(node, lambda v: (v,), "scan")
        if isinstance(node, DomainDiagonal):
            return self._domain_leaf(node, lambda v: (v, v), "diag")
        if isinstance(node, DomainProduct):
            return self._domain_product(node)
        if isinstance(node, (ConstantTable, SingletonIfActive)):
            return _ShardResult.whole(node.rows(self.ctx))
        # unknown operator (future extension): evaluate serially against the
        # merged database — correct, just not sharded
        return _ShardResult.whole(node.rows(self.ctx))

    # -- per-shard evaluation with content-keyed caching --------------------------

    def per_shard(
        self,
        node: Plan,
        fn: Callable[[int], object],
        key: Optional[Tuple] = None,
        per_index_key: bool = False,
        task: Optional[Tuple] = None,
    ) -> List[object]:
        """Evaluate ``fn(i)`` per shard, through the backend's shard cache.

        ``key`` (when given) must, together with the shard's *contents*,
        fully determine ``fn(i)``'s value — never cache a partial that
        depends on other shards or on the shard's position unless that
        dependency is part of the key (``per_index_key`` appends the shard
        index and count for domain-split operators whose partials depend on
        position, not contents).

        ``task`` declaratively describes what ``fn`` computes so the
        process executor can ship it to a worker instead of running the
        closure here; ``None`` marks work that must stay in-process (e.g.
        selections whose predicate reads the merged database).
        """
        backend = self.backend
        parts: List[object] = [None] * self.n
        pending: List[int] = []
        keys: List[Optional[Tuple]] = [None] * self.n
        node_key = self._node_key(node)
        for i, shard in enumerate(self.shards):
            if key is not None:
                full_key = (node_key,) + key + ((i, self.n) if per_index_key else ())
                keys[i] = full_key
                hit = backend._shard_cache_get(shard, full_key)
                if hit is not None:
                    parts[i] = hit
                    continue
            pending.append(i)
        if key is not None:
            hit_indices = [i for i in range(self.n) if i not in set(pending)]
            backend._count_shard_lookups(hit_indices, pending)
        if pending:
            executor = backend._executor
            if executor is None:  # backend closed: degrade to inline
                values = {i: fn(i) for i in pending}
            else:
                with _trace.span(
                    "engine.shard_map",
                    node=type(node).__name__,
                    shards=len(pending),
                ):
                    values = executor.map_pending(
                        self, node, fn, pending, keys, task
                    )
            for i in pending:
                parts[i] = values[i]
            if key is not None:
                for i in pending:
                    backend._shard_cache_put(self.shards[i], keys[i], parts[i])
        return parts

    @staticmethod
    def _node_key(node: Plan):
        """The shard-cache identity of a plan node.

        Most nodes key by object identity (plans are cached, so the objects
        are stable across evaluations of the same formula).  Scans key
        *structurally*: the same atom pattern appears in many different
        constraints' plans, and its per-shard rows are fully determined by
        ``(relation, pattern)`` plus the shard contents — one constraint's
        scan warms every other's.
        """
        if type(node) is Scan:
            return ("scan", node.relation, node.pattern)
        return node

    def domain_parts(self) -> Tuple[Tuple[object, ...], ...]:
        """The quantification domain split by the shared hash router.

        Cached on the backend keyed by ``(domain, shard count)``: the domain
        is stable along realistic update streams, and re-splitting it per
        query is pure per-step overhead.
        """
        if self._domain_parts is None:
            cache_key = (self.base_key[0], self.n)
            cached = self.backend._domain_splits.get(cache_key)
            if cached is None:
                buckets: List[List[object]] = [[] for _ in range(self.n)]
                for value in self.domain:
                    buckets[shard_of(value, self.n)].append(value)
                cached = tuple(tuple(b) for b in buckets)
                self.backend._domain_splits.put(cache_key, cached)
            self._domain_parts = cached
        return self._domain_parts

    # -- leaves ------------------------------------------------------------------

    def _scan(self, node: Scan) -> _ShardResult:
        parts = self.per_shard(
            node, lambda i: node._rows(self.shard_ctxs[i]), key=self.base_key,
            task=("scan",),
        )
        kind, spec = node.pattern[PARTITION_COLUMN]
        partition = spec if kind == "var" else None
        return _ShardResult(
            parts=tuple(parts), partition=partition, disjoint=True, local=True
        )

    def _domain_leaf(
        self, node: Plan, make: Callable[[object], Row], shape: str
    ) -> _ShardResult:
        dom_parts = self.domain_parts()
        parts = self.per_shard(
            node,
            lambda i: frozenset(make(v) for v in dom_parts[i]),
            key=self.base_key,
            per_index_key=True,
            task=("dscan", shape),
        )
        # local: the part is a pure function of (domain, index, count) — all
        # of which ancestor cache keys carry once `indexed` propagates
        return _ShardResult(
            parts=tuple(parts), partition=node.columns[0], disjoint=True,
            local=True, indexed=True,
        )

    def _domain_product(self, node: DomainProduct) -> _ShardResult:
        if not node.columns:
            return _ShardResult.whole(frozenset({()}))
        if len(node.columns) == 1:
            return self._domain_leaf(node, lambda v: (v,), "scan")
        dom_parts = self.domain_parts()
        rest = (tuple(self.domain),) * (len(node.columns) - 1)

        def fn(i: int) -> Rows:
            return frozenset(itertools.product(dom_parts[i], *rest))

        parts = self.per_shard(
            node, fn, key=self.base_key, per_index_key=True, task=("dprod",)
        )
        return _ShardResult(
            parts=tuple(parts), partition=node.columns[0], disjoint=True,
            local=True, indexed=True,
        )

    # -- unary operators ---------------------------------------------------------

    def _select(self, node: Select) -> _ShardResult:
        child = self.visit(node.child)
        predicate = node.predicate
        gctx = self.ctx  # predicates may read base relations: full database
        if child.parts is None:
            rows = frozenset(r for r in child.merged() if predicate(r, gctx))
            return _ShardResult.whole(rows)
        key: Optional[Tuple] = None
        if child.local:
            if node.depends == _EMPTY_DEPENDS:
                key = self.base_key  # signature-only predicate
            elif node.depends is not None:
                # the predicate reads these base relations of the *merged*
                # database — fingerprint them so a cached partial is only
                # reused while they are unchanged
                key = self.base_key + tuple(
                    self.db.relation(name) for name in sorted(node.depends)
                )
        parts = self.per_shard(
            node,
            lambda i: frozenset(r for r in child.parts[i] if predicate(r, gctx)),
            key=key,
            per_index_key=child.indexed,
            # predicates reading merged base relations must stay in-process
            task=("select", node.child) if node.depends == _EMPTY_DEPENDS else None,
        )
        return _ShardResult(
            parts=tuple(parts),
            partition=child.partition,
            disjoint=child.disjoint,
            local=child.local and node.depends == _EMPTY_DEPENDS,
            indexed=child.indexed,
        )

    def _project(self, node: Project) -> _ShardResult:
        child = self.visit(node.child)
        project = _row_key(node._indices)
        if child.parts is None:
            return _ShardResult.whole(frozenset(map(project, child.merged())))
        parts = self.per_shard(
            node,
            lambda i: frozenset(map(project, child.parts[i])),
            key=self.base_key if child.local else None,
            per_index_key=child.indexed,
            task=("project", node.child),
        )
        partition = child.partition if child.partition in node.columns else None
        disjoint = partition is not None or (
            child.disjoint and set(node.columns) == set(node.child.columns)
        )
        return _ShardResult(
            parts=tuple(parts), partition=partition, disjoint=disjoint,
            local=child.local, indexed=child.indexed,
        )

    # -- joins -------------------------------------------------------------------

    def _hash_join(self, node: HashJoin) -> _ShardResult:
        left = self.visit(node.left)
        right = self.visit(node.right)
        shared = node.shared
        if (
            left.parts is not None
            and right.parts is not None
            and left.partition is not None
            and left.partition == right.partition
            and left.partition in shared
        ):
            # co-partitioned: joining rows agree on the partition column, so
            # they live on the same shard — join locally, nothing crosses
            local = left.local and right.local
            indexed = left.indexed or right.indexed
            parts = self.per_shard(
                node,
                lambda i: _join_rows(node, left.parts[i], right.parts[i]),
                key=self.base_key if local else None,
                per_index_key=indexed,
                task=("join_co", node.left, node.right),
            )
            return _ShardResult(
                parts=tuple(parts), partition=left.partition, disjoint=True,
                local=local, indexed=indexed,
            )
        if left.parts is not None or right.parts is not None:
            # broadcast: keep the partitioned side — preferring a *local*
            # (shard-cacheable) one, then the larger — and merge the other
            if right.parts is None:
                keep_left = True
            elif left.parts is None:
                keep_left = False
            elif left.local != right.local:
                keep_left = left.local
            else:
                keep_left = left.size_hint() >= right.size_hint()
            kept, other = (left, right) if keep_left else (right, left)
            broadcast = other.merged()
            shared = node.shared
            if not shared:
                # cartesian product against the broadcast side
                if keep_left:
                    fn = lambda i: frozenset(  # noqa: E731
                        l + r for l in kept.parts[i] for r in broadcast
                    )
                else:
                    fn = lambda i: frozenset(  # noqa: E731
                        l + r for l in broadcast for r in kept.parts[i]
                    )
            elif keep_left:
                # build once on the broadcast (right) side, probe each
                # partial; the lazy box is shared across shard tasks
                # (idempotent under a pool race)
                table_box: List[Optional[dict]] = [None]

                def fn(i: int) -> Rows:
                    table = table_box[0]
                    if table is None:
                        table = _build_right_table(node, broadcast)
                        table_box[0] = table
                    return _probe_right_table(node, table, kept.parts[i])

            else:
                # broadcast the left side: key its full rows once, probe each
                # right partial and emit in left+extra order
                table_box = [None]

                def fn(i: int) -> Rows:
                    table = table_box[0]
                    if table is None:
                        table = _build_left_table(node, broadcast)
                        table_box[0] = table
                    return _probe_left_table(node, table, kept.parts[i])

            # the broadcast side depends on every shard: it joins the cache
            # key as a fingerprint (with the orientation, since which side
            # was broadcast changes the decomposition)
            key = (
                self.base_key + (broadcast, "L" if keep_left else "R")
                if kept.local
                else None
            )
            parts = self.per_shard(
                node, fn, key=key, per_index_key=kept.indexed,
                task=(
                    "join_b",
                    node.left if keep_left else node.right,
                    keep_left,
                    broadcast,
                ),
            )
            partition = kept.partition
            return _ShardResult(
                parts=tuple(parts),
                partition=partition,
                disjoint=partition is not None or kept.disjoint,
                local=False,
                indexed=kept.indexed,
            )
        return _ShardResult.whole(_join_rows(node, left.merged(), right.merged()))

    def _antijoin(self, node: Antijoin) -> _ShardResult:
        left = self.visit(node.left)
        right = self.visit(node.right)
        if (
            left.parts is not None
            and right.parts is not None
            and left.partition is not None
            and left.partition == right.partition
            and left.partition in node.shared
        ):
            # co-partitioned: a left row's potential matches share its
            # partition-key value, so they live on the same shard — the
            # shard-local antijoin is exact
            local = left.local and right.local
            indexed = left.indexed or right.indexed
            right_key = _join_key(node.right.columns, node.shared)
            left_key = _join_key(node.left.columns, node.shared)

            def co_fn(i: int) -> Rows:
                right_rows = right.parts[i]
                if not right_rows:
                    return left.parts[i]
                keys = {right_key(r) for r in right_rows}
                return frozenset(
                    r for r in left.parts[i] if left_key(r) not in keys
                )

            parts = self.per_shard(
                node, co_fn, key=self.base_key if local else None,
                per_index_key=indexed,
                task=("anti_co", node.left, node.right),
            )
            return _ShardResult(
                parts=tuple(parts), partition=left.partition,
                disjoint=left.disjoint, local=local, indexed=indexed,
            )
        if left.parts is None:
            right_rows = right.merged()
            if not node.shared:
                rows = _EMPTY if right_rows else left.merged()
            else:
                right_key = _join_key(node.right.columns, node.shared)
                keys = {right_key(r) for r in right_rows}
                left_key = _join_key(node.left.columns, node.shared)
                rows = frozenset(
                    r for r in left.merged() if left_key(r) not in keys
                )
            return _ShardResult.whole(rows)
        broadcast = right.merged()
        if not node.shared:
            parts_t: Tuple[Rows, ...] = (
                tuple(_EMPTY for _ in range(self.n))
                if broadcast
                else tuple(left.parts)
            )
            return _ShardResult(
                parts=parts_t, partition=left.partition,
                disjoint=left.disjoint, local=False,
            )
        # build the probe key set lazily and share it across shard tasks
        # (idempotent under a pool race: every builder computes the same set)
        keys_box: List[Optional[frozenset]] = [None]
        right_key = _join_key(node.right.columns, node.shared)
        left_key = _join_key(node.left.columns, node.shared)

        def fn(i: int) -> Rows:
            keys = keys_box[0]
            if keys is None:
                keys = frozenset(right_key(r) for r in broadcast)
                keys_box[0] = keys
            return frozenset(r for r in left.parts[i] if left_key(r) not in keys)

        key = self.base_key + (broadcast,) if left.local else None
        parts = self.per_shard(
            node, fn, key=key, per_index_key=left.indexed,
            task=("anti_b", node.left, broadcast),
        )
        return _ShardResult(
            parts=tuple(parts), partition=left.partition,
            disjoint=left.disjoint, local=False, indexed=left.indexed,
        )

    # -- union, counting, complement ----------------------------------------------

    def _union(self, node: UnionAll) -> _ShardResult:
        children = [self.visit(child) for child in node.parts]
        if len(children) == 1:
            return children[0]
        if any(child.parts is None for child in children):
            rows = frozenset().union(*(child.merged() for child in children))
            return _ShardResult.whole(rows)
        local = all(child.local for child in children)
        indexed = any(child.indexed for child in children)
        parts = self.per_shard(
            node,
            lambda i: frozenset().union(*(child.parts[i] for child in children)),
            key=self.base_key if local else None,
            per_index_key=indexed,
            task=("union", node.parts),
        )
        partitions = {child.partition for child in children}
        partition = partitions.pop() if len(partitions) == 1 else None
        return _ShardResult(
            parts=tuple(parts), partition=partition,
            disjoint=partition is not None, local=local, indexed=indexed,
        )

    def _group_count(self, node: GroupCount) -> _ShardResult:
        child = self.visit(node.child)
        if not node.columns:
            # a single global group: the count is the merged cardinality
            hit = len(child.merged()) >= node.threshold
            return _ShardResult.whole(frozenset({()}) if hit else _EMPTY)
        if child.parts is None:
            return _ShardResult.whole(_group_count_rows(node, child.merged()))
        if child.partition is not None and child.partition in node.columns:
            # the group key contains the partition column: every group lives
            # entirely on one shard — count locally
            parts = self.per_shard(
                node,
                lambda i: _group_count_rows(node, child.parts[i]),
                key=self.base_key if child.local else None,
                per_index_key=child.indexed,
                task=("group", node.child),
            )
            return _ShardResult(
                parts=tuple(parts), partition=child.partition, disjoint=True,
                local=child.local, indexed=child.indexed,
            )
        if child.disjoint:
            # partial-aggregate + merge: per-shard counts, summed, threshold
            # applied after the merge (sound because partials are disjoint)
            key_fn = _join_key(node.child.columns, node.columns)

            def partial(i: int) -> Dict[Row, int]:
                return Counter(map(key_fn, child.parts[i]))

            partials = self.per_shard(
                node, partial,
                key=self.base_key + ("partial",) if child.local else None,
                per_index_key=child.indexed,
                task=("gpart", node.child),
            )
            totals: Dict[Row, int] = {}
            for counts in partials:
                for group, count in counts.items():  # type: ignore[union-attr]
                    totals[group] = totals.get(group, 0) + count
            return _ShardResult.whole(
                frozenset(g for g, n in totals.items() if n >= node.threshold)
            )
        # overlapping partials: repartition on the first group column (which
        # both dedupes — equal rows route together — and co-locates groups),
        # then count locally
        route_index = node.child.columns.index(node.columns[0])
        shuffled: List[set] = [set() for _ in range(self.n)]
        for part in child.parts:
            for row in part:
                shuffled[shard_of(row[route_index], self.n)].add(row)
        parts_out = tuple(
            _group_count_rows(node, frozenset(bucket)) for bucket in shuffled
        )
        return _ShardResult(
            parts=parts_out, partition=node.columns[0], disjoint=True, local=False
        )

    def _complement(self, node: DomainComplement) -> _ShardResult:
        child = self.visit(node.child)
        width = len(node.columns)
        merged = child.merged()
        if width == 0:
            return _ShardResult.whole(_EMPTY if merged else frozenset({()}))
        dom_parts = self.domain_parts()
        rest = (tuple(self.domain),) * (width - 1)

        def fn(i: int) -> Rows:
            return frozenset(
                t for t in itertools.product(dom_parts[i], *rest) if t not in merged
            )

        parts = self.per_shard(
            node, fn, key=self.base_key + (merged,), per_index_key=True,
            task=("compl", node.child, merged),
        )
        # not local: the child's merged rows are a cross-shard input that
        # ancestor keys would not carry (it is this node's own fingerprint)
        return _ShardResult(
            parts=tuple(parts), partition=node.columns[0], disjoint=True,
            local=False, indexed=True,
        )


class _LazyRows(dict):
    """Node-result mapping that merges sharded partials on first access.

    The engine's incremental delta rules consume a remembered ``PlanState``
    through ``rows.get(node)``; storing :class:`_ShardResult` sentinels and
    merging lazily keeps the cold execution path from paying one union per
    node per query for states that are mostly never consulted.
    """

    def _force(self, key, value):
        if isinstance(value, _ShardResult):
            value = value.merged()
            dict.__setitem__(self, key, value)
        return value

    def get(self, key, default=None):
        return self._force(key, dict.get(self, key, default))

    def __getitem__(self, key):
        return self._force(key, dict.__getitem__(self, key))


class ShardedBackend(CompiledBackend):
    """The compiled engine over hash-partitioned databases.

    Inherits the plan cache, the content-keyed result memo, the naive
    fallback and the incremental delta rules from :class:`CompiledBackend`
    (provenance-connected update streams take the same O(|delta|) path), and
    replaces *full plan execution* with the per-shard strategies of
    :class:`_ShardedRun`.  Databases that are not already sharded are
    promoted once (provenance-aware, so a stream of functional updates
    promotes in O(|delta|) per step) and cached weakly.

    ``shards`` defaults to the ``REPRO_SHARDS`` environment knob; the
    per-shard thread pool defaults to ``min(shards, cpu count)`` workers
    (``REPRO_SHARD_THREADS`` overrides, 0 forces inline execution).
    ``procs`` (or ``REPRO_SHARD_PROCS``) switches per-shard execution to a
    pool of long-lived worker *processes* — true multi-core for CPU-bound
    operator work; see :mod:`repro.engine.executors` for the protocol and
    the fallback ladder (threads stay the default).
    """

    name = "sharded"

    def __init__(
        self,
        shards: Optional[int] = None,
        pool_threads: Optional[int] = None,
        procs: Optional[int] = None,
        **kwargs,
    ):
        super().__init__(**kwargs)
        self.num_shards = shards_from_env() if shards is None else int(shards)
        if self.num_shards < 1:
            raise ValueError(f"shard count must be >= 1, got {self.num_shards}")
        # shard-level partial-result cache: weakly keyed by shard database,
        # so entries die with the shards they describe; shard objects are
        # interned by content, which is what turns a rebuilt-but-unchanged
        # shard (cross-process handoff, severed provenance) into cache hits
        self._shard_memo: "weakref.WeakKeyDictionary[Database, _LRU]" = (
            weakref.WeakKeyDictionary()
        )
        self._shard_memo_lock = threading.Lock()
        self._interned: "weakref.WeakValueDictionary[int, Database]" = (
            weakref.WeakValueDictionary()
        )
        self._intern_lock = threading.Lock()
        self._promotions: "weakref.WeakKeyDictionary[Database, ShardedDatabase]" = (
            weakref.WeakKeyDictionary()
        )
        self._promote_lock = threading.Lock()
        self.shard_hits = 0
        self.shard_misses = 0
        # per-shard hit/miss breakdowns (guarded by the inherited counter
        # lock: per_shard reports from pool callbacks on several threads)
        self._shard_hits_by_shard: Dict[int, int] = {}
        self._shard_misses_by_shard: Dict[int, int] = {}
        registry = _metrics.get_registry()
        self._m_shard_hits = registry.counter("engine.shard_cache.hits")
        self._m_shard_misses = registry.counter("engine.shard_cache.misses")
        # (domain, shard count) -> per-shard domain split, shared by runs
        self._domain_splits = _LRU(64)
        # canonical live objects for recently-seen quantification domains
        self._domains = _LRU(64)
        # the run whose results the next _plan_state_from call may adopt
        # (per thread: extension calls are sequential within one thread)
        self._tls = threading.local()
        workers = (
            _pool_threads_from_env(self.num_shards)
            if pool_threads is None
            else max(0, int(pool_threads))
        )
        self.procs = _procs_from_env() if procs is None else max(0, int(procs))
        self._executor = make_shard_executor(
            self.num_shards, workers, self.procs, self._memo_size
        )

    # -- cache plumbing ----------------------------------------------------------

    def close(self) -> None:
        """Shut down the per-shard executor (idempotent).

        Short-lived backends (benchmark sweeps, test matrices) should call
        this — or rely on ``__del__`` — so worker threads/processes do not
        outlive their backend until garbage collection happens to run.
        """
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.close()

    def __del__(self):  # pragma: no cover - interpreter-dependent timing
        try:
            self.close()
        except Exception:
            pass

    def clear_caches(self) -> None:
        super().clear_caches()
        with self._shard_memo_lock:
            self._shard_memo.clear()
        if self._executor is not None:
            self._executor.evict()

    def cache_stats(self) -> Dict[str, int]:
        stats = super().cache_stats()
        with self._shard_memo_lock:
            stats["shard_partials"] = sum(len(lru) for lru in self._shard_memo.values())
        with self._counter_lock:
            stats["shard_hits"] = self.shard_hits
            stats["shard_misses"] = self.shard_misses
            stats["shard_hits_by_shard"] = dict(self._shard_hits_by_shard)
            stats["shard_misses_by_shard"] = dict(self._shard_misses_by_shard)
        if self._executor is not None:
            stats.update(self._executor.stats())
        return stats

    def _count_shard_lookups(
        self, hit_indices: Sequence[int], miss_indices: Sequence[int]
    ) -> None:
        """Lock-safe shard-cache accounting with per-shard breakdowns."""
        if not hit_indices and not miss_indices:
            return
        with self._counter_lock:
            self.shard_hits += len(hit_indices)
            self.shard_misses += len(miss_indices)
            by_hit = self._shard_hits_by_shard
            for i in hit_indices:
                by_hit[i] = by_hit.get(i, 0) + 1
            by_miss = self._shard_misses_by_shard
            for i in miss_indices:
                by_miss[i] = by_miss.get(i, 0) + 1
        if hit_indices:
            self._m_shard_hits.inc(len(hit_indices))
        if miss_indices:
            self._m_shard_misses.inc(len(miss_indices))

    def _shard_cache_get(self, shard: Database, key: Tuple):
        with self._shard_memo_lock:
            lru = self._shard_memo.get(shard)
        if lru is None:
            return None
        return lru.get(key)

    def _shard_cache_put(self, shard: Database, key: Tuple, value) -> None:
        with self._shard_memo_lock:
            lru = self._shard_memo.get(shard)
            if lru is None:
                lru = _LRU(self._memo_size)
                self._shard_memo[shard] = lru
        lru.put(key, value)

    def _intern_domain(self, domain):
        """The canonical object for this domain value (content-equal)."""
        canonical = self._domains.get(domain)
        if canonical is not None:
            return canonical
        self._domains.put(domain, domain)
        return domain

    def _intern_shard(self, shard: Database) -> Database:
        """The canonical live object for this shard content, if one exists.

        Interning makes content-equal shard objects *identical*, so shard
        cache lookups hit by identity instead of paying per-node structural
        equality; one content comparison per shard per promotion buys O(1)
        lookups everywhere downstream.
        """
        digest = hash(shard)
        with self._intern_lock:
            existing = self._interned.get(digest)
            if existing is not None and (existing is shard or existing == shard):
                return existing
            self._interned[digest] = shard
            return shard

    def _intern_shards(self, sharded: ShardedDatabase) -> None:
        shards = sharded.shards
        replacement: Optional[List[Database]] = None
        for index, shard in enumerate(shards):
            canonical = self._intern_shard(shard)
            if canonical is not shard:
                if replacement is None:
                    replacement = list(shards)
                replacement[index] = canonical
        if replacement is not None:
            sharded._shard_dbs = tuple(replacement)

    # -- promotion ---------------------------------------------------------------

    def _promote(self, db: Database) -> ShardedDatabase:
        """A sharded view of ``db`` (content-equal, weakly cached).

        Provenance-aware: when ``db`` descends from an already-promoted
        database via ``apply_delta``, the promotion advances the sharded
        ancestor by the composed delta — O(|delta|), and untouched shard
        objects carry over, keeping the shard caches warm along streams.
        """
        if isinstance(db, ShardedDatabase):
            self._intern_shards(db)
            return db
        with self._promote_lock:
            promoted = self._promotions.get(db)
        if promoted is not None:
            return promoted
        steps = []
        current: Database = db
        ancestor: Optional[ShardedDatabase] = None
        for _ in range(_MAX_PROVENANCE_CHAIN):
            link = current.provenance_step()
            if link is None:
                break
            parent, step = link
            steps.append(step)
            with self._promote_lock:
                ancestor = self._promotions.get(parent)
            if ancestor is not None:
                break
            current = parent
        if ancestor is not None:
            composed = None
            for step in reversed(steps):
                composed = step if composed is None else composed.then(step)
            promoted = ancestor.apply_delta(composed)
        else:
            promoted = ShardedDatabase.from_database(db, self.num_shards)
        self._intern_shards(promoted)
        with self._promote_lock:
            return self._promotions.setdefault(db, promoted)

    # -- the Backend API ---------------------------------------------------------

    def extension(self, formula, db, variables, signature=None, domain=None):
        from ..logic.signature import EMPTY_SIGNATURE

        if signature is None:
            signature = EMPTY_SIGNATURE
        return super().extension(
            formula, self._promote(db), variables, signature, domain
        )

    def _shape(self, formula):
        """Every formula is its own shape, with no parameters: the sharded
        walk routes a scan by the constant in its partition column and ships
        sub-plans to worker processes by value."""
        return formula, ()

    def _optimizer_params(self) -> OptimizerParams:
        """Partition-aware costing: co-partitioned joins parallelise across
        the shards, broadcast joins pay to replicate their smaller side —
        which steers the join reorderer towards orders that keep the
        partition column in the join key (the repartition points).  In
        process mode broadcasts additionally pay the serialization term
        (rows cross a process boundary, not just a function call)."""
        executor = self._executor
        return OptimizerParams(
            num_shards=self.num_shards,
            partition_column=PARTITION_COLUMN,
            executor="threads" if executor is None else executor.kind,
        )

    def _execute_plan(self, plan: Plan, ctx: ExecutionContext) -> Rows:
        if isinstance(ctx.db, ShardedDatabase):
            run = _ShardedRun(self, ctx)
            rows = run.execute(plan)
            self._tls.last_run = run
            return rows
        self._tls.last_run = None
        # non-sharded input: the serial path, including the shared-subplan
        # intermediate memo of the base backend
        return super()._execute_plan(plan, ctx)

    def _plan_state_from(self, ctx: ExecutionContext):
        from .delta import PlanState

        run = getattr(self._tls, "last_run", None)
        self._tls.last_run = None
        if run is None or run.ctx is not ctx:
            return super()._plan_state_from(ctx)
        # serial-fallback nodes already left merged rows in ctx.cache; every
        # sharded node contributes its partials as a lazily-merged sentinel
        rows = _LazyRows(ctx.cache)
        for node, result in run.results.items():
            if node not in rows:
                dict.__setitem__(rows, node, result)
        return PlanState(rows)

    def __repr__(self) -> str:
        kind = "closed" if self._executor is None else self._executor.kind
        return f"<ShardedBackend shards={self.num_shards} executor={kind}>"
