"""Incremental (delta) evaluation of compiled plans.

The integrity-maintenance hot path evaluates the *same* constraint against a
*stream* of databases, each one a small :class:`~repro.db.delta.Delta` away
from its predecessor.  Re-running the full plan per state costs
O(database) per update; this module instead re-derives each plan node's
result from the node's previous result plus the deltas of its children — the
classic counting/DRed-style incremental view maintenance, specialised to the
engine's physical operators:

===================  ========================================================
operator             delta rule
===================  ========================================================
``Scan``             pattern-match only the relation's inserted/deleted rows
                     (a scan that *is* the relation hands on the successor's)
``Select``           filter only the child's delta (when the predicate's
                     declared base relations are untouched)
``Project``          per-output-row support counters (the counting algorithm)
``HashJoin``         ``Δ(L ⋈ R) = ΔL ⋈ R ∪ L ⋈ ΔR`` over persistent per-key
                     indexes (patched per partition); the semijoin shape
                     keeps a support count per key of the right side
``Antijoin``         dual of the semijoin rule (keys born ⇒ rows leave,
                     keys died ⇒ rows return)
``UnionAll``         per-row branch-support counters
``DomainComplement`` swap the child's delta (adds become removals)
``GroupCount``       per-group witness counters with threshold crossings
domain leaves        unchanged while the quantification domain is unchanged
===================  ========================================================

Any node the rules cannot handle — an unknown operator, a selection with
unknown dependencies, a domain-dependent node under a changed quantification
domain — is *recomputed from its children's new results* and diffed against
its old result, so incrementality degrades per node, never per plan, and the
worst case is one ordinary plan execution.  The same rule covers a node with
no remembered result at all — one a short-circuiting join skipped (or that a
re-planned shape introduced): it is computed from its children and enters as
all-new rows, which is exact because every remembered consumer of a skipped
node holds what an empty input would have given it.  ``REPRO_DELTA=verify``
makes the backend shadow every incremental result — whole formulas and
carried shared sub-plans alike — with a full execution and assert equality,
the delta analogue of keeping :class:`~repro.engine.backend.NaiveBackend` as
the semantics oracle.

Nothing remembered is ever mutated, because the previous database's state
must stay valid — a rolled-back transaction resumes the stream from the
*parent* state.  Node results are persistent :class:`~repro.db.delta.RowSet`
values and key indexes persistent :class:`~repro.db.delta.BucketMap` values:
a successor shares every partition the delta does not touch with its
predecessor, so patching a node, and later dropping the predecessor from the
state history, cost what the delta touched and not what the node holds.  (A
full execution leaves flat ``frozenset`` results; each is partitioned once,
by the first incremental step that changes it.)  Support counters are cloned
and patched.  What a step builds lazily from the *old* rows — a result's
partitions, a join's key indexes — is a pure function of them and is
remembered on the old state too, so a second successor of the same parent
finds it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Set, Tuple

from ..db.database import Database
from ..db.delta import BucketMap, Delta, RowSet, row_key
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
    join_key,
)

__all__ = [
    "PlanState",
    "incremental_update",
    "evaluate_under",
    "predicate_changed",
]

Row = Tuple[object, ...]

_EMPTY: FrozenSet[Row] = frozenset()


def _identity(row: Row) -> Row:
    return row


class _RowsByThemselves:
    """A join's left index keyed on the whole left row: the rows themselves,
    so nothing O(rows) is built on first use (``R(x, y) & condition``)."""

    __slots__ = ("rows",)

    def __init__(self, rows: Rows):
        self.rows = RowSet.of(rows)

    def get(self, key: Row, default=None):
        return (key,) if key in self.rows else default

    def patched(self, _key_of, added, removed) -> "_RowsByThemselves":
        return _RowsByThemselves(self.rows.patched(added, removed))


class PlanState:
    """Everything remembered about one plan execution against one database.

    ``rows`` maps every node of the plan DAG that ran to the rows it produced
    (a node skipped by a short-circuiting join has no entry);
    ``aux`` holds per-node support counters / key indexes, built lazily the
    first time a node is updated incrementally and patched forward after
    that.

    A ``deferred`` state (a streamed verdict's) holds only the sub-plans
    the stream materialised, until a successor asks for the real one.
    """

    __slots__ = ("rows", "aux", "deferred")

    def __init__(
        self, rows: Dict[Plan, Rows], aux: Optional[Dict[Plan, object]] = None,
        deferred: bool = False,
    ):
        self.rows = rows
        self.aux = aux if aux is not None else {}
        self.deferred = deferred


def incremental_update(
    plan: Plan,
    base_db: Database,
    old_state: PlanState,
    delta: Delta,
    ctx: ExecutionContext,
    fixed_domain: bool,
) -> Tuple[Rows, PlanState]:
    """Evaluate ``plan`` against ``ctx.db`` incrementally from ``old_state``.

    ``old_state`` describes the execution against ``base_db`` and ``delta``
    is the (normalized) difference ``ctx.db - base_db``.  ``fixed_domain``
    says the quantification domain was supplied explicitly (so it cannot have
    changed with the database).  Returns the root rows plus the successor
    state.
    """
    if fixed_domain:
        dom_added: FrozenSet[object] = frozenset()
        dom_removed: FrozenSet[object] = frozenset()
    else:
        dom_added, dom_removed = delta.domain_delta(base_db)
    run = _IncrementalRun(old_state, delta, ctx, dom_added, dom_removed)
    run.visit(plan)
    return ctx.cache[plan], PlanState(dict(ctx.cache), run.new_aux)


class _IncrementalRun:
    """One bottom-up incremental pass over a plan DAG."""

    def __init__(
        self,
        old: PlanState,
        delta: Delta,
        ctx: ExecutionContext,
        dom_added: FrozenSet[object],
        dom_removed: FrozenSet[object],
    ):
        self.old = old
        self.delta = delta
        self.ctx = ctx
        self.touched = delta.touched()
        self.dom_added = dom_added
        self.dom_removed = dom_removed
        self.domain_changed = bool(dom_added or dom_removed)
        self.results: Dict[Plan, Tuple[Rows, Rows]] = {}
        self.new_aux: Dict[Plan, object] = {}

    # -- traversal ---------------------------------------------------------------

    def visit(self, node: Plan) -> Tuple[Rows, Rows]:
        """The exact ``(added, removed)`` delta of ``node``; caches new rows."""
        cached = self.results.get(node)
        if cached is not None:
            return cached
        for child in node.children():
            self.visit(child)
        old_rows = self.old.rows.get(node)
        if old_rows is None:
            # a short-circuiting join never ran this node against the base
            # state, so every remembered consumer holds what an empty input
            # gives: it enters as all-new rows, computed from its children
            rows, added, removed = self._recompute(node, _EMPTY)
        else:
            rows, added, removed = self._dispatch(node, old_rows)
        self.ctx.cache[node] = rows
        result = (added, removed)
        self.results[node] = result
        if node not in self.new_aux:
            # a node whose inputs did not change keeps its auxiliary state
            # (it is never mutated, only cloned-and-patched, so sharing is safe)
            old_aux = self.old.aux.get(node)
            if old_aux is not None and all(
                not a and not r
                for a, r in (self.results[child] for child in node.children())
            ):
                self.new_aux[node] = old_aux
        return result

    def _dispatch(self, node: Plan, old_rows: Rows):
        if isinstance(node, Scan):
            return self._scan(node, old_rows)
        if isinstance(node, Select):
            return self._select(node, old_rows)
        if isinstance(node, Project):
            return self._project(node, old_rows)
        if isinstance(node, HashJoin):
            return self._hash_join(node, old_rows)
        if isinstance(node, Antijoin):
            return self._antijoin(node, old_rows)
        if isinstance(node, UnionAll):
            return self._union(node, old_rows)
        if isinstance(node, DomainComplement):
            return self._complement(node, old_rows)
        if isinstance(node, GroupCount):
            return self._group_count(node, old_rows)
        if isinstance(node, DomainScan):
            return self._domain_rows(node, old_rows, lambda v: (v,))
        if isinstance(node, DomainDiagonal):
            return self._domain_rows(node, old_rows, lambda v: (v, v))
        if isinstance(node, DomainProduct):
            if not node.columns:
                return old_rows, _EMPTY, _EMPTY
            if len(node.columns) == 1:
                return self._domain_rows(node, old_rows, lambda v: (v,))
            if not self.domain_changed:
                return old_rows, _EMPTY, _EMPTY
            return self._recompute(node, old_rows)
        if isinstance(node, ConstantTable):
            return old_rows, _EMPTY, _EMPTY
        if isinstance(node, SingletonIfActive):
            if not self.domain_changed:
                return old_rows, _EMPTY, _EMPTY
            return self._recompute(node, old_rows)
        # unknown operator: degrade to a node-local recomputation
        return self._recompute(node, old_rows)

    # -- shared helpers ----------------------------------------------------------

    def _patch(self, node: Plan, old_rows: Rows, added, removed) -> Rows:
        if not added and not removed:
            return old_rows
        if not isinstance(old_rows, RowSet):
            # a full execution's flat result: the row set that wraps it is
            # kept on the old state, so the partitioning its first patch
            # does serves every later successor of that state
            old_rows = self.old.rows[node] = RowSet.of(old_rows)
        return old_rows.patched(added, removed)

    def _finish(self, node: Plan, old_rows: Rows, added, removed):
        added = frozenset(added)
        removed = frozenset(removed)
        return self._patch(node, old_rows, added, removed), added, removed

    def _recompute(self, node: Plan, old_rows: Rows):
        """The universal rule: re-run the node on its children's new rows."""
        rows = node._rows(self.ctx)  # children are already in ctx.cache
        return rows, rows - old_rows, old_rows - rows

    def _unchanged(self, old_rows: Rows):
        return old_rows, _EMPTY, _EMPTY

    def _old_rows(self, node: Plan) -> Rows:
        """The node's rows against the base state (empty where it never ran)."""
        rows = self.old.rows.get(node)
        return _EMPTY if rows is None else rows

    def _aux_for(self, node: Plan, build):
        """The node's previous auxiliary state, building it on first use.

        The returned object must be treated as read-only — ``_patch_counts``
        clones before patching and ``BucketMap.patched`` copies the touched
        partitions, so the predecessor state stays valid for rollback-style
        branching.
        """
        aux = self.old.aux.get(node)
        if aux is None:
            # a pure function of the old rows: remembered where it was built
            # from, so a second successor of the old state does not rebuild it
            aux = self.old.aux[node] = build()
        return aux

    # -- leaves ------------------------------------------------------------------

    def _domain_rows(self, node: Plan, old_rows: Rows, shape):
        if not self.domain_changed:
            return self._unchanged(old_rows)
        added = frozenset(shape(v) for v in self.dom_added)
        removed = frozenset(shape(v) for v in self.dom_removed)
        return self._patch(node, old_rows, added, removed), added, removed

    def _scan(self, node: Scan, old_rows: Rows):
        inserted = self.delta.inserted.get(node.relation, _EMPTY)
        deleted = self.delta.deleted.get(node.relation, _EMPTY)
        if node.is_relation(self.ctx):
            # the scan is the relation: the successor database already holds
            # its new rows (the guards only matter where the old domain did
            # not cover the old database)
            rows = self.ctx.db.relation(node.relation)
            return rows, inserted - old_rows, deleted & old_rows
        if self.domain_changed:
            # rows of the *unchanged* relation may enter/leave the scan when
            # the domain filter moves; a node-local rescan is the honest cost
            return self._recompute(node, old_rows)
        if not inserted and not deleted:
            return self._unchanged(old_rows)
        added = self._match_pattern(node, inserted) if inserted else _EMPTY
        removed = self._match_pattern(node, deleted) if deleted else _EMPTY
        # pattern matching is injective on matching rows, so these are exact;
        # the intersections guard the invariant at O(delta) cost
        added = added - old_rows
        removed = removed & old_rows
        return self._patch(node, old_rows, added, removed), added, removed

    def _match_pattern(self, node: Scan, candidates) -> Rows:
        """Scan's matching semantics (``Scan.match_row``) over delta rows only."""
        domain, params = self.ctx.domain, self.ctx.params
        out: Set[Row] = set()
        for row in candidates:
            matched = node.match_row(row, domain, params)
            if matched is not None:
                out.add(matched)
        return frozenset(out)

    # -- unary operators ---------------------------------------------------------

    def _select(self, node: Select, old_rows: Rows):
        if node.depends is None or (node.depends & self.touched):
            # unknown or invalidated predicate: re-filter the child's new rows
            return self._recompute(node, old_rows)
        child_added, child_removed = self.results[node.child]
        if not child_added and not child_removed:
            return self._unchanged(old_rows)
        predicate = node.predicate
        ctx = self.ctx
        added = frozenset(row for row in child_added if predicate(row, ctx))
        removed = child_removed & old_rows
        return self._patch(node, old_rows, added, removed), added, removed

    def _project(self, node: Project, old_rows: Rows):
        child_added, child_removed = self.results[node.child]
        if not child_added and not child_removed:
            return self._unchanged(old_rows)
        key_of = row_key(node._indices)

        def build():
            return self._count_rows(self._old_rows(node.child), key_of)

        counts, touched_keys = self._patch_counts(
            self._aux_for(node, build), key_of, child_added, child_removed
        )
        self.new_aux[node] = counts
        added = [k for k in touched_keys if k in counts and k not in old_rows]
        removed = [k for k in touched_keys if k not in counts and k in old_rows]
        return self._finish(node, old_rows, added, removed)

    def _complement(self, node: DomainComplement, old_rows: Rows):
        if not node.columns:
            child_rows = self.ctx.cache[node.child]
            rows = _EMPTY if child_rows else frozenset({()})
            return rows, rows - old_rows, old_rows - rows
        if self.domain_changed:
            return self._recompute(node, old_rows)
        child_added, child_removed = self.results[node.child]
        # child rows always lie inside domain^k, so the swap is exact
        added, removed = child_removed, child_added
        return self._patch(node, old_rows, added, removed), added, removed

    def _group_count(self, node: GroupCount, old_rows: Rows):
        child_added, child_removed = self.results[node.child]
        if not child_added and not child_removed:
            return self._unchanged(old_rows)
        key_of = join_key(node.child.columns, node.columns)

        def build():
            return self._count_rows(self._old_rows(node.child), key_of)

        counts, touched_groups = self._patch_counts(
            self._aux_for(node, build), key_of, child_added, child_removed
        )
        self.new_aux[node] = counts
        threshold = node.threshold
        added = [
            g for g in touched_groups
            if counts.get(g, 0) >= threshold and g not in old_rows
        ]
        removed = [
            g for g in touched_groups
            if counts.get(g, 0) < threshold and g in old_rows
        ]
        return self._finish(node, old_rows, added, removed)

    def _union(self, node: UnionAll, old_rows: Rows):
        deltas = [self.results[part] for part in node.parts]
        if all(not a and not r for a, r in deltas):
            return self._unchanged(old_rows)

        def build():
            counts: Dict[Row, int] = {}
            for part in node.parts:
                for row in self._old_rows(part):
                    counts[row] = counts.get(row, 0) + 1
            return counts

        counts, touched_rows = self._patch_counts(
            self._aux_for(node, build),
            _identity,
            [row for added_rows, _ in deltas for row in added_rows],
            [row for _, removed_rows in deltas for row in removed_rows],
        )
        self.new_aux[node] = counts
        added = [r for r in touched_rows if r in counts and r not in old_rows]
        removed = [r for r in touched_rows if r not in counts and r in old_rows]
        return self._finish(node, old_rows, added, removed)

    # -- binary operators --------------------------------------------------------

    def _hash_join(self, node: HashJoin, old_rows: Rows):
        left, right = node.left, node.right
        left_added, left_removed = self.results[left]
        right_added, right_removed = self.results[right]
        if not (left_added or left_removed or right_added or right_removed):
            return self._unchanged(old_rows)
        left_new, right_new = self.ctx.cache[left], self.ctx.cache[right]
        left_old, right_old = self._old_rows(left), self._old_rows(right)
        if not node._right_extra:
            if not node.shared:
                # the right child is a pure emptiness guard
                was, now = bool(right_old), bool(right_new)
                if was and now:
                    added, removed = left_added, left_removed
                elif not was and not now:
                    added, removed = _EMPTY, _EMPTY
                elif now:
                    added, removed = left_new, _EMPTY
                else:
                    added, removed = _EMPTY, old_rows
                return self._patch(node, old_rows, added, removed), added, removed
            return self._semijoin(node, old_rows, True)
        if not node.shared:
            # cartesian product: every delta row pairs with the whole other side
            added = {l + r for l in left_added for r in right_new}
            added.update(l + r for l in left_new for r in right_added)
            removed = {l + r for l in left_removed for r in right_old}
            removed.update(l + r for l in left_old for r in right_removed)
            return self._finish(node, old_rows, added, removed)
        return self._general_join(node, old_rows)

    def _join_aux(self, node: Plan, left: Plan, right: Plan, shared, count_right: bool):
        """``(left_index, right_side)`` aux for (semi/anti/full) joins.

        ``left_index`` maps join keys to the full left rows carrying them;
        ``right_side`` is either a per-key support count (semijoin/antijoin)
        or the same map over the right rows (general join).
        """
        left_key = join_key(left.columns, shared)
        right_key = join_key(right.columns, shared)

        def build():
            if tuple(shared) == tuple(left.columns):
                left_index = _RowsByThemselves(self._old_rows(left))
            else:
                left_index = BucketMap.build(self._old_rows(left), left_key)
            if count_right:
                right_side = self._count_rows(self._old_rows(right), right_key)
            else:
                right_side = BucketMap.build(self._old_rows(right), right_key)
            return left_index, right_side

        return self._aux_for(node, build), left_key, right_key

    @staticmethod
    def _count_rows(rows, key_of) -> Dict[Row, int]:
        counts: Dict[Row, int] = {}
        for row in rows:
            key = key_of(row)
            counts[key] = counts.get(key, 0) + 1
        return counts

    @staticmethod
    def _patch_counts(counts: Dict[Row, int], key_of, added, removed):
        """Clone-and-patch a support counter; a count reaching zero is evicted.

        Returns ``(patched, touched_keys)`` — the single counting rule behind
        projections, unions, grouped counting and the (anti/semi)join key
        supports.
        """
        patched = dict(counts)
        touched: Set[Row] = set()
        for row in added:
            key = key_of(row)
            patched[key] = patched.get(key, 0) + 1
            touched.add(key)
        for row in removed:
            key = key_of(row)
            remaining = patched.get(key, 0) - 1
            if remaining <= 0:
                patched.pop(key, None)
            else:
                patched[key] = remaining
            touched.add(key)
        return patched, touched

    def _semijoin(self, node: HashJoin, old_rows: Rows, _marker):
        left, right, shared = node.left, node.right, node.shared
        left_added, left_removed = self.results[left]
        right_added, right_removed = self.results[right]
        (old_left_index, old_counts), left_key, right_key = self._join_aux(
            node, left, right, shared, count_right=True
        )
        new_left_index = old_left_index.patched(left_key, left_added, left_removed)
        new_counts, touched_keys = self._patch_counts(
            old_counts, right_key, right_added, right_removed
        )
        born = {k for k in touched_keys if k in new_counts and k not in old_counts}
        died = {k for k in touched_keys if k not in new_counts and k in old_counts}
        added: Set[Row] = {l for l in left_added if left_key(l) in new_counts}
        for key in born:
            added.update(new_left_index.get(key, _EMPTY))
        removed: Set[Row] = {l for l in left_removed if left_key(l) in old_counts}
        for key in died:
            removed.update(old_left_index.get(key, _EMPTY))
        self.new_aux[node] = (new_left_index, new_counts)
        return self._finish(node, old_rows, added, removed)

    def _general_join(self, node: HashJoin, old_rows: Rows):
        left, right, shared = node.left, node.right, node.shared
        left_added, left_removed = self.results[left]
        right_added, right_removed = self.results[right]
        (old_left_index, old_right_index), left_key, right_key = self._join_aux(
            node, left, right, shared, count_right=False
        )
        new_left_index = old_left_index.patched(left_key, left_added, left_removed)
        new_right_index = old_right_index.patched(right_key, right_added, right_removed)
        extra = join_key(right.columns, node._right_extra)
        added: Set[Row] = set()
        for l in left_added:
            for r in new_right_index.get(left_key(l), _EMPTY):
                added.add(l + extra(r))
        for r in right_added:
            for l in new_left_index.get(right_key(r), _EMPTY):
                added.add(l + extra(r))
        removed: Set[Row] = set()
        for l in left_removed:
            for r in old_right_index.get(left_key(l), _EMPTY):
                removed.add(l + extra(r))
        for r in right_removed:
            for l in old_left_index.get(right_key(r), _EMPTY):
                removed.add(l + extra(r))
        self.new_aux[node] = (new_left_index, new_right_index)
        return self._finish(node, old_rows, added, removed)

    def _antijoin(self, node: Antijoin, old_rows: Rows):
        left, right, shared = node.left, node.right, node.shared
        left_added, left_removed = self.results[left]
        right_added, right_removed = self.results[right]
        if not (left_added or left_removed or right_added or right_removed):
            return self._unchanged(old_rows)
        if not shared:
            left_new = self.ctx.cache[left]
            right_new = self.ctx.cache[right]
            was, now = bool(self._old_rows(right)), bool(right_new)
            if not was and not now:
                added, removed = left_added, left_removed
            elif was and now:
                added, removed = _EMPTY, _EMPTY
            elif now:  # right became non-empty: the result empties out
                added, removed = _EMPTY, old_rows
            else:  # right became empty: every current left row qualifies
                added, removed = left_new, _EMPTY
            return self._patch(node, old_rows, added, removed), added, removed
        (old_left_index, old_counts), left_key, right_key = self._join_aux(
            node, left, right, shared, count_right=True
        )
        new_left_index = old_left_index.patched(left_key, left_added, left_removed)
        new_counts, touched_keys = self._patch_counts(
            old_counts, right_key, right_added, right_removed
        )
        born = {k for k in touched_keys if k in new_counts and k not in old_counts}
        died = {k for k in touched_keys if k not in new_counts and k in old_counts}
        added: Set[Row] = {l for l in left_added if left_key(l) not in new_counts}
        for key in died:
            added.update(new_left_index.get(key, _EMPTY))
        removed: Set[Row] = {l for l in left_removed if left_key(l) not in old_counts}
        for key in born:
            removed.update(old_left_index.get(key, _EMPTY))
        self.new_aux[node] = (new_left_index, new_counts)
        return self._finish(node, old_rows, added, removed)


# ---------------------------------------------------------------------------
# predicate re-checks under a foreign delta
# ---------------------------------------------------------------------------

def evaluate_under(
    formula,
    base: Database,
    delta: Delta,
    signature=None,
    backend=None,
) -> bool:
    """``base ⊕ delta |= formula`` — evaluated through the provenance chain.

    The successor state is produced with :meth:`Database.apply_delta`, so a
    delta-aware backend answers through the incremental rules above — O(|delta|)
    given a warm state for ``base`` — instead of re-running the plan.  This is
    the primitive the MVCC service uses to re-check a transaction's read
    predicates under a *foreign* delta (another transaction's committed
    effect) at validation time.
    """
    from ..logic.signature import EMPTY_SIGNATURE
    from .backend import active_backend

    if backend is None:
        backend = active_backend()
    if signature is None:
        signature = EMPTY_SIGNATURE
    return backend.evaluate(formula, base.apply_delta(delta), signature=signature)


def predicate_changed(
    formula,
    base: Database,
    delta: Delta,
    signature=None,
    backend=None,
) -> bool:
    """Does the truth value of ``formula`` differ between ``base`` and ``base ⊕ delta``?

    Both evaluations go through the active (or given) backend; when the base
    state was evaluated before — the usual case, since the predicate was read
    by a live transaction — the first check is a memo hit and the second runs
    incrementally, so the whole re-check costs O(|delta|).  An empty delta
    never changes a predicate and short-circuits to ``False``.
    """
    from ..logic.signature import EMPTY_SIGNATURE
    from .backend import active_backend

    if delta.is_empty():
        return False
    if backend is None:
        backend = active_backend()
    if signature is None:
        signature = EMPTY_SIGNATURE
    before = backend.evaluate(formula, base, signature=signature)
    after = backend.evaluate(formula, base.apply_delta(delta), signature=signature)
    return before != after
