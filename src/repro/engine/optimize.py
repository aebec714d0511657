"""Cost-based plan optimization: statistics-driven join reordering.

The compiler (:mod:`repro.engine.compile`) lowers formulas to algebra plans
in purely *syntactic* order — conjuncts are joined the way the user happened
to write them.  This module is the Selinger-style answer: given the
statistics a database maintains (:mod:`repro.engine.stats`), it

* **estimates** the cardinality of every plan node and prices plans with a
  cost model that charges for rows scanned, hashed and materialised — each
  operator declares its own row of the model beside its semantics in
  :mod:`repro.engine.plan`; :class:`Estimator` memoises them per node;
* **reorders joins**: maximal join blocks (trees of hash joins with their
  pushed-down selections and antijoin filters) are collected and re-assembled
  bottom-up — exact dynamic programming over subsets (bushy shapes included)
  up to ``_DP_CAP`` relations, greedy cheapest-expansion beyond;
* **re-places selections and projections**: filters re-attach as soon as
  their variables are covered, and columns no later operator needs are
  projected away right after the join that made them dead;
* **avoids complements** where a cheaper difference shape exists:
  ``L ⋈ ¬C`` becomes ``L ▷ C`` (antijoin) and ``L ▷ ¬C`` becomes a semijoin
  whenever the complement's columns are covered, so ``domain^k`` is never
  materialised just to subtract from it.

The rewriter never changes a node's output columns: ``rewrite(p).columns ==
p.columns`` for every node it touches, so optimized plans drop into every
consumer of the original.

A plan is only *replaced* when the cost model prices the rewrite strictly
cheaper.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .compile import predicate_for
from .plan import (
    CAP,
    Antijoin,
    ConstantTable,
    DomainComplement,
    Estimate,
    HashJoin,
    Plan,
    Project,
    Select,
    antijoin_estimate,
    join_columns,
    join_cost,
    join_estimate,
    select_cost,
    select_estimate,
)
from .stats import DatabaseStats

__all__ = [
    "Estimate",
    "Estimator",
    "OptimizeInfo",
    "optimize_plan",
]

#: join blocks costed below this run in syntactic order — ordering work on a
#: block that executes in microseconds is pure overhead
_BLOCK_SKIP_COST = 128.0


#: join blocks of up to this many items are ordered by exact dynamic
#: programming, larger ones greedily
_DP_CAP = 5


def _total(op_cost: float, *input_costs: float) -> float:
    """A plan's cost: its root operator's plus its inputs' (capped)."""
    for cost in input_costs:
        op_cost = min(op_cost + cost, CAP)
    return op_cost


class Estimator:
    """Cardinality and cost estimation over one database's statistics.

    Each operator declares its own estimate and cost
    (:meth:`~repro.engine.plan.Plan.estimate`,
    :meth:`~repro.engine.plan.Plan.op_cost`), reading ``stats``, the domain
    size ``n`` and its children's estimates off this object.  Estimates are
    memoised per node object, so pricing the many candidate trees the join
    reorderer builds re-prices only the nodes that changed.
    ``default_domain`` says the domain is the database's own active domain
    (scans then need no extra domain-filter selectivity).
    """

    def __init__(
        self,
        stats: DatabaseStats,
        domain_size: int,
        default_domain: bool = True,
    ):
        self.stats = stats
        self.n = max(float(domain_size), 1.0)
        self.default_domain = default_domain
        self._estimates: Dict[Plan, Estimate] = {}
        self._op_costs: Dict[Plan, float] = {}
        self._total_costs: Dict[Plan, float] = {}

    def estimate(self, node: Plan) -> Estimate:
        cached = self._estimates.get(node)
        if cached is None:
            cached = self._estimates[node] = node.estimate(self)
        return cached

    def op_cost(self, node: Plan) -> float:
        cached = self._op_costs.get(node)
        if cached is None:
            cached = self._op_costs[node] = node.op_cost(self)
        return cached

    def cost(self, root: Plan) -> float:
        """Total estimated cost of executing the plan rooted at ``root``.

        Memoised per node: the join reorderer prices thousands of candidate
        trees whose subtrees repeat, so each distinct subtree is priced once.
        (Sub-plans shared within one DAG are charged per reference — a
        consistent overestimate that keeps the memo context-free.)
        """
        cached = self._total_costs.get(root)
        if cached is None:
            cached = _total(self.op_cost(root), *map(self.cost, root.children()))
            self._total_costs[root] = cached
        return cached


# ---------------------------------------------------------------------------
# the rewriter
# ---------------------------------------------------------------------------

class OptimizeInfo:
    """What one optimization pass did (the backend folds this into counters)."""

    __slots__ = (
        "join_reorders",
        "complements_avoided",
        "original_cost",
        "optimized_cost",
        "rewritten",
    )

    def __init__(self):
        self.join_reorders = 0
        self.complements_avoided = 0
        self.original_cost = 0.0
        self.optimized_cost = 0.0
        self.rewritten = False


class _Filter:
    """A movable pushed-down selection: formula + metadata to rebuild it."""

    __slots__ = ("formula", "description", "variables")

    def __init__(self, node: Select):
        self.formula = node.formula
        self.description = node.description
        self.variables = frozenset(node.formula.free_variables())

    def attach(self, plan: Plan) -> Plan:
        return Select(
            plan,
            predicate_for(self.formula, plan.columns),
            description=self.description,
            formula=self.formula,
        )


class _Sub:
    """One abstractly-priced join-order subproblem.

    ``estimate``, ``cost`` and ``columns`` are what the plan it stands for
    would have, priced by the operators' own formulas.  ``tree`` rebuilds
    that plan on demand: an item index at the leaves, a ``(left, right)``
    pair of subproblems at joins; ``attached`` lists the filters/negations
    priced into this node (re-attached in the same order at
    materialisation), ``applied`` their ids across the whole subtree.
    """

    __slots__ = ("cost", "estimate", "columns", "tree", "applied", "attached")

    def __init__(self, cost: float, estimate: Estimate, columns: Tuple[str, ...], tree):
        self.cost = cost
        self.estimate = estimate
        self.columns = columns
        self.tree = tree
        self.applied: Set[int] = set()
        self.attached: List[object] = []


def optimize_plan(
    plan: Plan,
    stats: DatabaseStats,
    domain_size: int,
    default_domain: bool = True,
    estimator: Optional[Estimator] = None,
) -> Tuple[Plan, OptimizeInfo]:
    """Rewrite ``plan`` into the cheapest equivalent shape the model can find.

    Returns ``(best_plan, info)``; ``best_plan is plan`` when the rewrite did
    not price strictly cheaper (the optimizer never trades a known shape for
    a worse-costed one).  ``estimator`` lets a caller that already priced
    the plan share its memoised estimates.
    """
    info = OptimizeInfo()
    if estimator is None:
        estimator = Estimator(stats, domain_size, default_domain)
    rewriter = _Rewriter(estimator, info)
    rewritten = rewriter.rewrite(plan)
    info.original_cost = estimator.cost(plan)
    info.optimized_cost = estimator.cost(rewritten)
    if rewritten is not plan and info.optimized_cost < info.original_cost:
        info.rewritten = True
        return rewritten, info
    info.optimized_cost = info.original_cost
    return plan, info


class _Rewriter:
    """One bottom-up rewrite pass over a plan DAG (memoised per node)."""

    def __init__(self, estimator: Estimator, info: OptimizeInfo):
        self.estimator = estimator
        self.info = info
        self.memo: Dict[Plan, Plan] = {}
        # the filters/negations of the join block currently being ordered
        # (set by _search for the _Sub pricing helpers)
        self._block_filters: List[_Filter] = []
        self._block_negations: List[Plan] = []

    def rewrite(self, node: Plan) -> Plan:
        cached = self.memo.get(node)
        if cached is None:
            cached = self._rewrite(node)
            if cached.columns != node.columns:  # defensive: never change headers
                cached = node
            self.memo[node] = cached
        return cached

    def _rewrite(self, node: Plan) -> Plan:
        if isinstance(node, (HashJoin, Antijoin, Select)):
            return self._rewrite_block(node)
        return self._rewrite_children(node)

    def _rewrite_children(self, node: Plan) -> Plan:
        """``node`` over its rewritten children (itself where none changed)."""
        children = node.children()
        rebuilt = tuple(self.rewrite(child) for child in children)
        return node if rebuilt == children else node.with_children(rebuilt)

    # -- join blocks -------------------------------------------------------------

    def _rewrite_block(self, root: Plan) -> Plan:
        items: List[Plan] = []
        filters: List[_Filter] = []
        negations: List[Plan] = []  # antijoin right sides (columns must be covered)
        if self.estimator.cost(root) >= _BLOCK_SKIP_COST:
            self._collect(root, items, filters, negations)
        if len(items) <= 1 and not negations and not filters:
            # too cheap to be worth ordering, or nothing to reorder (a lone
            # opaque Select, or an Antijoin adding columns, over one input):
            # keep the shape, still rewrite the children (a nested block may
            # be the expensive one)
            return self._rewrite_children(root)
        covered: Set[str] = set()
        for item in items:
            covered.update(item.columns)
        # complement avoidance: a complement item whose columns the *kept*
        # items still cover is really a negated conjunct — difference, not
        # domain materialisation.  Sequential so two complements over the
        # same columns cannot both leave (someone must keep covering them).
        kept_items: List[Plan] = list(items)
        for item in items:
            if not isinstance(item, DomainComplement):
                continue
            others: Set[str] = set()
            for other in kept_items:
                if other is not item:
                    others.update(other.columns)
            if set(item.columns) <= others:
                kept_items.remove(item)
                negations.append(self.rewrite(item.child))
                self.info.complements_avoided += 1
        items = [self.rewrite(item) for item in kept_items]
        if not items:
            items = [ConstantTable((), [()])]
        assembled = self._order_join(items, filters, negations, tuple(root.columns))
        return assembled

    def _collect(
        self,
        node: Plan,
        items: List[Plan],
        filters: List[_Filter],
        negations: List[Plan],
    ) -> None:
        if isinstance(node, HashJoin):
            self._collect(node.left, items, filters, negations)
            self._collect(node.right, items, filters, negations)
            return
        if isinstance(node, Select) and node.formula is not None:
            self._collect(node.child, items, filters, negations)
            filters.append(_Filter(node))
            return
        if isinstance(node, Antijoin) and set(node.right.columns) <= set(
            node.left.columns
        ):
            # the negated conjunct shape: shared == right.columns, so the
            # antijoin can re-attach anywhere those columns are covered
            self._collect(node.left, items, filters, negations)
            negations.append(self.rewrite(node.right))
            return
        items.append(node)

    # -- join ordering -----------------------------------------------------------

    def _order_join(
        self,
        items: List[Plan],
        filters: List[_Filter],
        negations: List[Plan],
        target: Tuple[str, ...],
    ) -> Plan:
        pending_filters = list(filters)
        pending_negations = list(negations)
        if len(items) <= 2:
            # nothing to reorder (hash joins are cost-symmetric in the
            # model): keep the syntactic order, just re-place the filters —
            # the overwhelmingly common shape, kept off the DP machinery
            plan = items[0]
            plan = self._apply_covered(plan, pending_filters, pending_negations)
            for item in items[1:]:
                plan = HashJoin(plan, item)
                plan = self._apply_covered(plan, pending_filters, pending_negations)
        else:
            winner = self._search(items, filters, negations)
            plan = self._materialize(winner, items)
            pending_filters = [f for f in filters if id(f) not in winner.applied]
            pending_negations = [neg for neg in negations if id(neg) not in winner.applied]
        # anything never covered mid-join is covered by the full column set
        plan = self._apply_covered(plan, pending_filters, pending_negations)
        if pending_filters or pending_negations:
            # a filter/negation the full item set cannot cover would change
            # semantics if attached on a narrower join key — refuse to emit
            # (the backend then keeps the syntactic plan)
            raise RuntimeError(
                "optimizer invariant violated: uncovered filter/negation in "
                f"a join block over {sorted(set(plan.columns))}"
            )
        if len(items) > 1:
            self.info.join_reorders += 1
        plan = prune_columns(plan, set(target))
        return _project_to(plan, target)

    def _apply_covered(
        self, plan: Plan, filters: List[_Filter], negations: List[Plan]
    ) -> Plan:
        # a filter or antijoin keeps the columns: one pass covers them all
        covered = set(plan.columns)
        for pending in list(filters):
            if pending.variables <= covered:
                plan = pending.attach(plan)
                filters.remove(pending)
        for pending in list(negations):
            if set(pending.columns) <= covered:
                plan = Antijoin(plan, pending)
                negations.remove(pending)
        return plan

    # Join orders are priced *abstractly* — estimates and column tuples, no
    # plan nodes — by the same formulas the operators price themselves with,
    # and only the winning order is materialised into real operators.
    # Building and estimating a HashJoin object per DP candidate dominated
    # optimization time before this.

    def _search(
        self, items: List[Plan], filters: List[_Filter], negations: List[Plan]
    ) -> "_Sub":
        """The cheapest join order of ``items`` the search finds, with the
        filters and negations attached as soon as they are covered."""
        self._block_filters = filters
        self._block_negations = negations
        leaves = []
        for index, item in enumerate(items):
            leaf = _Sub(
                self.estimator.cost(item), self.estimator.estimate(item), item.columns, index
            )
            self._price_covered(leaf)
            leaves.append(leaf)
        if len(leaves) <= _DP_CAP:
            return self._dp_order(leaves)
        return self._greedy_order(leaves)

    def _price_covered(self, sub: "_Sub") -> None:
        """Price (and record) every filter/negation ``sub`` newly covers, as
        the ``Select`` / ``Antijoin`` over it would price itself."""
        estimator = self.estimator
        covered = set(sub.columns)  # neither kind changes the columns
        for pending in self._block_filters:
            if id(pending) in sub.applied or not pending.variables <= covered:
                continue
            out = select_estimate(sub.estimate)
            sub.cost = _total(select_cost(sub.estimate, out), sub.cost)
            sub.estimate = out
            sub.applied.add(id(pending))
            sub.attached.append(pending)
        for pending in self._block_negations:
            if id(pending) in sub.applied or not covered.issuperset(pending.columns):
                continue
            right = estimator.estimate(pending)
            shared = tuple(c for c in sub.columns if c in pending.columns)
            out = antijoin_estimate(sub.estimate, right, shared)
            work = join_cost(sub.estimate, right, out, shared, ())
            sub.cost = _total(work, sub.cost, estimator.cost(pending))
            sub.estimate = out
            sub.applied.add(id(pending))
            sub.attached.append(pending)

    def _candidate(self, left: "_Sub", right: "_Sub") -> "_Sub":
        """The priced join of two subproblems, as their ``HashJoin`` would
        price itself, with what it newly covers attached."""
        shared, extra = join_columns(left.columns, right.columns)
        out = join_estimate(left.estimate, right.estimate, shared, extra)
        work = join_cost(left.estimate, right.estimate, out, shared, extra)
        sub = _Sub(
            _total(work, left.cost, right.cost), out, left.columns + extra, (left, right)
        )
        sub.applied = left.applied | right.applied
        self._price_covered(sub)
        return sub

    def _materialize(self, sub: "_Sub", items: List[Plan]) -> Plan:
        if isinstance(sub.tree, int):
            plan = items[sub.tree]
        else:
            left, right = sub.tree
            plan = HashJoin(
                self._materialize(left, items), self._materialize(right, items)
            )
        for pending in sub.attached:
            if isinstance(pending, _Filter):
                plan = pending.attach(plan)
            else:
                plan = Antijoin(plan, pending)
        return plan

    def _dp_order(self, leaves: List["_Sub"]) -> "_Sub":
        """Exact bushy join ordering by dynamic programming over subsets.

        Filters and negations are attached greedily as soon as a subset
        covers their columns (they only shrink intermediates); cross products
        are only considered for subsets with no connected split.
        """
        n = len(leaves)
        best: Dict[FrozenSet[int], _Sub] = {
            frozenset((index,)): leaf for index, leaf in enumerate(leaves)
        }
        for size in range(2, n + 1):
            for combo in combinations(range(n), size):
                subset = frozenset(combo)
                best_connected: Optional[_Sub] = None
                best_any: Optional[_Sub] = None
                for left_key, right_key in _proper_splits(subset):
                    left, right = best[left_key], best[right_key]
                    if not set(left.columns).isdisjoint(right.columns):
                        candidate = self._candidate(left, right)
                        if best_connected is None or candidate.cost < best_connected.cost:
                            best_connected = candidate
                    elif best_connected is None:
                        candidate = self._candidate(left, right)
                        if best_any is None or candidate.cost < best_any.cost:
                            best_any = candidate
                best[subset] = best_connected or best_any  # type: ignore[assignment]
        return best[frozenset(range(n))]

    def _greedy_order(self, leaves: List["_Sub"]) -> "_Sub":
        """Cheapest-expansion greedy join ordering for large blocks."""
        remaining = sorted(leaves, key=lambda sub: sub.estimate.rows)
        acc = remaining.pop(0)
        while remaining:
            best_index, best_cost, best_sub = -1, CAP * 4, None
            for index, sub in enumerate(remaining):
                candidate = self._candidate(acc, sub)
                cost = candidate.cost
                if set(acc.columns).isdisjoint(sub.columns):
                    cost *= 8.0  # discourage cross products
                if cost < best_cost:
                    best_index, best_cost, best_sub = index, cost, candidate
            remaining.pop(best_index)
            acc = best_sub
        return acc


def _proper_splits(subset: FrozenSet[int]):
    """All unordered 2-partitions of ``subset`` (each yielded once)."""
    members = sorted(subset)
    anchor = members[0]
    rest = members[1:]
    total = len(rest)
    for mask in range(1 << total):
        left = {anchor}
        right = set()
        for position, member in enumerate(rest):
            if mask & (1 << position):
                left.add(member)
            else:
                right.add(member)
        if right:
            yield frozenset(left), frozenset(right)


def _project_to(plan: Plan, columns: Tuple[str, ...]) -> Plan:
    # projections compose (pi_A . pi_B = pi_A for A <= B): peeling nested
    # Projects keeps rewritten plans from stacking relabelling steps
    while isinstance(plan, Project) and set(columns) <= set(plan.child.columns):
        plan = plan.child
    if plan.columns == columns:
        return plan
    return Project(plan, columns)


# ---------------------------------------------------------------------------
# projection pushdown (dead-column pruning)
# ---------------------------------------------------------------------------

def prune_columns(plan: Plan, needed: Optional[Set[str]] = None) -> Plan:
    """Project away columns no ancestor reads, as early as possible.

    Only descends through the operators whose column dependencies are fully
    understood (joins, selections, antijoins, projections); anything else is
    a boundary that needs all its columns.  Set semantics make the early
    projection sound: merging duplicate sub-rows before a join cannot change
    the joined *set*.
    """
    if needed is None:
        needed = set(plan.columns)
    if isinstance(plan, Project):
        return Project(prune_columns(plan.child, set(plan.columns)), plan.columns)
    if isinstance(plan, Select):
        required = set(needed)
        if plan.formula is not None:
            required |= plan.formula.free_variables()
            child = prune_columns(plan.child, required)
            if child.columns != plan.child.columns:
                rebuilt: Plan = Select(
                    child,
                    predicate_for(plan.formula, child.columns),
                    plan.description,
                    plan.formula,
                )
            else:
                rebuilt = plan.with_children((child,))
            return _project_keep(rebuilt, needed)
        return plan  # opaque predicate: cannot touch the child's layout
    if isinstance(plan, Antijoin):
        required = set(needed) | set(plan.shared)
        child = prune_columns(plan.left, required)
        return _project_keep(plan.with_children((child, plan.right)), needed)
    if isinstance(plan, HashJoin):
        shared = set(plan.shared)
        left = prune_columns(plan.left, (needed | shared) & set(plan.left.columns))
        right = prune_columns(plan.right, (needed | shared) & set(plan.right.columns))
        return _project_keep(plan.with_children((left, right)), needed)
    return plan


def _project_keep(plan: Plan, needed: Set[str]) -> Plan:
    keep = tuple(c for c in plan.columns if c in needed)
    if len(keep) == len(plan.columns):
        return plan
    return _project_to(plan, keep)
