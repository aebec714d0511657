"""Cost-based plan optimization: statistics-driven join reordering.

The compiler (:mod:`repro.engine.compile`) lowers formulas to algebra plans
in purely *syntactic* order — conjuncts are joined the way the user happened
to write them.  This module is the Selinger-style answer: given the
statistics a database maintains (:mod:`repro.engine.stats`), it

* **estimates** the cardinality of every plan node (:class:`Estimator`) and
  prices plans with a cost model that charges for rows scanned, hashed and
  materialised;
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
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .compile import predicate_for
from .plan import (
    Antijoin,
    ConstantTable,
    DomainComplement,
    DomainDiagonal,
    DomainProduct,
    DomainScan,
    GroupCount,
    HashJoin,
    Plan,
    Project,
    Scan,
    Select,
    SingletonIfActive,
    UnionAll,
)
from .stats import DatabaseStats

__all__ = [
    "Estimate",
    "Estimator",
    "OptimizeInfo",
    "optimize_plan",
    "explain_plan",
]

Row = Tuple[object, ...]

#: estimates and costs are capped here so products never overflow a float
_CAP = 1e30

#: default selectivity of a pushed-down predicate the model cannot inspect
_SELECT_SEL = 0.33

#: cost charged per interpreted-predicate call relative to a set operation
_PREDICATE_COST = 4.0

#: join blocks costed below this run in syntactic order — ordering work on a
#: block that executes in microseconds is pure overhead
_BLOCK_SKIP_COST = 128.0


#: join blocks of up to this many items are ordered by exact dynamic
#: programming, larger ones greedily
_DP_CAP = 5


def _ndv_over(ndv: Dict[str, float], rows: float, columns) -> float:
    """Distinct-tuple estimate over ``columns`` given per-column NDVs."""
    product = 1.0
    for column in columns:
        product = min(product * max(ndv.get(column, rows), 1.0), _CAP)
    return max(min(product, rows if rows > 0 else product), 1.0)


class Estimate:
    """Estimated output of one plan node: row count plus per-column NDVs."""

    __slots__ = ("rows", "ndv")

    def __init__(self, rows: float, ndv: Dict[str, float]):
        self.rows = min(max(rows, 0.0), _CAP)
        self.ndv = ndv

    def ndv_of(self, columns: Sequence[str]) -> float:
        """Estimated number of distinct value tuples over ``columns``."""
        return _ndv_over(self.ndv, self.rows, columns)


class Estimator:
    """Cardinality and cost estimation over one database's statistics.

    Estimates are memoised per node object, so pricing the many candidate
    trees the join reorderer builds re-prices only the nodes that changed.
    ``domain_size`` is the quantification domain's size; ``default_domain``
    says the domain is the database's own active domain (scans then need no
    extra domain-filter selectivity).
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

    # -- cardinalities -----------------------------------------------------------

    def estimate(self, node: Plan) -> Estimate:
        cached = self._estimates.get(node)
        if cached is None:
            cached = self._estimate(node)
            self._estimates[node] = cached
        return cached

    def _estimate(self, node: Plan) -> Estimate:
        n = self.n
        if isinstance(node, Scan):
            return self._estimate_scan(node)
        if isinstance(node, (DomainScan, DomainDiagonal)):
            return Estimate(n, {c: n for c in node.columns})
        if isinstance(node, DomainProduct):
            return Estimate(
                min(n ** len(node.columns), _CAP), {c: n for c in node.columns}
            )
        if isinstance(node, ConstantTable):
            rows = float(len(node._data))
            return Estimate(rows, {c: rows for c in node.columns})
        if isinstance(node, SingletonIfActive):
            return Estimate(1.0, {node.columns[0]: 1.0})
        if isinstance(node, Select):
            child = self.estimate(node.child)
            rows = child.rows * _SELECT_SEL
            return Estimate(
                rows, {c: min(v, rows) for c, v in child.ndv.items()}
            )
        if isinstance(node, Project):
            child = self.estimate(node.child)
            if set(node.columns) == set(node.child.columns):
                rows = child.rows  # pure reorder, no dedup
            else:
                rows = min(child.rows, child.ndv_of(node.columns))
            return Estimate(
                rows,
                {c: min(child.ndv.get(c, rows), rows) for c in node.columns},
            )
        if isinstance(node, HashJoin):
            return self._estimate_join(node)
        if isinstance(node, Antijoin):
            return self._estimate_antijoin(node)
        if isinstance(node, UnionAll):
            children = [self.estimate(part) for part in node.parts]
            rows = min(sum(c.rows for c in children), min(n ** len(node.columns), _CAP))
            ndv = {
                c: min(sum(child.ndv.get(c, 0.0) for child in children), rows)
                for c in node.columns
            }
            return Estimate(rows, ndv)
        if isinstance(node, DomainComplement):
            child = self.estimate(node.child)
            total = min(n ** len(node.columns), _CAP)
            rows = max(total - child.rows, 0.0)
            return Estimate(rows, {c: min(n, rows) for c in node.columns})
        if isinstance(node, GroupCount):
            child = self.estimate(node.child)
            groups = child.ndv_of(node.columns)
            if node.threshold > 1 and groups > 0:
                witnesses = child.rows / groups
                groups *= min(1.0, witnesses / node.threshold)
            rows = min(groups, child.rows)
            return Estimate(
                rows, {c: min(child.ndv.get(c, rows), rows) for c in node.columns}
            )
        # unknown operator: assume it passes its first child through
        children = node.children()
        if children:
            child = self.estimate(children[0])
            return Estimate(child.rows, dict(child.ndv))
        return Estimate(1.0, {c: 1.0 for c in node.columns})

    def _estimate_scan(self, node: Scan) -> Estimate:
        try:
            rel = self.stats.relation(node.relation)
        except KeyError:
            return Estimate(0.0, {c: 0.0 for c in node.columns})
        if len(node.pattern) != len(rel.columns):
            return Estimate(0.0, {c: 0.0 for c in node.columns})
        cardinality = float(rel.cardinality)
        if cardinality <= 0:
            return Estimate(0.0, {c: 0.0 for c in node.columns})
        selectivity = 1.0
        first_position: Dict[str, int] = {}
        for position, (kind, spec) in enumerate(node.pattern):
            if kind == "const":
                # the counters are complete, so this selectivity is exact
                selectivity *= rel.column(position).frequency(spec) / cardinality
            elif kind == "param":
                # the plan serves every binding: the column's mean frequency
                selectivity *= 1.0 / max(rel.column(position).distinct, 1)
            elif spec in first_position:
                # repeated variable: rows must agree across the two columns
                selectivity *= 1.0 / max(rel.column(position).distinct, 1)
            else:
                first_position[spec] = position
                if not self.default_domain:
                    distinct = max(rel.column(position).distinct, 1)
                    selectivity *= min(1.0, self.n / distinct)
        rows = cardinality * selectivity
        ndv = {
            name: min(float(rel.column(pos).distinct), max(rows, 0.0))
            for name, pos in first_position.items()
        }
        return Estimate(rows, ndv)

    def _estimate_join(self, node: HashJoin) -> Estimate:
        left = self.estimate(node.left)
        right = self.estimate(node.right)
        shared = node.shared
        if not node._right_extra:
            if not shared:  # emptiness guard
                rows = left.rows if right.rows >= 0.5 else 0.0
                return Estimate(rows, {c: min(v, rows) for c, v in left.ndv.items()})
            match = min(
                1.0, right.ndv_of(shared) / max(left.ndv_of(shared), 1.0)
            )
            rows = left.rows * match
            return Estimate(rows, {c: min(v, rows) for c, v in left.ndv.items()})
        if not shared:
            rows = min(left.rows * right.rows, _CAP)
        else:
            denominator = max(left.ndv_of(shared), right.ndv_of(shared), 1.0)
            rows = min(left.rows * right.rows / denominator, _CAP)
        ndv: Dict[str, float] = {}
        for column in node.columns:
            source = left.ndv.get(column)
            if source is None:
                source = right.ndv.get(column, rows)
            elif column in right.ndv:
                source = min(source, right.ndv[column])
            ndv[column] = min(source, rows)
        return Estimate(rows, ndv)

    def _estimate_antijoin(self, node: Antijoin) -> Estimate:
        left = self.estimate(node.left)
        right = self.estimate(node.right)
        if not node.shared:
            rows = left.rows if right.rows < 0.5 else 0.0
        else:
            match = min(
                1.0, right.ndv_of(node.shared) / max(left.ndv_of(node.shared), 1.0)
            )
            rows = left.rows * max(1.0 - match, 0.05)
        return Estimate(rows, {c: min(v, rows) for c, v in left.ndv.items()})

    # -- costs -------------------------------------------------------------------

    def cost(self, root: Plan) -> float:
        """Total estimated cost of executing the plan rooted at ``root``.

        Memoised per node: the join reorderer prices thousands of candidate
        trees whose subtrees repeat, so each distinct subtree is priced once.
        (Sub-plans shared within one DAG are charged per reference — a
        consistent overestimate that keeps the memo context-free.)
        """
        cached = self._total_costs.get(root)
        if cached is None:
            cached = self.op_cost(root)
            for child in root.children():
                cached = min(cached + self.cost(child), _CAP)
            self._total_costs[root] = cached
        return cached

    def op_cost(self, node: Plan) -> float:
        cached = self._op_costs.get(node)
        if cached is None:
            cached = self._op_cost(node)
            self._op_costs[node] = cached
        return cached

    def _op_cost(self, node: Plan) -> float:
        rows = self.estimate(node).rows
        if isinstance(node, Scan):
            if node._const_positions:
                return rows + 1.0  # index lookup
            try:
                cardinality = float(self.stats.relation(node.relation).cardinality)
            except KeyError:
                cardinality = 0.0
            return cardinality + rows + 1.0
        if isinstance(node, (DomainScan, DomainDiagonal, DomainProduct)):
            return rows + 1.0
        if isinstance(node, (ConstantTable, SingletonIfActive)):
            return 1.0
        if isinstance(node, Select):
            child_rows = self.estimate(node.child).rows
            return child_rows * _PREDICATE_COST + rows
        if isinstance(node, Project):
            return self.estimate(node.child).rows + rows
        if isinstance(node, (HashJoin, Antijoin)):
            left = self.estimate(node.left).rows
            right = self.estimate(node.right).rows
            if isinstance(node, HashJoin) and not node.shared and node._right_extra:
                return min(left * right, _CAP) + rows  # cartesian product
            return left + right + rows
        if isinstance(node, UnionAll):
            return sum(self.estimate(part).rows for part in node.parts) + rows
        if isinstance(node, DomainComplement):
            total = min(self.n ** len(node.columns), _CAP)
            return total + self.estimate(node.child).rows
        if isinstance(node, GroupCount):
            return self.estimate(node.child).rows + rows
        return rows + 1.0


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

    ``tree`` rebuilds the real plan on demand: an item index at the leaves,
    a ``(left, right)`` pair of subproblems at joins; ``attached`` lists the
    filters/negations priced into this node (re-attached in the same order
    at materialisation), ``applied`` their ids across the whole subtree.
    """

    __slots__ = ("cost", "rows", "ndv", "cols", "tree", "applied", "attached")

    def __init__(self, cost, rows, ndv, cols, tree):
        self.cost = cost
        self.rows = rows
        self.ndv = ndv
        self.cols = cols
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
        # (set by _dp_order/_greedy_order for the _Sub pricing helpers)
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
        if isinstance(node, Project):
            return Project(self.rewrite(node.child), node.columns)
        if isinstance(node, UnionAll):
            return UnionAll([self.rewrite(part) for part in node.parts])
        if isinstance(node, GroupCount):
            return GroupCount(self.rewrite(node.child), node.columns, node.threshold)
        if isinstance(node, DomainComplement):
            return DomainComplement(self.rewrite(node.child))
        return node  # leaves are already optimal

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
            children = root.children()
            rebuilt = tuple(self.rewrite(child) for child in children)
            return root if rebuilt == children else _with_children(root, rebuilt)
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
        elif len(items) <= _DP_CAP:
            plan = self._dp_order(items, pending_filters, pending_negations)
        else:
            plan = self._greedy_order(items, pending_filters, pending_negations)
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
        changed = True
        while changed:
            changed = False
            covered = set(plan.columns)
            for pending in list(filters):
                if pending.variables <= covered:
                    plan = pending.attach(plan)
                    filters.remove(pending)
                    changed = True
            for pending in list(negations):
                if set(pending.columns) <= covered:
                    plan = Antijoin(plan, pending)
                    negations.remove(pending)
                    changed = True
        return plan

    # Join orders are priced *abstractly* — floats and column sets, no plan
    # nodes — and only the winning order is materialised into real operators.
    # Building and estimating a HashJoin object per DP candidate dominated
    # optimization time before this.

    def _leaf_sub(self, index: int, item: Plan) -> "_Sub":
        estimate = self.estimator.estimate(item)
        sub = _Sub(
            cost=self.estimator.cost(item),
            rows=estimate.rows,
            ndv=dict(estimate.ndv),
            cols=frozenset(item.columns),
            tree=index,
        )
        self._decorate_sub(sub)
        return sub

    def _decorate_sub(self, sub: "_Sub") -> None:
        """Price (and record) every filter/negation ``sub`` newly covers."""
        estimator = self.estimator
        changed = True
        while changed:
            changed = False
            for pending in self._block_filters:
                if id(pending) in sub.applied or not pending.variables <= sub.cols:
                    continue
                new_rows = sub.rows * _SELECT_SEL
                sub.cost += sub.rows * _PREDICATE_COST + new_rows
                sub.rows = new_rows
                sub.ndv = {c: min(v, new_rows) for c, v in sub.ndv.items()}
                sub.applied.add(id(pending))
                sub.attached.append(pending)
                changed = True
            for pending in self._block_negations:
                cols = frozenset(pending.columns)
                if id(pending) in sub.applied or not cols <= sub.cols:
                    continue
                neg = estimator.estimate(pending)
                match = min(
                    1.0,
                    _ndv_over(neg.ndv, neg.rows, cols)
                    / max(_ndv_over(sub.ndv, sub.rows, cols), 1.0),
                )
                new_rows = sub.rows * max(1.0 - match, 0.05)
                sub.cost += estimator.cost(pending) + sub.rows + neg.rows + new_rows
                sub.rows = new_rows
                sub.ndv = {c: min(v, new_rows) for c, v in sub.ndv.items()}
                sub.applied.add(id(pending))
                sub.attached.append(pending)
                changed = True

    def _join_subs(self, left: "_Sub", right: "_Sub") -> "_Sub":
        """The priced (undecorated) join of two subproblems."""
        shared = left.cols & right.cols
        if not shared:
            if right.cols <= left.cols:  # both 0-ary, or an emptiness guard
                rows = left.rows if right.rows >= 0.5 else 0.0
                work = left.rows + right.rows + rows
            else:
                rows = min(left.rows * right.rows, _CAP)
                work = min(left.rows * right.rows, _CAP) + rows
        elif right.cols <= left.cols:  # semijoin shape
            match = min(
                1.0,
                _ndv_over(right.ndv, right.rows, shared)
                / max(_ndv_over(left.ndv, left.rows, shared), 1.0),
            )
            rows = left.rows * match
            work = left.rows + right.rows + rows
        else:
            denominator = max(
                _ndv_over(left.ndv, left.rows, shared),
                _ndv_over(right.ndv, right.rows, shared),
                1.0,
            )
            rows = min(left.rows * right.rows / denominator, _CAP)
            work = left.rows + right.rows + rows
        ndv: Dict[str, float] = {}
        for column in left.cols | right.cols:
            value = left.ndv.get(column)
            other = right.ndv.get(column)
            if value is None:
                value = other if other is not None else rows
            elif other is not None:
                value = min(value, other)
            ndv[column] = min(value, rows) if rows > 0 else value
        return _Sub(
            cost=min(left.cost + right.cost + work, _CAP),
            rows=rows,
            ndv=ndv,
            cols=left.cols | right.cols,
            tree=(left, right),
        )

    def _candidate(self, left: "_Sub", right: "_Sub") -> "_Sub":
        sub = self._join_subs(left, right)
        sub.applied = set(left.applied) | set(right.applied)
        self._decorate_sub(sub)
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

    def _dp_order(
        self, items: List[Plan], filters: List[_Filter], negations: List[Plan]
    ) -> Plan:
        """Exact bushy join ordering by dynamic programming over subsets.

        Filters and negations are attached greedily as soon as a subset
        covers their columns (they only shrink intermediates); cross products
        are only considered for subsets with no connected split.
        """
        n = len(items)
        self._block_filters = filters
        self._block_negations = negations
        best: Dict[FrozenSet[int], _Sub] = {}
        for index in range(n):
            best[frozenset((index,))] = self._leaf_sub(index, items[index])
        if n > 1:
            indices = list(range(n))
            for size in range(2, n + 1):
                for combo in combinations(indices, size):
                    subset = frozenset(combo)
                    best_connected: Optional[_Sub] = None
                    best_any: Optional[_Sub] = None
                    for left_key, right_key in _proper_splits(subset):
                        left, right = best[left_key], best[right_key]
                        if left.cols & right.cols:
                            candidate = self._candidate(left, right)
                            if best_connected is None or candidate.cost < best_connected.cost:
                                best_connected = candidate
                        elif best_connected is None:
                            candidate = self._candidate(left, right)
                            if best_any is None or candidate.cost < best_any.cost:
                                best_any = candidate
                    best[subset] = best_connected or best_any  # type: ignore[assignment]
        winner = best[frozenset(range(n))]
        plan = self._materialize(winner, items)
        filters[:] = [f for f in filters if id(f) not in winner.applied]
        negations[:] = [neg for neg in negations if id(neg) not in winner.applied]
        return plan

    def _greedy_order(
        self, items: List[Plan], filters: List[_Filter], negations: List[Plan]
    ) -> Plan:
        """Cheapest-expansion greedy join ordering for large blocks."""
        self._block_filters = filters
        self._block_negations = negations
        remaining = [self._leaf_sub(index, item) for index, item in enumerate(items)]
        remaining.sort(key=lambda sub: sub.rows)
        acc = remaining.pop(0)
        while remaining:
            best_index, best_cost, best_sub = -1, _CAP * 4, None
            for index, sub in enumerate(remaining):
                candidate = self._candidate(acc, sub)
                cost = candidate.cost
                if not acc.cols & sub.cols:
                    cost *= 8.0  # discourage cross products
                if cost < best_cost:
                    best_index, best_cost, best_sub = index, cost, candidate
            remaining.pop(best_index)
            acc = best_sub
        plan = self._materialize(acc, items)
        filters[:] = [f for f in filters if id(f) not in acc.applied]
        negations[:] = [neg for neg in negations if id(neg) not in acc.applied]
        return plan


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
                rebuilt = Select(child, plan.predicate, plan.description, plan.formula)
            return _project_keep(rebuilt, needed)
        return plan  # opaque predicate: cannot touch the child's layout
    if isinstance(plan, Antijoin):
        required = set(needed) | set(plan.shared)
        child = prune_columns(plan.left, required)
        return _project_keep(Antijoin(child, plan.right), needed)
    if isinstance(plan, HashJoin):
        shared = set(plan.shared)
        left = prune_columns(plan.left, (needed | shared) & set(plan.left.columns))
        right = prune_columns(plan.right, (needed | shared) & set(plan.right.columns))
        return _project_keep(HashJoin(left, right), needed)
    return plan


def _project_keep(plan: Plan, needed: Set[str]) -> Plan:
    keep = tuple(c for c in plan.columns if c in needed)
    if len(keep) == len(plan.columns):
        return plan
    return _project_to(plan, keep)


def _with_children(node: Plan, children: Tuple[Plan, ...]) -> Plan:
    """Rebuild ``node`` over replacement children (same column layouts)."""
    if isinstance(node, Select):
        return Select(children[0], node.predicate, node.description, node.formula)
    if isinstance(node, Project):
        return Project(children[0], node.columns)
    if isinstance(node, HashJoin):
        return HashJoin(children[0], children[1])
    if isinstance(node, Antijoin):
        return Antijoin(children[0], children[1])
    if isinstance(node, UnionAll):
        return UnionAll(children)
    if isinstance(node, DomainComplement):
        return DomainComplement(children[0])
    if isinstance(node, GroupCount):
        return GroupCount(children[0], node.columns, node.threshold)
    return node


# ---------------------------------------------------------------------------
# explain
# ---------------------------------------------------------------------------

def explain_plan(
    plan: Plan,
    estimator: Estimator,
    actual: Optional[Dict[Plan, object]] = None,
    profile=None,
) -> str:
    """An indented rendering of ``plan`` with estimated (and actual) rows.

    ``actual`` is an executed context's per-node result cache; when given,
    each line shows ``est=<estimate> act=<actual>`` so estimation error is
    visible node by node — the optimizer's debugging loop.  ``profile`` (a
    :class:`repro.obs.profile.PlanProfiler` the execution context carried)
    additionally shows each node's measured wall time, turning
    estimated-vs-actual into measured-vs-actual.
    """
    lines: List[str] = []

    def walk(node: Plan, indent: int) -> None:
        estimate = estimator.estimate(node)
        line = "  " * indent + f"{node.label()} -> {list(node.columns)}"
        line += f"  est={estimate.rows:.1f}"
        if actual is not None:
            rows = actual.get(node)
            if rows is not None:
                line += f" act={len(rows)}"
        line += f" cost={estimator.op_cost(node):.1f}"
        if profile is not None:
            seconds = profile.seconds(node)
            if seconds is not None:
                line += f" time={seconds * 1000.0:.3f}ms"
        lines.append(line)
        for child in node.children():
            walk(child, indent + 1)

    walk(plan, 0)
    return "\n".join(lines)
