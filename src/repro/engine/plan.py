"""Set-at-a-time relational-algebra plans.

This module is the physical-operator layer of the query engine: an extension
of the SPJ algebra of :mod:`repro.db.algebra` with the operators a bottom-up
first-order evaluator needs — hash **join** (with a semijoin fast path),
**antijoin** (for negated conjuncts / ``not exists``), **domain complement**
(negation under active-domain semantics) and **grouped counting** (the
``exists^{>= k}`` quantifier of ``FOcount``).

Plans use the *named* perspective: every node carries an ordered tuple of
column names (formula variables), and every node evaluates to a set of rows of
matching width.  The named perspective is what makes joins compositional: two
sub-plans join on whatever columns they share, exactly like two subformulas
are conjoined on their common free variables.

All rows produced by a plan lie inside the quantification domain of the
execution context (scans filter variable positions against it), which is the
plan-level counterpart of active-domain semantics: the extension of a formula
only contains domain values, whatever the database relations contain.

Plans are database-independent: they reference relations by name, read the
domain from the :class:`ExecutionContext`, and look up interpreted symbols in
the context's signature, so a plan compiled once can be executed against any
number of databases (this is what makes the compiled backend fast on
validation sweeps that evaluate one formula on hundreds of databases).
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import (
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..db.database import Database
from ..db.delta import row_key
from ..logic.signature import EMPTY_SIGNATURE, Signature

__all__ = [
    "PlanError",
    "join_key",
    "join_rows",
    "build_right_table",
    "build_left_table",
    "probe_right_table",
    "probe_left_table",
    "group_count_rows",
    "ExecutionContext",
    "Plan",
    "Scan",
    "DomainScan",
    "DomainProduct",
    "ConstantTable",
    "SingletonIfActive",
    "DomainDiagonal",
    "Select",
    "Project",
    "HashJoin",
    "Antijoin",
    "UnionAll",
    "DomainComplement",
    "GroupCount",
]

Row = Tuple[object, ...]
#: what a node evaluates to: an immutable set of rows — a ``frozenset``, or
#: the persistent :class:`~repro.db.delta.RowSet` of a stored relation or of
#: a result the delta rules carried here
Rows = AbstractSet[Row]

_EMPTY: FrozenSet[Row] = frozenset()


class PlanError(RuntimeError):
    """Raised for malformed plans or execution failures."""


class ExecutionContext:
    """Everything a plan needs at run time: database, domain, signature.

    ``domain`` is the quantification domain (defaults to the database's active
    domain); ``signature`` interprets ``Omega`` symbols referenced by
    interpreted selections.  ``params`` binds the plan's parameter slots: a
    plan is compiled once per formula *shape*, with a slot where each
    constant stood, and every execution supplies the constants of the
    formula at hand.  The context also counts rows produced by each operator kind, which the
    tests and ``EXPLAIN``-style debugging use.
    """

    __slots__ = (
        "db", "domain_key", "domain", "signature", "functions", "params", "stats",
        "cache", "seeded", "profiler", "_covers",
    )

    def __init__(
        self,
        db: Database,
        domain: Optional[Iterable[object]] = None,
        signature: Signature = EMPTY_SIGNATURE,
        params: Tuple[object, ...] = (),
    ):
        self.db = db
        self.params = params
        # the domain as the caller fixed it (``None``: it follows the database)
        self.domain_key: Optional[FrozenSet[object]] = (
            frozenset(domain) if domain is not None else None
        )
        self.domain: FrozenSet[object] = (
            self.domain_key if self.domain_key is not None else db.active_domain
        )
        # ``None``: not compared yet (a domain that follows the database
        # always covers it)
        self._covers: Optional[bool] = True if self.domain_key is None else None
        self.signature = signature
        self.functions = signature.functions_mapping()
        self.stats: Dict[str, int] = {}
        # per-execution node results: the compiler emits shared sub-plans for
        # repeated subformulas (a DAG), so each shared node runs exactly once.
        # Keyed by the node itself (identity hash) — holding the reference
        # prevents id-reuse if a caller evaluates several plans in one context.
        self.cache: Dict["Plan", Rows] = {}
        # the sub-plan roots whose rows the backend put into ``cache`` from
        # carried state instead of running them (``explain()`` marks them)
        self.seeded: Tuple["Plan", ...] = ()
        # optional per-node wall-time/cardinality recorder (a
        # repro.obs.profile.PlanProfiler); None keeps rows() on the fast path
        self.profiler = None

    def count(self, operator: str, rows: int) -> None:
        self.stats[operator] = self.stats.get(operator, 0) + rows

    def covers_database(self) -> bool:
        """Does the quantification domain contain the database's active domain?

        Where it does, the active-domain filter of a scan passes every stored
        row.
        """
        if self._covers is None:
            self._covers = self.db.active_domain <= self.domain
        return self._covers


class Plan:
    """Base class of plan nodes.  ``columns`` is the ordered output header."""

    __slots__ = ("columns",)

    def __init__(self, columns: Sequence[str]):
        self.columns: Tuple[str, ...] = tuple(columns)
        if len(set(self.columns)) != len(self.columns):
            raise PlanError(f"duplicate columns in plan header {self.columns}")

    def _rows(self, ctx: ExecutionContext) -> Rows:  # pragma: no cover - interface
        raise NotImplementedError

    def rows(self, ctx: ExecutionContext) -> Rows:
        """Evaluate this node, memoised per execution context.

        Identical subformulas compile to one shared plan node, so the
        per-context cache turns the repeated subtrees that formula
        transformations love to emit (weakest preconditions especially) into
        single evaluations.
        """
        cache = ctx.cache
        if self in cache:
            return cache[self]
        profiler = ctx.profiler
        if profiler is None:
            result = self._rows(ctx)
        else:
            result = profiler.measure(self, lambda: self._rows(ctx))
        cache[self] = result
        return result

    # -- introspection ---------------------------------------------------------

    def children(self) -> Tuple["Plan", ...]:
        return ()

    def label(self) -> str:
        return type(self).__name__

    def explain(self, indent: int = 0) -> str:
        """An indented one-node-per-line rendering of the plan tree."""
        lines = [("  " * indent) + f"{self.label()} -> {list(self.columns)}"]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"{self.label()}{list(self.columns)}"


# ---------------------------------------------------------------------------
# leaves
# ---------------------------------------------------------------------------

class Scan(Plan):
    """Scan a base relation through an atom pattern ``R(t1, ..., tn)``.

    ``pattern`` is a tuple of ``("var", name)`` / ``("const", value)`` /
    ``("param", slot)`` entries; a parameter position is a constant position
    whose value the execution context supplies (``ctx.params[slot]``).
    Constant positions are matched via a per-relation hash index
    (:meth:`repro.db.database.Database.index`), repeated variables are checked
    for consistency, and variable values must lie in the context domain (the
    active-domain restriction).  Output columns are the distinct variables in
    first-occurrence order.

    A pattern of distinct variables at the relation's arity, under a domain
    that contains the database's active domain, filters nothing and reorders
    nothing: the scan **is** the stored relation and returns that object (see
    :meth:`is_relation`).
    """

    __slots__ = (
        "relation", "pattern", "_const_positions", "_const_values", "_param_slots",
        "_var_positions",
    )

    def __init__(self, relation: str, pattern: Sequence[Tuple[str, object]]):
        self.relation = relation
        self.pattern = tuple(pattern)
        const_positions: List[int] = []  # constants and parameters alike
        const_values: List[object] = []
        param_slots: List[Tuple[int, int]] = []  # (index into const_values, slot)
        var_positions: List[Tuple[str, int]] = []  # (name, first position)
        seen: Dict[str, int] = {}
        for position, (kind, value) in enumerate(self.pattern):
            if kind == "const":
                const_positions.append(position)
                const_values.append(value)
            elif kind == "param":
                param_slots.append((len(const_values), value))
                const_positions.append(position)
                const_values.append(None)
            elif kind == "var":
                if value not in seen:
                    seen[value] = position
                    var_positions.append((value, position))
            else:
                raise PlanError(f"unknown pattern entry kind {kind!r}")
        self._const_positions = tuple(const_positions)
        self._const_values = tuple(const_values)
        self._param_slots = tuple(param_slots)
        self._var_positions = tuple(var_positions)
        super().__init__([name for name, _pos in var_positions])

    def bound_values(self, params: Tuple[object, ...]) -> Row:
        """What the constant positions must hold, parameters bound from ``params``."""
        if not self._param_slots:
            return self._const_values
        values = list(self._const_values)
        for where, slot in self._param_slots:
            values[where] = params[slot]
        return tuple(values)

    def match_row(self, row: Row, domain, params: Tuple[object, ...] = ()) -> Optional[Row]:
        """The output tuple this pattern produces for ``row``, or ``None``.

        The single source of truth for the scan semantics (constant
        positions, repeated-variable consistency, the active-domain filter,
        wrong-arity rows matching nothing) — the full scan and the
        incremental delta rule both go through it.
        """
        pattern = self.pattern
        if len(row) != len(pattern):
            return None
        binding: Dict[str, object] = {}
        for value, (kind, spec) in zip(row, pattern):
            if kind == "const":
                if value != spec:
                    return None
                continue
            if kind == "param":
                if value != params[spec]:
                    return None
                continue
            bound = binding.get(spec, _MISSING)
            if bound is _MISSING:
                if value not in domain:
                    return None
                binding[spec] = value
            elif bound != value:
                return None
        return tuple(binding[name] for name in self.columns)

    @property
    def is_identity(self) -> bool:
        """Distinct variables only: a row of the right arity over domain
        values is an output row as it stands."""
        return len(self._var_positions) == len(self.pattern)

    def is_relation(self, ctx: ExecutionContext) -> bool:
        """Is this scan's result the stored relation itself, row for row?"""
        return (
            self.is_identity
            and len(self.pattern) == ctx.db.schema[self.relation].arity
            and ctx.covers_database()
        )

    def _rows(self, ctx: ExecutionContext) -> Rows:
        candidates: Iterable[Row] = ctx.db.relation(self.relation)
        if len(self.pattern) != ctx.db.schema[self.relation].arity:
            # wrong-arity atoms match nothing (the interpreter's behaviour);
            # indexing an out-of-range column would raise
            return _EMPTY
        if self.is_identity and ctx.covers_database():
            ctx.count("scan", len(candidates))
            return candidates  # the stored relation itself: see is_relation
        params = ctx.params
        if self._const_positions:
            bound = self.bound_values(params)
            if not self._var_positions:
                # every column bound: one membership test, not a full-row
                # index of |relation| singleton buckets
                candidates = (bound,) if bound in candidates else ()
            else:
                index = ctx.db.index(self.relation, self._const_positions)
                candidates = index.get(bound, ())
        domain = ctx.domain
        matches = (self.match_row(row, domain, params) for row in candidates)
        result = frozenset(out for out in matches if out is not None)
        ctx.count("scan", len(result))
        return result

    def label(self) -> str:
        render = {"var": str, "const": repr, "param": "${}".format}
        rendered = ", ".join(render[kind](value) for kind, value in self.pattern)
        return f"Scan {self.relation}({rendered})"


class DomainScan(Plan):
    """The quantification domain as a unary relation over one column."""

    __slots__ = ()

    def __init__(self, column: str):
        super().__init__([column])

    def _rows(self, ctx: ExecutionContext) -> Rows:
        return frozenset((value,) for value in ctx.domain)

    def label(self) -> str:
        return f"DomainScan {self.columns[0]}"


class DomainProduct(Plan):
    """``domain^k`` over ``k`` columns (``k = 0`` yields the 0-ary TRUE row)."""

    __slots__ = ()

    def _rows(self, ctx: ExecutionContext) -> Rows:
        if not self.columns:
            return frozenset({()})
        return frozenset(itertools.product(ctx.domain, repeat=len(self.columns)))

    def label(self) -> str:
        return f"DomainProduct^{len(self.columns)}"


class ConstantTable(Plan):
    """A fixed set of rows (used for TRUE ``{()}``, FALSE ``{}`` and literals)."""

    __slots__ = ("_data",)

    def __init__(self, columns: Sequence[str], rows: Iterable[Row]):
        super().__init__(columns)
        self._data = frozenset(tuple(row) for row in rows)

    def _rows(self, ctx: ExecutionContext) -> Rows:
        return self._data

    def label(self) -> str:
        return f"Constant({len(self._data)} rows)"


class SingletonIfActive(Plan):
    """``{(c,)}`` when the constant ``c`` lies in the domain, else empty.

    The extension of ``x = c`` under active-domain semantics: the constant may
    name any universe element, but ``x`` only ranges over the domain.  With
    ``slot`` given, ``c`` is that parameter of the execution context.
    """

    __slots__ = ("value", "slot")

    def __init__(self, column: str, value: object = None, slot: Optional[int] = None):
        super().__init__([column])
        self.value = value
        self.slot = slot

    def _rows(self, ctx: ExecutionContext) -> Rows:
        value = self.value if self.slot is None else ctx.params[self.slot]
        if value in ctx.domain:
            return frozenset({(value,)})
        return frozenset()

    def label(self) -> str:
        constant = repr(self.value) if self.slot is None else f"${self.slot}"
        return f"SingletonIfActive {self.columns[0]}={constant}"


class DomainDiagonal(Plan):
    """``{(d, d) | d in domain}`` — the extension of ``x = y``."""

    __slots__ = ()

    def __init__(self, left: str, right: str):
        super().__init__([left, right])

    def _rows(self, ctx: ExecutionContext) -> Rows:
        return frozenset((value, value) for value in ctx.domain)

    def label(self) -> str:
        return f"Diagonal {self.columns[0]}={self.columns[1]}"


# ---------------------------------------------------------------------------
# unary operators
# ---------------------------------------------------------------------------

class Select(Plan):
    """Filter rows by a predicate ``fn(row, ctx) -> bool``.

    Used for interpreted (``Omega``) atoms and (in)equalities over function
    terms once all their variables are bound by the child — the pushed-down
    selection of the compiler.

    ``depends`` declares which base relations the predicate reads (an empty
    frozenset for signature-only predicates).  ``None`` means unknown; the
    incremental evaluator then re-runs the selection instead of assuming the
    predicate is stable under database deltas.

    ``formula`` (when given) is the atomic formula the predicate was derived
    from.  The predicate closure binds the child's column *positions*, so it
    cannot survive a column reordering — the cost-based optimizer uses the
    remembered formula to re-derive an equivalent predicate against whatever
    column layout its rewritten plan produces.
    """

    __slots__ = ("child", "predicate", "description", "depends", "formula")

    def __init__(
        self,
        child: Plan,
        predicate: Callable[[Row, ExecutionContext], bool],
        description: str = "predicate",
        depends: Optional[FrozenSet[str]] = None,
        formula: Optional[object] = None,
    ):
        super().__init__(child.columns)
        self.child = child
        self.predicate = predicate
        self.description = description
        self.depends = depends
        self.formula = formula

    def children(self) -> Tuple[Plan, ...]:
        return (self.child,)

    def _rows(self, ctx: ExecutionContext) -> Rows:
        predicate = self.predicate
        result = frozenset(row for row in self.child.rows(ctx) if predicate(row, ctx))
        ctx.count("select", len(result))
        return result

    def label(self) -> str:
        return f"Select[{self.description}]"


class Project(Plan):
    """Early projection onto a subset/reordering of the child's columns."""

    __slots__ = ("child", "_indices")

    def __init__(self, child: Plan, columns: Sequence[str]):
        super().__init__(columns)
        try:
            self._indices = tuple(child.columns.index(c) for c in self.columns)
        except ValueError as exc:
            raise PlanError(
                f"projection columns {list(columns)} not all in {list(child.columns)}"
            ) from exc
        self.child = child

    def children(self) -> Tuple[Plan, ...]:
        return (self.child,)

    def _rows(self, ctx: ExecutionContext) -> Rows:
        result = frozenset(map(row_key(self._indices), self.child.rows(ctx)))
        ctx.count("project", len(result))
        return result


# ---------------------------------------------------------------------------
# binary operators
# ---------------------------------------------------------------------------

def join_key(columns: Sequence[str], shared: Sequence[str]) -> Callable[[Row], Row]:
    """:func:`~repro.db.delta.row_key` for the named ``shared`` columns."""
    return row_key(tuple(columns.index(c) for c in shared))


def join_rows(node: "HashJoin", left_rows: Rows, right_rows: Rows) -> Rows:
    """The :class:`HashJoin` semantics over explicit inputs.

    The operator's join body, callable over inputs computed elsewhere.  The
    hash table is built on the smaller side.
    """
    shared = node.shared
    if not node._right_extra:
        # semijoin: the right side adds no columns, it only filters
        if not shared:
            return left_rows if right_rows else _EMPTY
        keys = set(map(join_key(node.right.columns, shared), right_rows))
        left_key = join_key(node.left.columns, shared)
        return frozenset(row for row in left_rows if left_key(row) in keys)
    if not shared:
        return frozenset(l + r for l in left_rows for r in right_rows)
    if len(right_rows) <= len(left_rows):
        return probe_right_table(node, build_right_table(node, right_rows), left_rows)
    return probe_left_table(node, build_left_table(node, left_rows), right_rows)


def build_right_table(node: "HashJoin", right_rows: Rows) -> Dict[Row, List[Row]]:
    """``join key -> right-extra tuples`` for probing left rows (built once)."""
    right_key = join_key(node.right.columns, node.shared)
    extra = join_key(node.right.columns, node._right_extra)
    table: Dict[Row, List[Row]] = {}
    for row in right_rows:
        table.setdefault(right_key(row), []).append(extra(row))
    return table


def probe_right_table(node: "HashJoin", table: Dict[Row, List[Row]], left_rows: Rows) -> Rows:
    """The join of ``left_rows`` with the side :func:`build_right_table` keyed."""
    left_key = join_key(node.left.columns, node.shared)
    get = table.get
    return frozenset(
        row + extra for row in left_rows for extra in get(left_key(row), ())
    )


def build_left_table(node: "HashJoin", left_rows: Rows) -> Dict[Row, List[Row]]:
    """``join key -> full left rows`` for probing right rows (built once)."""
    left_key = join_key(node.left.columns, node.shared)
    table: Dict[Row, List[Row]] = {}
    for row in left_rows:
        table.setdefault(left_key(row), []).append(row)
    return table


def probe_left_table(node: "HashJoin", table: Dict[Row, List[Row]], right_rows: Rows) -> Rows:
    """The join of the side :func:`build_left_table` keyed with ``right_rows``."""
    right_key = join_key(node.right.columns, node.shared)
    extra = join_key(node.right.columns, node._right_extra)
    get = table.get
    return frozenset(
        left_row + extra(row)
        for row in right_rows
        for left_row in get(right_key(row), ())
    )


def group_count_rows(node: "GroupCount", rows: Rows) -> Rows:
    """The :class:`GroupCount` semantics over explicit input rows."""
    counts = Counter(map(join_key(node.child.columns, node.columns), rows))
    threshold = node.threshold
    return frozenset(group for group, n in counts.items() if n >= threshold)


class HashJoin(Plan):
    """Natural hash join on the columns the two children share.

    With no shared columns this degenerates to a cartesian product; when the
    right child's columns are a subset of the left's it degenerates to a
    *semijoin* (a pure filter — nothing is concatenated), which is how
    ``exists``-shaped conjuncts whose variables are already bound get
    evaluated without materialising anything wider.

    The filtering side (the right child of a semijoin, the left child
    otherwise) is evaluated first; when it is empty the join is empty and the
    other child is never run.

    When one input *is* a stored relation (:meth:`Scan.is_relation`) and the
    other is smaller, the join probes the relation's own index
    (:meth:`~repro.db.database.Database.index`, which ``apply_delta`` keeps
    current from state to state) once per row of the small side, instead of
    walking the relation through a hash table built for the occasion.
    """

    __slots__ = ("left", "right", "shared", "_right_extra")

    def __init__(self, left: Plan, right: Plan):
        self.shared = tuple(c for c in left.columns if c in right.columns)
        right_extra = tuple(c for c in right.columns if c not in left.columns)
        super().__init__(left.columns + right_extra)
        self.left = left
        self.right = right
        self._right_extra = right_extra

    def children(self) -> Tuple[Plan, ...]:
        return (self.left, self.right)

    def _rows(self, ctx: ExecutionContext) -> Rows:
        # the filtering side runs first, and an empty side ends the join: the
        # other child is never evaluated (its rows stay out of ctx.cache)
        if self._right_extra:
            left_rows = self.left.rows(ctx)
            right_rows = self.right.rows(ctx) if left_rows else _EMPTY
        else:
            right_rows = self.right.rows(ctx)
            left_rows = self.left.rows(ctx) if right_rows else _EMPTY
        if not left_rows or not right_rows:
            return _EMPTY
        result = self._probe_stored(ctx, left_rows, right_rows)
        if result is None:
            result = join_rows(self, left_rows, right_rows)
        if not self._right_extra:
            ctx.count("semijoin", len(result))
        else:
            ctx.count("join" if self.shared else "product", len(result))
        return result

    def _probe_stored(
        self, ctx: ExecutionContext, left_rows: Rows, right_rows: Rows
    ) -> Optional[Rows]:
        """The join by index probes; ``None`` unless one side is the larger
        input and a stored relation."""
        left, right = self.left, self.right
        if not self.shared or len(left_rows) == len(right_rows):
            return None
        if len(left_rows) < len(right_rows):
            stored, stored_rows, small, small_rows = right, right_rows, left, left_rows
        else:
            stored, stored_rows, small, small_rows = left, left_rows, right, right_rows
        if not (isinstance(stored, Scan) and stored.is_relation(ctx)):
            return None
        # a stored relation's columns are its positions; keys go in position
        # order so one index serves every join on the same column set
        positions = tuple(sorted(stored.columns.index(c) for c in self.shared))
        key_of = join_key(small.columns, [stored.columns[p] for p in positions])
        if len(positions) == len(stored.columns):
            def partners(key: Row) -> Sequence[Row]:  # the key is the whole row
                return (key,) if key in stored_rows else ()
        else:
            index = ctx.db.index(stored.relation, positions)

            def partners(key: Row) -> Sequence[Row]:
                return index.get(key, ())
        extra = join_key(right.columns, self._right_extra)
        if stored is right:
            if not self._right_extra:
                return frozenset(row for row in small_rows if partners(key_of(row)))
            return frozenset(
                row + extra(match) for row in small_rows for match in partners(key_of(row))
            )
        if not self._right_extra:
            return frozenset(
                match for key in set(map(key_of, small_rows)) for match in partners(key)
            )
        return frozenset(
            match + extra(row) for row in small_rows for match in partners(key_of(row))
        )

    def label(self) -> str:
        if not self._right_extra:
            return f"Semijoin on {list(self.shared)}"
        if not self.shared:
            return "Product"
        return f"HashJoin on {list(self.shared)}"


class Antijoin(Plan):
    """Keep left rows with *no* matching right row — ``not exists`` / negated conjuncts.

    With no left rows there is nothing to filter, and the right child is
    never run.
    """

    __slots__ = ("left", "right", "shared")

    def __init__(self, left: Plan, right: Plan):
        super().__init__(left.columns)
        self.left = left
        self.right = right
        self.shared = tuple(c for c in left.columns if c in right.columns)

    def children(self) -> Tuple[Plan, ...]:
        return (self.left, self.right)

    def _rows(self, ctx: ExecutionContext) -> Rows:
        left_rows = self.left.rows(ctx)
        if not left_rows:
            return _EMPTY  # nothing to filter: the right side never runs
        right_rows = self.right.rows(ctx)
        if not self.shared:
            result = frozenset() if right_rows else left_rows
        else:
            keys = set(map(join_key(self.right.columns, self.shared), right_rows))
            left_key = join_key(self.left.columns, self.shared)
            result = frozenset(row for row in left_rows if left_key(row) not in keys)
        ctx.count("antijoin", len(result))
        return result

    def label(self) -> str:
        return f"Antijoin on {list(self.shared)}"


class UnionAll(Plan):
    """Set union of same-header children (disjunction)."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[Plan]):
        if not parts:
            raise PlanError("UnionAll needs at least one child")
        header = parts[0].columns
        for part in parts[1:]:
            if part.columns != header:
                raise PlanError(
                    f"union children disagree on columns: {header} vs {part.columns}"
                )
        super().__init__(header)
        self.parts = tuple(parts)

    def children(self) -> Tuple[Plan, ...]:
        return self.parts

    def _rows(self, ctx: ExecutionContext) -> Rows:
        result = frozenset().union(*[part.rows(ctx) for part in self.parts])
        ctx.count("union", len(result))
        return result

    def label(self) -> str:
        return f"Union({len(self.parts)})"


class DomainComplement(Plan):
    """``domain^k \\ child`` — negation under active-domain semantics."""

    __slots__ = ("child",)

    def __init__(self, child: Plan):
        super().__init__(child.columns)
        self.child = child

    def children(self) -> Tuple[Plan, ...]:
        return (self.child,)

    def _rows(self, ctx: ExecutionContext) -> Rows:
        child_rows = self.child.rows(ctx)
        if not self.columns:
            return frozenset() if child_rows else frozenset({()})
        result = frozenset(
            row
            for row in itertools.product(ctx.domain, repeat=len(self.columns))
            if row not in child_rows
        )
        ctx.count("complement", len(result))
        return result

    def label(self) -> str:
        return f"Complement^{len(self.columns)}"


class GroupCount(Plan):
    """Group child rows by ``group_columns``; keep groups with ``>= threshold`` rows.

    The child's non-group columns are the counted witnesses (the compiler
    arranges for them to be exactly the counting quantifier's bound variable),
    so the per-group row count is the number of distinct witnesses.  Output
    columns are the group columns.
    """

    __slots__ = ("child", "threshold")

    def __init__(self, child: Plan, group_columns: Sequence[str], threshold: int):
        if threshold < 1:
            raise PlanError("GroupCount threshold must be >= 1 (0 is vacuously true)")
        super().__init__(group_columns)
        unknown = set(group_columns) - set(child.columns)
        if unknown:
            raise PlanError(f"group columns {sorted(unknown)} not produced by child")
        self.child = child
        self.threshold = threshold

    def children(self) -> Tuple[Plan, ...]:
        return (self.child,)

    def _rows(self, ctx: ExecutionContext) -> Rows:
        result = group_count_rows(self, self.child.rows(ctx))
        ctx.count("group_count", len(result))
        return result

    def label(self) -> str:
        return f"GroupCount>={self.threshold} by {list(self.columns)}"


_MISSING = object()
