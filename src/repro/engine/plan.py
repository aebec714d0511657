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

Each operator's semantics is one method, :meth:`Plan._stream`.  A full
execution (:meth:`Plan.rows`) materialises and caches every node; a lazy one
pulls rows through the operators only as far as the consumer asks, so a
closed sentence is decided at its first witness (:meth:`Plan.nonempty`).

Plans are database-independent: they reference relations by name, read the
domain from the :class:`ExecutionContext`, and look up interpreted symbols in
the context's signature, so a plan compiled once can be executed against any
number of databases (this is what makes the compiled backend fast on
validation sweeps that evaluate one formula on hundreds of databases).
"""

from __future__ import annotations

import itertools
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
_TRUE: FrozenSet[Row] = frozenset({()})


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
    tests and ``EXPLAIN``-style debugging use.  ``lazy`` makes :meth:`Plan.stream`
    pull rows through the operators, except the nodes in ``materialise``.
    """

    __slots__ = (
        "db", "domain_key", "domain", "signature", "functions", "params", "stats",
        "cache", "seeded", "profiler", "lazy", "materialise", "_covers",
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
        self.lazy = False
        self.materialise: AbstractSet["Plan"] = _EMPTY

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

    __slots__ = ("columns", "_expands")

    def __init__(self, columns: Sequence[str]):
        self.columns: Tuple[str, ...] = tuple(columns)
        if len(set(self.columns)) != len(self.columns):
            raise PlanError(f"duplicate columns in plan header {self.columns}")
        self._expands: Optional[bool] = None

    def _stream(self, ctx: ExecutionContext) -> Iterable[Row]:  # pragma: no cover - interface
        """The operator: its distinct rows, as a set or a lazy iterator,
        read off the children's :meth:`stream` (or :meth:`rows`, whole)."""
        raise NotImplementedError

    def _rows(self, ctx: ExecutionContext) -> Rows:
        result = self._stream(ctx)
        if not isinstance(result, AbstractSet):
            result = frozenset(result)
        if self.children() or isinstance(self, Scan):  # not the domain leaves
            ctx.count(type(self).__name__, len(result))
        return result

    def rows(self, ctx: ExecutionContext) -> Rows:
        """Evaluate this node, memoised per execution context.

        Identical subformulas compile to one shared plan node, so the
        per-context cache turns the repeated subtrees that formula
        transformations love to emit (weakest preconditions especially) into
        single evaluations.  Its whole sub-DAG is materialised too, also in a
        lazy context: a cached node's inputs are cached (the delta rules read them).
        """
        cache = ctx.cache
        if self in cache:
            return cache[self]
        lazy, ctx.lazy = ctx.lazy, False
        profiler = ctx.profiler
        if profiler is None:
            result = self._rows(ctx)
        else:
            result = profiler.measure(self, lambda: self._rows(ctx))
        ctx.lazy = lazy
        cache[self] = result
        return result

    def stream(self, ctx: ExecutionContext) -> Iterable[Row]:
        """This node's distinct rows: lazily in a lazy context, else :meth:`rows`;
        a node already in ``ctx.cache`` is iterated as it is."""
        cached = ctx.cache.get(self)
        if cached is not None:
            return cached
        if ctx.lazy and self not in ctx.materialise:
            return self._stream(ctx)
        return self.rows(ctx)

    def is_relation(self, ctx: ExecutionContext) -> bool:
        return False  # see Scan.is_relation

    def nonempty(self, ctx: ExecutionContext) -> bool:
        """Does this node produce a row?  A lazy context stops at the first."""
        return _nonempty(self.stream(ctx)) is not None

    def expands(self) -> bool:
        """Can this sub-plan hold more rows than its inputs (a join adding
        columns)?  A lazy join would rather stream such a side."""
        if self._expands is None:
            self._expands = any(child.expands() for child in self.children())
        return self._expands

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

    def _stream(self, ctx: ExecutionContext) -> Iterable[Row]:
        candidates: Iterable[Row] = ctx.db.relation(self.relation)
        if len(self.pattern) != ctx.db.schema[self.relation].arity:
            # wrong-arity atoms match nothing (the interpreter's behaviour);
            # indexing an out-of-range column would raise
            return _EMPTY
        if self.is_identity and ctx.covers_database():
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
        # match_row is injective on the rows it matches: the outputs are distinct
        return (out for out in matches if out is not None)

    def label(self) -> str:
        render = {"var": str, "const": repr, "param": "${}".format}
        rendered = ", ".join(render[kind](value) for kind, value in self.pattern)
        return f"Scan {self.relation}({rendered})"


class DomainScan(Plan):
    """The quantification domain as a unary relation over one column."""

    __slots__ = ()

    def __init__(self, column: str):
        super().__init__([column])

    def _stream(self, ctx: ExecutionContext) -> Iterable[Row]:
        return ((value,) for value in ctx.domain)

    def label(self) -> str:
        return f"DomainScan {self.columns[0]}"


class DomainProduct(Plan):
    """``domain^k`` over ``k`` columns (``k = 0`` yields the 0-ary TRUE row)."""

    __slots__ = ()

    def _stream(self, ctx: ExecutionContext) -> Iterable[Row]:
        if not self.columns:
            return _TRUE
        return itertools.product(ctx.domain, repeat=len(self.columns))

    def label(self) -> str:
        return f"DomainProduct^{len(self.columns)}"


class ConstantTable(Plan):
    """A fixed set of rows (used for TRUE ``{()}``, FALSE ``{}`` and literals)."""

    __slots__ = ("_data",)

    def __init__(self, columns: Sequence[str], rows: Iterable[Row]):
        super().__init__(columns)
        self._data = frozenset(tuple(row) for row in rows)

    def _stream(self, ctx: ExecutionContext) -> Iterable[Row]:
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

    def _stream(self, ctx: ExecutionContext) -> Iterable[Row]:
        value = self.value if self.slot is None else ctx.params[self.slot]
        if value in ctx.domain:
            return frozenset({(value,)})
        return _EMPTY

    def label(self) -> str:
        constant = repr(self.value) if self.slot is None else f"${self.slot}"
        return f"SingletonIfActive {self.columns[0]}={constant}"


class DomainDiagonal(Plan):
    """``{(d, d) | d in domain}`` — the extension of ``x = y``."""

    __slots__ = ()

    def __init__(self, left: str, right: str):
        super().__init__([left, right])

    def _stream(self, ctx: ExecutionContext) -> Iterable[Row]:
        return ((value, value) for value in ctx.domain)

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

    def _stream(self, ctx: ExecutionContext) -> Iterable[Row]:
        predicate = self.predicate
        return (row for row in self.child.stream(ctx) if predicate(row, ctx))

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

    def _stream(self, ctx: ExecutionContext) -> Iterable[Row]:
        projected = map(row_key(self._indices), self.child.stream(ctx))
        if not ctx.lazy or len(self._indices) == len(self.child.columns):
            # a full execution's frozenset drops the duplicates; a
            # reordering makes none
            return projected
        return _distinct(projected)  # a stream drops them as it goes


# ---------------------------------------------------------------------------
# binary operators
# ---------------------------------------------------------------------------

def join_key(columns: Sequence[str], shared: Sequence[str]) -> Callable[[Row], Row]:
    """:func:`~repro.db.delta.row_key` for the named ``shared`` columns."""
    return row_key(tuple(columns.index(c) for c in shared))


def _nonempty(rows: Iterable[Row]) -> Optional[Iterable[Row]]:
    """``rows`` again (a stream's first row pulled and put back), or ``None``."""
    if isinstance(rows, AbstractSet):
        return rows if rows else None
    rows = iter(rows)
    first = next(rows, _MISSING)
    return None if first is _MISSING else itertools.chain((first,), rows)


def _distinct(rows: Iterable[Row]) -> Iterable[Row]:
    """``rows`` without repeats, as they come."""
    seen: set = set()
    add = seen.add
    for row in rows:
        if row not in seen:
            add(row)
            yield row


def join_rows(node: "HashJoin", left_rows: Rows, right_rows: Rows) -> Rows:
    """The :class:`HashJoin` semantics over explicit inputs computed
    elsewhere, materialised (the hash table on the smaller side)."""
    return frozenset(node._hash_join(left_rows, right_rows))


def build_right_table(node: "HashJoin", right_rows: Rows) -> Dict[Row, List[Row]]:
    """``join key -> right-extra tuples`` for probing left rows (built once)."""
    right_key = join_key(node.right.columns, node.shared)
    extra = join_key(node.right.columns, node._right_extra)
    table: Dict[Row, List[Row]] = {}
    for row in right_rows:
        table.setdefault(right_key(row), []).append(extra(row))
    return table


def build_left_table(node: "HashJoin", left_rows: Rows) -> Dict[Row, List[Row]]:
    """``join key -> full left rows`` for probing right rows (built once)."""
    left_key = join_key(node.left.columns, node.shared)
    table: Dict[Row, List[Row]] = {}
    for row in left_rows:
        table.setdefault(left_key(row), []).append(row)
    return table


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
    other is not larger (:meth:`_probed`), the join probes the relation's index
    (:meth:`~repro.db.database.Database.index`, which ``apply_delta`` keeps
    current from state to state) once per row of the other side, instead of
    walking the relation through a hash table built for the occasion.

    In a lazy context the left side streams into probes of the right one,
    unless only the left is a stored relation, or only the right
    :meth:`~Plan.expands`: then the other way round.
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

    def expands(self) -> bool:
        return bool(self._right_extra) or super().expands()

    def _stream(self, ctx: ExecutionContext) -> Iterable[Row]:
        left, right = self.left, self.right
        if not self._right_extra and not self.shared:
            # the right side only guards: it has a row or it has none
            return left.stream(ctx) if right.nonempty(ctx) else _EMPTY
        stream_right = (
            ctx.lazy
            and not right.is_relation(ctx)
            and (left.is_relation(ctx) or (right.expands() and not left.expands()))
        )
        # the filtering side runs first, and an empty side ends the join: the
        # other child is never evaluated (its rows stay out of ctx.cache)
        if stream_right:
            left_rows = left.rows(ctx)
            if not left_rows:
                return _EMPTY
            right_rows = right.stream(ctx)
        elif self._right_extra:
            left_rows = _nonempty(left.stream(ctx))
            if left_rows is None:
                return _EMPTY
            right_rows = right.rows(ctx)
            if not right_rows:
                return _EMPTY
        else:
            right_rows = right.rows(ctx)
            if not right_rows:
                return _EMPTY
            left_rows = left.stream(ctx)
        probes = self._probes(ctx, left_rows, right_rows)
        return probes if probes is not None else self._hash_join(left_rows, right_rows)

    def _hash_join(self, left_rows: Iterable[Row], right_rows: Iterable[Row]) -> Iterable[Row]:
        """The join through a hash table over a materialised side: the
        smaller one, where neither side is a stream."""
        shared, right = self.shared, self.right
        right_key = join_key(right.columns, shared)
        left_key = join_key(self.left.columns, shared)
        if not self._right_extra:
            # semijoin: the key covers every right column, so keys are distinct
            if not isinstance(right_rows, AbstractSet):
                get = build_left_table(self, left_rows).get
                return (row for key in map(right_key, right_rows) for row in get(key, ()))
            keys = right_rows if shared == right.columns else set(map(right_key, right_rows))
            return (row for row in left_rows if left_key(row) in keys)
        if not shared:
            if isinstance(right_rows, AbstractSet):
                return (l + r for l in left_rows for r in right_rows)
            return (l + r for r in right_rows for l in left_rows)
        extra = join_key(right.columns, self._right_extra)
        if isinstance(left_rows, AbstractSet):
            if shared == self.left.columns:
                # the key is the whole left row: the left rows are their own table
                return (
                    key + extra(row) for row in right_rows if (key := right_key(row)) in left_rows
                )
            if not isinstance(right_rows, AbstractSet) or len(left_rows) < len(right_rows):
                get = build_left_table(self, left_rows).get
                return (l + extra(row) for row in right_rows for l in get(right_key(row), ()))
        get = build_right_table(self, right_rows).get
        return (row + e for row in left_rows for e in get(left_key(row), ()))

    def _probe_stored(self, ctx, left_rows: Rows, right_rows: Rows) -> Optional[Rows]:
        """:meth:`_probes`, materialised."""
        probes = self._probes(ctx, left_rows, right_rows)
        return None if probes is None else frozenset(probes)

    def _probes(self, ctx, left_rows, right_rows) -> Optional[Iterable[Row]]:
        """The join by index probes; ``None`` unless one side is a stored
        relation worth probing (:meth:`_probed`), the right one first."""
        if not self.shared:
            return None
        left, right = self.left, self.right
        if self._probed(ctx, right, right_rows, left_rows):
            stored, stored_rows, small, small_rows = right, right_rows, left, left_rows
        elif self._probed(ctx, left, left_rows, right_rows):
            stored, stored_rows, small, small_rows = left, left_rows, right, right_rows
        else:
            return None
        positions = self._positions(stored)
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
                return (row for row in small_rows if partners(key_of(row)))
            return (row + extra(match) for row in small_rows for match in partners(key_of(row)))
        if not self._right_extra:
            # the key covers every right column: distinct right rows, distinct keys
            return (match for key in map(key_of, small_rows) for match in partners(key))
        return (match + extra(row) for row in small_rows for match in partners(key_of(row)))

    def _positions(self, stored: "Scan") -> Tuple[int, ...]:
        # a stored relation's columns are its positions; keys go in position
        # order so one index serves every join on the same column set
        return tuple(sorted(stored.columns.index(c) for c in self.shared))

    def _probed(
        self, ctx: ExecutionContext, stored: Plan, stored_rows, other_rows
    ) -> bool:
        """Probe ``stored``'s index, a stored relation larger than the other
        side (a stream counts as larger)?  On a tie, where no index is needed
        (the key is the whole row) or it outlives the join: built already, or
        carried by ``apply_delta`` along the database's update stream."""
        if not stored.is_relation(ctx):
            return False
        if not isinstance(other_rows, AbstractSet) or len(stored_rows) > len(other_rows):
            return True
        if len(stored_rows) < len(other_rows):
            return False
        positions = self._positions(stored)
        return (
            len(positions) == len(stored.columns)
            or ctx.db.has_index(stored.relation, positions)
            or ctx.db.provenance_step() is not None
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

    def _stream(self, ctx: ExecutionContext) -> Iterable[Row]:
        left_rows = _nonempty(self.left.stream(ctx))
        if left_rows is None:
            return _EMPTY  # nothing to filter: the right side never runs
        right, shared = self.right, self.shared
        if not shared:
            return _EMPTY if right.nonempty(ctx) else left_rows
        if shared == right.columns:
            keys = right.rows(ctx)  # the key is the whole right row
        else:
            keys = set(map(join_key(right.columns, shared), right.stream(ctx)))
        left_key = join_key(self.left.columns, shared)
        return (row for row in left_rows if left_key(row) not in keys)

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

    def _stream(self, ctx: ExecutionContext) -> Iterable[Row]:
        rows = itertools.chain.from_iterable(part.stream(ctx) for part in self.parts)
        return _distinct(rows) if ctx.lazy else rows

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

    def _stream(self, ctx: ExecutionContext) -> Iterable[Row]:
        if not self.columns:
            return _EMPTY if self.child.nonempty(ctx) else _TRUE
        child_rows = self.child.rows(ctx)
        return (
            row
            for row in itertools.product(ctx.domain, repeat=len(self.columns))
            if row not in child_rows
        )

    def label(self) -> str:
        return f"Complement^{len(self.columns)}"


class GroupCount(Plan):
    """Group child rows by ``group_columns``; keep groups with ``>= threshold`` rows.

    The child's non-group columns are the counted witnesses (the compiler
    arranges for them to be exactly the counting quantifier's bound variable),
    so the per-group row count is the number of distinct witnesses.  Output
    columns are the group columns; a stream yields each group the moment its
    count reaches the threshold.
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

    def _stream(self, ctx: ExecutionContext) -> Iterable[Row]:
        key_of = join_key(self.child.columns, self.columns)
        threshold = self.threshold
        counts: Dict[Row, int] = {}
        for row in self.child.stream(ctx):
            group = key_of(row)
            count = counts[group] = counts.get(group, 0) + 1
            if count == threshold:
                yield group

    def label(self) -> str:
        return f"GroupCount>={self.threshold} by {list(self.columns)}"


_MISSING = object()
