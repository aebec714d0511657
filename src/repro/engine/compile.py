"""Compilation of first-order formulas to set-at-a-time algebra plans.

The compiler translates every construct of the specification languages
(``FO``, ``FOc``, ``FOc(Omega)``, ``FOcount``) into a :class:`~repro.engine.plan.Plan`
that computes the formula's *extension* over the quantification domain:

    ``ext(phi) = { a in domain^free(phi) : D |= phi[a] }``

so sentences compile to 0-ary plans whose result is ``{()}`` (true) or ``{}``
(false).  The rules mirror the semantics of the recursive interpreter in
:mod:`repro.logic.evaluation` exactly — the property-based equivalence suite
checks the two backends against each other on random formulas and databases.

Rule sketch (see ``docs/engine.md`` for the quantifier-by-quantifier story):

* atoms compile to indexed scans filtered to the domain,
* conjunction compiles to hash joins, with interpreted atoms and function
  terms *pushed down* as selections once their variables are bound and negated
  conjuncts turned into antijoins,
* disjunction compiles to a union after padding each disjunct to the shared
  free variables,
* ``exists x`` compiles to early projection (dropping ``x``), distributed
  over a disjunctive body (``exists x (A | B)`` is ``exists x A | exists x B``),
* ``forall x`` compiles via its dual ``~ exists x ~``,
* ``exists^{>= k} x`` compiles to a grouped count over the witness column,
* negation in any remaining position compiles to a domain complement.

Plans depend only on the formula, never on the database, so one compiled plan
serves every database an experiment sweeps over.  A formula whose constants
were replaced by :class:`~repro.logic.terms.Param` slots compiles to a plan
that reads them from the execution context, so it serves every formula of
that shape as well.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..logic.syntax import (
    And,
    Atom,
    Bottom,
    CountingExists,
    Eq,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    InterpretedAtom,
    Not,
    Or,
    Top,
)
from ..logic.terms import Const, Param, Term, Var, evaluate_term
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
    Scan,
    Select,
    SingletonIfActive,
    UnionAll,
)

__all__ = [
    "CompileError",
    "compile_extension",
    "compile_sentence",
    "predicate_for",
]


class CompileError(ValueError):
    """Raised when a formula cannot be compiled to a plan."""


def compile_extension(formula: Formula, variables: Sequence[str]) -> Plan:
    """Compile ``formula`` into a plan producing its extension over ``variables``.

    ``variables`` must cover the formula's free variables; extra listed
    variables simply range over the domain (matching
    :meth:`repro.logic.evaluation.Model.extension`).
    """
    if not isinstance(formula, Formula):
        raise CompileError(f"cannot compile {type(formula).__name__}")
    variables = tuple(variables)
    if len(set(variables)) != len(variables):
        raise CompileError(f"duplicate variables in extension header {list(variables)}")
    missing = formula.free_variables() - set(variables)
    if missing:
        raise CompileError(
            f"extension over {list(variables)} leaves variables {sorted(missing)} free"
        )
    global _SUBPLANS
    fresh = _SUBPLANS is None
    if fresh:
        _SUBPLANS = {}
    try:
        return _pad(_compile(formula), variables)
    finally:
        if fresh:
            _SUBPLANS = None


def compile_sentence(formula: Formula) -> Plan:
    """Compile a sentence to a 0-ary plan (``{()}`` = true, ``{}`` = false)."""
    return compile_extension(formula, ())


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _free(formula: Formula) -> Tuple[str, ...]:
    """The canonical (sorted) column order for a subformula's extension."""
    return tuple(sorted(formula.free_variables()))


def _pad(plan: Plan, columns: Tuple[str, ...]) -> Plan:
    """Extend ``plan`` with domain scans for missing columns and reorder."""
    have = set(plan.columns)
    for column in columns:
        if column not in have:
            plan = HashJoin(plan, DomainScan(column))
            have.add(column)
    if plan.columns != columns:
        plan = Project(plan, columns)
    return plan


def _is_simple(term: Term) -> bool:
    return isinstance(term, (Var, Const, Param))


def _has_function_terms(formula: Formula) -> bool:
    if isinstance(formula, (Atom, InterpretedAtom)):
        return any(not _is_simple(t) for t in formula.terms)
    if isinstance(formula, Eq):
        return not (_is_simple(formula.left) and _is_simple(formula.right))
    return False


def _term_reader(term: Term, columns: Tuple[str, ...]):
    """``(row, ctx) -> value`` of ``term`` over rows laid out as ``columns``."""
    if isinstance(term, Var) and term.name in columns:
        position = columns.index(term.name)
        return lambda row, ctx: row[position]
    if isinstance(term, Const):
        value = term.value
        return lambda row, ctx: value
    if isinstance(term, Param):
        slot = term.index
        return lambda row, ctx: ctx.params[slot]
    # function terms (and unbound variables, for the error): the term evaluator

    def read(row, ctx: ExecutionContext):
        return evaluate_term(term, dict(zip(columns, row)), ctx.functions, ctx.params)

    return read


def predicate_for(formula: Formula, columns: Tuple[str, ...]):
    """A per-row predicate for an atomic formula whose variables are all bound.

    This is the tuple-at-a-time escape hatch for the constructs a positional
    algebra cannot evaluate set-at-a-time — interpreted (``Omega``) atoms and
    function terms — applied only once the relational part of the plan has
    bound every variable they mention (a pushed-down selection); a negated
    equality is one too, since nothing set-at-a-time is cheaper than
    comparing two bound values.  Public because the cost-based optimizer
    re-derives predicates when its rewritten plans bind the same formula
    against a different column layout.
    """
    if isinstance(formula, InterpretedAtom):
        symbol = formula.symbol
        readers = [_term_reader(t, columns) for t in formula.terms]

        def check_interpreted(row, ctx: ExecutionContext) -> bool:
            predicate = ctx.signature.predicate(symbol)
            return predicate(*[read(row, ctx) for read in readers])

        return check_interpreted
    if isinstance(formula, Eq):
        left = _term_reader(formula.left, columns)
        right = _term_reader(formula.right, columns)
        return lambda row, ctx: left(row, ctx) == right(row, ctx)
    if isinstance(formula, Not) and isinstance(formula.body, Eq):
        holds = predicate_for(formula.body, columns)
        return lambda row, ctx: not holds(row, ctx)
    if isinstance(formula, Atom):
        relation = formula.relation
        readers = [_term_reader(t, columns) for t in formula.terms]

        def check_atom(row, ctx: ExecutionContext) -> bool:
            return tuple(read(row, ctx) for read in readers) in ctx.db.relation(relation)

        return check_atom
    raise CompileError(f"no row predicate for {type(formula).__name__}")


def _fallback_atomic(formula: Formula) -> Plan:
    """Standalone plan for an atomic formula needing per-row evaluation.

    Enumerates ``domain^free`` and filters — no better strategy exists for an
    opaque interpreted predicate, and it matches the naive interpreter's cost
    for exactly these constructs (everything else stays set-at-a-time).
    """
    return _select(DomainProduct(_free(formula)), formula)


def _select(child: Plan, formula: Formula) -> Plan:
    """``child`` filtered by ``formula``, whose variables ``child`` binds."""
    return Select(
        child,
        predicate_for(formula, child.columns),
        description=str(formula),
        formula=formula,
    )


def _is_bound_inequality(negation: Formula) -> bool:
    """``~(s = t)`` over simple terms, at least one a variable.

    Once its variables are bound such a conjunct compares two values per row;
    as an antijoin it would materialise the equality's own extension (the
    whole domain's diagonal, for two variables) to subtract it.
    """
    body = negation.body  # type: ignore[attr-defined]
    return (
        isinstance(body, Eq)
        and _is_simple(body.left)
        and _is_simple(body.right)
        and (isinstance(body.left, Var) or isinstance(body.right, Var))
    )


def _pushed_negation(body: Formula) -> Optional[Formula]:
    """Rewrite ``~body`` into a complement-free equivalent, when one exists.

    Complements materialise ``domain^k``; pushing the negation inward usually
    turns them into antijoins or selections instead (``~(p -> q)`` becomes
    ``p & ~q``, a scan plus a filter).  Returns ``None`` when ``~body`` has no
    cheaper shape (atoms, conjunctions) and a genuine complement is in order.
    """
    if isinstance(body, Not):
        return body.body  # double negation
    if isinstance(body, Top):
        return Bottom()
    if isinstance(body, Bottom):
        return Top()
    if isinstance(body, Implies):
        return And(body.premise, Not(body.conclusion))
    if isinstance(body, Or):
        return And(*(Not(part) for part in body.parts))
    if isinstance(body, Forall):
        return Exists(body.variable, Not(body.body))
    if isinstance(body, Iff):
        return Iff(body.left, Not(body.right))
    return None


# ---------------------------------------------------------------------------
# the compiler
# ---------------------------------------------------------------------------

_SUBPLANS: Optional[Dict[Formula, Plan]] = None


def _compile(formula: Formula) -> Plan:
    """Compile ``formula`` to a plan over columns ``_free(formula)``.

    Within one top-level compilation, identical subformulas share one plan
    node (the result is a DAG, not a tree).  Combined with the execution
    context's per-node cache this means a subformula repeated ``k`` times —
    the signature move of the weakest-precondition transformation — is
    evaluated once per database instead of ``k`` times.
    """
    memo = _SUBPLANS
    if memo is not None:
        cached = memo.get(formula)
        if cached is not None:
            return cached
    plan = _compile_node(formula)
    if memo is not None:
        memo[formula] = plan
    return plan


def _compile_node(formula: Formula) -> Plan:
    if isinstance(formula, Top):
        return ConstantTable((), [()])
    if isinstance(formula, Bottom):
        return ConstantTable((), [])
    if isinstance(formula, Atom):
        return _compile_atom(formula)
    if isinstance(formula, Eq):
        return _compile_eq(formula)
    if isinstance(formula, InterpretedAtom):
        return _fallback_atomic(formula)
    if isinstance(formula, Not):
        rewritten = _pushed_negation(formula.body)
        if rewritten is not None:
            return _compile(rewritten)
        return DomainComplement(_compile(formula.body))
    if isinstance(formula, And):
        return _compile_and(formula.parts)
    if isinstance(formula, Or):
        return _compile_or(formula.parts)
    if isinstance(formula, Implies):
        return _compile_or((Not(formula.premise), formula.conclusion))
    if isinstance(formula, Iff):
        return _compile_or(
            (
                And(formula.left, formula.right),
                And(Not(formula.left), Not(formula.right)),
            )
        )
    if isinstance(formula, Exists):
        return _compile_exists(formula.variable, formula.body)
    if isinstance(formula, Forall):
        # forall x . phi  ==  ~ exists x . ~ phi (both under the same domain)
        return DomainComplement(
            _compile_exists(formula.variable, Not(formula.body))
        )
    if isinstance(formula, CountingExists):
        return _compile_counting(formula)
    raise CompileError(f"cannot compile formula of type {type(formula).__name__}")


def _compile_atom(formula: Atom) -> Plan:
    if _has_function_terms(formula):
        return _fallback_atomic(formula)
    pattern: List[Tuple[str, object]] = []
    for term in formula.terms:
        if isinstance(term, Var):
            pattern.append(("var", term.name))
        elif isinstance(term, Param):
            pattern.append(("param", term.index))
        else:
            pattern.append(("const", term.value))  # type: ignore[union-attr]
    plan: Plan = Scan(formula.relation, pattern)
    columns = _free(formula)
    if plan.columns != columns:
        plan = Project(plan, columns)
    return plan


def _compile_eq(formula: Eq) -> Plan:
    left, right = formula.left, formula.right
    if not (_is_simple(left) and _is_simple(right)):
        return _fallback_atomic(formula)
    if isinstance(left, Const) and isinstance(right, Const):
        return ConstantTable((), [()] if left.value == right.value else [])
    if isinstance(left, Param) and isinstance(right, Param):
        # distinct slots of one shape hold distinct values
        return ConstantTable((), [()] if left.index == right.index else [])
    if isinstance(left, Var) and isinstance(right, Var):
        if left.name == right.name:
            return DomainScan(left.name)
        first, second = sorted((left.name, right.name))
        return DomainDiagonal(first, second)
    if not isinstance(left, Var) and not isinstance(right, Var):
        return _fallback_atomic(formula)  # a constant against a slot: decided per binding
    variable, constant = (left, right) if isinstance(left, Var) else (right, left)
    if isinstance(constant, Param):
        return SingletonIfActive(variable.name, slot=constant.index)
    return SingletonIfActive(variable.name, constant.value)  # type: ignore[union-attr]


def _compile_and(parts: Sequence[Formula]) -> Plan:
    """Conjunction: hash joins + pushed-down selections + antijoins.

    Relational conjuncts are joined first (atoms before complex subformulas,
    so scans seed the join); conjuncts that can only filter — interpreted
    atoms, function-term (in)equalities, negations — are applied as soon as
    the accumulated columns cover their variables.  Anything still uncovered
    at the end falls back to its standalone plan and is joined in.
    """
    filters: List[Formula] = []       # applied as Select once columns are bound
    negations: List[Formula] = []     # applied as Antijoin once columns are bound
    relational: List[Formula] = []
    normalized: List[Formula] = []
    for part in parts:
        if isinstance(part, Not):
            pushed = _pushed_negation(part.body)
            if pushed is not None and not isinstance(pushed, Not):
                part = pushed  # e.g. ~(p -> q) joins as p & ~q instead
        normalized.append(part)
    for part in normalized:
        if _has_function_terms(part) and isinstance(part, (Eq, Atom, InterpretedAtom)):
            filters.append(part)
        elif isinstance(part, InterpretedAtom):
            filters.append(part)
        elif isinstance(part, Not):
            negations.append(part)
        else:
            relational.append(part)
    # scans first, then everything else, narrow before wide
    relational.sort(
        key=lambda f: (0 if isinstance(f, (Atom, Eq)) else 1, len(f.free_variables()))
    )
    plan: Optional[Plan] = None
    for part in relational:
        compiled = _compile(part)
        plan = compiled if plan is None else HashJoin(plan, compiled)
    if plan is None:
        plan = ConstantTable((), [()])

    def apply_covered(current: Plan) -> Plan:
        changed = True
        while changed:
            changed = False
            covered = set(current.columns)
            for pending in list(filters):
                if pending.free_variables() <= covered:
                    current = _select(current, pending)
                    filters.remove(pending)
                    changed = True
            for pending in list(negations):
                if pending.free_variables() <= covered:
                    if _is_bound_inequality(pending):
                        current = _select(current, pending)
                    else:
                        current = Antijoin(
                            current, _compile(pending.body)  # type: ignore[attr-defined]
                        )
                    negations.remove(pending)
                    changed = True
        return current

    plan = apply_covered(plan)
    # conjuncts whose variables never got covered: join their standalone
    # plans in, re-checking coverage after each (a join can unlock filters)
    while filters or negations:
        if filters:
            plan = HashJoin(plan, _fallback_atomic(filters.pop(0)))
        else:
            plan = HashJoin(plan, _compile(negations.pop(0)))
        plan = apply_covered(plan)
    columns = _free(And(*parts) if len(parts) > 1 else parts[0])
    return _pad(plan, columns)


def _compile_or(parts: Sequence[Formula]) -> Plan:
    columns_set: Set[str] = set()
    for part in parts:
        columns_set |= part.free_variables()
    columns = tuple(sorted(columns_set))
    padded = [_pad(_compile(part), columns) for part in parts]
    if len(padded) == 1:
        return padded[0]
    return UnionAll(padded)


def _compile_exists(variable: str, body: Formula) -> Plan:
    if isinstance(body, Or):
        # projection through union: each disjunct is projected on its own, so
        # a constant-free one (a relation scan, say) is not buried under a
        # union with a constant row and stays shareable across formulas
        return _compile_or([Exists(variable, part) for part in body.parts])
    plan = _compile(body)
    if variable not in plan.columns:
        # vacuous quantification still requires a witness: empty domain => false
        plan = HashJoin(plan, DomainScan(variable))
    columns = tuple(sorted(body.free_variables() - {variable}))
    return Project(plan, columns)


def _compile_counting(formula: CountingExists) -> Plan:
    columns = _free(formula)
    if formula.count == 0:
        # exists^{>=0} is vacuously true for every assignment, even over the
        # empty domain (the interpreter's count starts at 0 >= 0).
        return DomainProduct(columns)
    plan = _compile(formula.body)
    if formula.variable not in plan.columns:
        plan = HashJoin(plan, DomainScan(formula.variable))
    if set(plan.columns) != set(columns) | {formula.variable}:
        plan = _pad(plan, tuple(sorted(set(columns) | {formula.variable})))
    return GroupCount(plan, columns, formula.count)
