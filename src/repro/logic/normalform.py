"""Normal forms and syntactic simplification of first-order formulas.

Provides:

* :func:`eliminate_implications` — rewrite ``->`` and ``<->`` into ``&``, ``|``, ``~``;
* :func:`negation_normal_form` — push negations to the atoms;
* :func:`prenex_normal_form` — pull quantifiers to the front (after NNF), with
  bound-variable renaming to keep the prefix well formed;
* :func:`simplify` — constant folding and local Boolean simplification
  (the paper points out that preconditions are most useful when they can be
  simplified; this is the simple syntactic part of that story and is used by
  the weakest-precondition calculators to keep output sizes reasonable).

All transformations preserve logical equivalence over every database and
signature; the property-based tests check this on random formulas and random
small graphs.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from .syntax import (
    And,
    Atom,
    Bottom,
    BOTTOM,
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
    TOP,
    make_and,
    make_or,
)
from .terms import Const, Var

__all__ = [
    "eliminate_implications",
    "negation_normal_form",
    "prenex_normal_form",
    "simplify",
    "is_quantifier_free",
    "is_in_nnf",
]


def eliminate_implications(formula: Formula) -> Formula:
    """Rewrite implications and biconditionals in terms of ``~``, ``&``, ``|``."""
    if isinstance(formula, Implies):
        return make_or(
            Not(eliminate_implications(formula.premise)),
            eliminate_implications(formula.conclusion),
        )
    if isinstance(formula, Iff):
        left = eliminate_implications(formula.left)
        right = eliminate_implications(formula.right)
        return make_or(make_and(left, right), make_and(Not(left), Not(right)))
    return formula.map_children(eliminate_implications)


def negation_normal_form(formula: Formula) -> Formula:
    """Negation normal form: negations only in front of atomic formulas.

    Counting quantifiers are treated as atomic for the purpose of pushing
    negation (``~ exists>=k`` has no dual in the fragment we implement), so a
    negated counting quantifier stays negated; this is still a fixpoint of the
    transformation and the evaluator handles it directly.
    """
    return _nnf(eliminate_implications(formula), positive=True)


def _nnf(formula: Formula, positive: bool) -> Formula:
    if isinstance(formula, Not):
        return _nnf(formula.body, not positive)
    if isinstance(formula, (Top, Bottom)):
        if positive:
            return formula
        return BOTTOM if isinstance(formula, Top) else TOP
    if isinstance(formula, (Atom, Eq, InterpretedAtom)):
        return formula if positive else Not(formula)
    if isinstance(formula, And):
        parts = [_nnf(p, positive) for p in formula.parts]
        return make_and(*parts) if positive else make_or(*parts)
    if isinstance(formula, Or):
        parts = [_nnf(p, positive) for p in formula.parts]
        return make_or(*parts) if positive else make_and(*parts)
    if isinstance(formula, Exists):
        body = _nnf(formula.body, positive)
        return Exists(formula.variable, body) if positive else Forall(formula.variable, body)
    if isinstance(formula, Forall):
        body = _nnf(formula.body, positive)
        return Forall(formula.variable, body) if positive else Exists(formula.variable, body)
    if isinstance(formula, CountingExists):
        inner = CountingExists(formula.variable, formula.count, _nnf(formula.body, True))
        return inner if positive else Not(inner)
    if isinstance(formula, (Implies, Iff)):
        return _nnf(eliminate_implications(formula), positive)
    raise TypeError(f"cannot normalise formula of type {type(formula).__name__}")


def is_in_nnf(formula: Formula) -> bool:
    """Is the formula in negation normal form?"""
    for sub in formula.walk():
        if isinstance(sub, (Implies, Iff)):
            return False
        if isinstance(sub, Not) and not isinstance(
            sub.body, (Atom, Eq, InterpretedAtom, Top, Bottom, CountingExists)
        ):
            return False
    return True


def is_quantifier_free(formula: Formula) -> bool:
    """Does the formula contain no quantifiers?"""
    return not any(
        isinstance(sub, (Exists, Forall, CountingExists)) for sub in formula.walk()
    )


# ---------------------------------------------------------------------------
# prenex normal form
# ---------------------------------------------------------------------------

class _FreshNames:
    """A generator of variable names avoiding a fixed set of used names."""

    def __init__(self, used: Iterator[str]):
        self._used = set(used)
        self._counter = 0

    def fresh(self, base: str) -> str:
        candidate = base
        while candidate in self._used:
            self._counter += 1
            candidate = f"{base}_{self._counter}"
        self._used.add(candidate)
        return candidate


def prenex_normal_form(formula: Formula) -> Formula:
    """Pull all (first-order) quantifiers to the front.

    The input is first brought into negation normal form.  Counting
    quantifiers are left in place (the standard prenex transformation does
    not apply to them), so the result is prenex only for formulas of plain
    ``FO`` / ``FOc(Omega)``.
    """
    nnf = negation_normal_form(formula)
    used = {name for sub in nnf.walk() for name in
            (sub.free_variables() | sub.bound_variables())}
    names = _FreshNames(iter(used))
    prefix, matrix = _prenex(nnf, names)
    result = matrix
    for quantifier, variable in reversed(prefix):
        result = quantifier(variable, result)
    return result


def _prenex(formula: Formula, names: _FreshNames) -> Tuple[List[Tuple[type, str]], Formula]:
    if isinstance(formula, (Atom, Eq, InterpretedAtom, Top, Bottom, Not, CountingExists)):
        return [], formula
    if isinstance(formula, (Exists, Forall)):
        fresh = names.fresh(formula.variable)
        body = formula.body
        if fresh != formula.variable:
            body = body.substitute({formula.variable: Var(fresh)})
        inner_prefix, matrix = _prenex(body, names)
        return [(type(formula), fresh)] + inner_prefix, matrix
    if isinstance(formula, (And, Or)):
        prefix: List[Tuple[type, str]] = []
        matrices: List[Formula] = []
        for part in formula.parts:
            part_prefix, part_matrix = _prenex(part, names)
            prefix.extend(part_prefix)
            matrices.append(part_matrix)
        combine = make_and if isinstance(formula, And) else make_or
        return prefix, combine(*matrices)
    raise TypeError(f"cannot prenex formula of type {type(formula).__name__}")


# ---------------------------------------------------------------------------
# simplification
# ---------------------------------------------------------------------------

def simplify(formula: Formula, nonempty_domain: bool = True) -> Formula:
    """Local syntactic simplification (equivalence-preserving).

    Applies constant folding (``phi & true = phi`` ...), double-negation
    elimination, equality folding (``t = t`` becomes ``true``, ``c = d`` for
    distinct constants ``false``), removal of duplicate conjuncts/disjuncts,
    and elimination of vacuous quantifiers (quantifiers whose variable does
    not occur free in the body).

    The vacuous-quantifier foldings assume a *non-empty* quantification
    domain, i.e. a non-empty database or a formula mentioning at least one
    constant.  This is the convention of classical model theory and matches
    the paper, which restricts attention to non-empty databases whenever it
    matters (cf. the proof of Proposition 1).  On the empty database with a
    constant-free formula the folded formula may differ; pass
    ``nonempty_domain=False`` to apply only the rules that hold over every
    domain, the empty one included (``exists x . false`` and ``forall x .
    true`` still fold; ``exists x . true`` and ``forall x . false`` — which
    *say* whether the domain is empty — and quantifiers over a variable the
    body does not mention are left alone).
    """
    simplified = _simplify_once(formula, nonempty_domain)
    while simplified != formula:
        formula = simplified
        simplified = _simplify_once(formula, nonempty_domain)
    return simplified


def _simplify_once(formula: Formula, nonempty_domain: bool) -> Formula:
    formula = formula.map_children(
        lambda child: _simplify_once(child, nonempty_domain)
    )

    if isinstance(formula, Not):
        body = formula.body
        if isinstance(body, Top):
            return BOTTOM
        if isinstance(body, Bottom):
            return TOP
        if isinstance(body, Not):
            return body.body
        return formula

    if isinstance(formula, Eq):
        if formula.left == formula.right:
            return TOP
        if isinstance(formula.left, Const) and isinstance(formula.right, Const):
            return BOTTOM  # distinct constants denote distinct values
        return formula

    if isinstance(formula, And):
        parts = []
        seen = set()
        for part in formula.parts:
            if isinstance(part, Top):
                continue
            if isinstance(part, Bottom):
                return BOTTOM
            if part in seen:
                continue
            seen.add(part)
            parts.append(part)
        # phi & ~phi is false
        for part in parts:
            if Not(part) in seen or (isinstance(part, Not) and part.body in seen):
                return BOTTOM
        return make_and(*parts) if parts else TOP

    if isinstance(formula, Or):
        parts = []
        seen = set()
        for part in formula.parts:
            if isinstance(part, Bottom):
                continue
            if isinstance(part, Top):
                return TOP
            if part in seen:
                continue
            seen.add(part)
            parts.append(part)
        for part in parts:
            if Not(part) in seen or (isinstance(part, Not) and part.body in seen):
                return TOP
        return make_or(*parts) if parts else BOTTOM

    if isinstance(formula, Implies):
        if isinstance(formula.premise, Bottom) or isinstance(formula.conclusion, Top):
            return TOP
        if isinstance(formula.premise, Top):
            return formula.conclusion
        if isinstance(formula.conclusion, Bottom):
            return _simplify_once(Not(formula.premise), nonempty_domain)
        return formula

    if isinstance(formula, Iff):
        if formula.left == formula.right:
            return TOP
        if isinstance(formula.left, Top):
            return formula.right
        if isinstance(formula.right, Top):
            return formula.left
        if isinstance(formula.left, Bottom):
            return _simplify_once(Not(formula.right), nonempty_domain)
        if isinstance(formula.right, Bottom):
            return _simplify_once(Not(formula.left), nonempty_domain)
        return formula

    if isinstance(formula, (Exists, Forall)):
        body = formula.body
        # no witness satisfies ``false``; every value (of none) satisfies ``true``
        if isinstance(body, Bottom if isinstance(formula, Exists) else Top):
            return body
        # the rest assumes a non-empty quantification domain (see docstring)
        if nonempty_domain and (
            isinstance(body, (Top, Bottom))
            or formula.variable not in body.free_variables()
        ):
            return body
        return formula

    return formula
