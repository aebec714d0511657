"""Abstract syntax of the first-order specification languages.

Sentences of the specification languages are the paper's integrity
constraints.  The AST here covers

* pure first-order logic ``FO`` over a relational schema (relation atoms,
  equality, Boolean connectives, quantifiers),
* ``FOc``: constants for universe elements (see :class:`~repro.logic.terms.Const`),
* ``FOc(Omega)``: interpreted function terms and interpreted predicate atoms
  (:class:`InterpretedAtom`), whose semantics come from a
  :class:`~repro.logic.signature.Signature`,
* ``FOcount``: counting quantifiers ``exists^{>= k} x . phi``
  (:class:`CountingExists`), the fragment of first-order logic with counting
  that the paper's proofs actually use.

Monadic second-order existential quantification (monadic Σ¹₁) is layered on
top in :mod:`repro.logic.monadic` rather than mixed into this AST, mirroring
the paper's presentation (a block of monadic second-order quantifiers in front
of a first-order formula).

All formulas are immutable and hashable.  The class also provides generic
traversal (:meth:`Formula.children`, :meth:`Formula.map_children`) so that
transformations such as the weakest-precondition substitution algorithm can be
written once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Sequence, Tuple

from .terms import Const, Func, Param, Term, TermError, Var

__all__ = [
    "Formula",
    "FormulaError",
    "Top",
    "Bottom",
    "Atom",
    "Eq",
    "InterpretedAtom",
    "Not",
    "And",
    "Or",
    "Implies",
    "Iff",
    "Exists",
    "Forall",
    "CountingExists",
    "TOP",
    "BOTTOM",
    "make_and",
    "make_or",
    "bind_slots",
]


class FormulaError(ValueError):
    """Raised for malformed formulas."""


def _coerce_term(value: object) -> Term:
    """Allow plain strings (variables) and non-Term hashables (constants)."""
    if isinstance(value, Term):
        return value
    if isinstance(value, str):
        return Var(value)
    return Const(value)


class Formula:
    """Base class of all first-order formulas."""

    # -- structural traversal ------------------------------------------------

    def children(self) -> Tuple["Formula", ...]:
        """Immediate subformulas."""
        return ()

    def map_children(self, fn: Callable[["Formula"], "Formula"]) -> "Formula":
        """Rebuild this node with ``fn`` applied to each immediate subformula."""
        return self

    def map_terms(self, fn: Callable[[Term], Term]) -> "Formula":
        """Rebuild this formula with ``fn`` applied to every atom's argument terms."""
        return self.map_children(lambda child: child.map_terms(fn))

    def walk(self) -> Iterator["Formula"]:
        """Yield this formula and all subformulas, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    # -- shapes -----------------------------------------------------------------

    def shape(self) -> Tuple[Tuple[object, ...], Tuple[object, ...]]:
        """``(key, constants)``: the formula with its constants factored out.

        ``constants`` lists the distinct constants in first-occurrence order
        and ``key`` is a hashable rendering of the formula with each constant
        replaced by its position in that list.  Two formulas have equal keys
        exactly when they differ only in *which* constants they mention, not
        in where or in which of them coincide — so whatever was derived from
        one (:meth:`parameterised`, a compiled plan) serves the other under
        its own ``constants``.  One pass building no formula, memoised on the
        instance.
        """
        try:
            return self._shape_value  # type: ignore[attr-defined]
        except AttributeError:
            slots: Dict[object, int] = {}
            out: List[object] = []
            self._shape_into(slots, out)
            value = (tuple(out), tuple(slots))
            object.__setattr__(self, "_shape_value", value)
            return value

    def _shape_into(self, slots: Dict[object, int], out: List[object]) -> None:
        """Append this node's tokens (a prefix code: tag, arity, operands)."""
        # a formula class this module does not know is opaque: its own shape
        out.append(self)

    def parameterised(self) -> "Formula":
        """This formula with ``Param(i)`` where its ``i``-th constant stood.

        The numbering is :meth:`shape`'s, so every formula of one shape has
        the same parameterised form.
        """
        constants = self.shape()[1]
        if not constants:
            return self
        params = {value: Param(index) for index, value in enumerate(constants)}
        return self.map_terms(lambda term: _parameterise(term, params))

    # -- syntactic measures ----------------------------------------------------

    def free_variables(self) -> FrozenSet[str]:
        result: FrozenSet[str] = frozenset()
        for child in self.children():
            result |= child.free_variables()
        return result

    def bound_variables(self) -> FrozenSet[str]:
        result: FrozenSet[str] = frozenset()
        for child in self.children():
            result |= child.bound_variables()
        return result

    def quantifier_rank(self) -> int:
        """The quantifier rank (maximal nesting depth of quantifiers)."""
        return max((child.quantifier_rank() for child in self.children()), default=0)

    def size(self) -> int:
        """Number of AST nodes (a crude formula-size measure)."""
        return 1 + sum(child.size() for child in self.children())

    def constants(self) -> FrozenSet[object]:
        """All universe constants mentioned in the formula (the ``FOc`` part)."""
        result: FrozenSet[object] = frozenset()
        for child in self.children():
            result |= child.constants()
        return result

    def relation_symbols(self) -> FrozenSet[str]:
        """Schema relation symbols occurring in atoms."""
        result: FrozenSet[str] = frozenset()
        for child in self.children():
            result |= child.relation_symbols()
        return result

    def interpreted_symbols(self) -> FrozenSet[str]:
        """Interpreted (Omega) function and predicate symbols occurring in the formula."""
        result: FrozenSet[str] = frozenset()
        for child in self.children():
            result |= child.interpreted_symbols()
        return result

    def is_sentence(self) -> bool:
        """A sentence has no free variables."""
        return not self.free_variables()

    def atoms(self) -> Iterator["Atom"]:
        """Yield every relation atom in the formula."""
        for sub in self.walk():
            if isinstance(sub, Atom):
                yield sub

    # -- substitution ---------------------------------------------------------------

    def substitute(self, mapping: Mapping[str, Term]) -> "Formula":
        """Substitute terms for free variables (capture-avoiding).

        ``mapping`` sends variable names to terms; bound variables are renamed
        when a substitution would capture a free variable of a substituted term.
        """
        return self._substitute(dict(mapping))

    def _substitute(self, mapping: Dict[str, Term]) -> "Formula":
        return self.map_children(lambda child: child._substitute(mapping))

    # -- convenience connective constructors ------------------------------------------

    def __and__(self, other: "Formula") -> "Formula":
        return make_and(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return make_or(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)

    def implies(self, other: "Formula") -> "Formula":
        return Implies(self, other)

    def iff(self, other: "Formula") -> "Formula":
        return Iff(self, other)


# ---------------------------------------------------------------------------
# atomic formulas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Top(Formula):
    """The true constant."""

    def _shape_into(self, slots, out) -> None:
        out.append("true")

    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class Bottom(Formula):
    """The false constant."""

    def _shape_into(self, slots, out) -> None:
        out.append("false")

    def __str__(self) -> str:
        return "false"


TOP = Top()
BOTTOM = Bottom()


@dataclass(frozen=True)
class Atom(Formula):
    """A relation atom ``R(t1, ..., tn)`` over the database schema."""

    relation: str
    terms: Tuple[Term, ...]

    def __init__(self, relation: str, *terms: object):
        if not relation or not isinstance(relation, str):
            raise FormulaError("relation name must be a non-empty string")
        if len(terms) == 1 and isinstance(terms[0], (tuple, list)):
            terms = tuple(terms[0])
        coerced = tuple(_coerce_term(t) for t in terms)
        if not coerced:
            raise FormulaError("relation atoms must have at least one argument")
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "terms", coerced)

    def free_variables(self) -> FrozenSet[str]:
        result: FrozenSet[str] = frozenset()
        for term in self.terms:
            result |= term.free_variables()
        return result

    def constants(self) -> FrozenSet[object]:
        result: FrozenSet[object] = frozenset()
        for term in self.terms:
            result |= term.constants()
        return result

    def relation_symbols(self) -> FrozenSet[str]:
        return frozenset({self.relation})

    def interpreted_symbols(self) -> FrozenSet[str]:
        result: FrozenSet[str] = frozenset()
        for term in self.terms:
            result |= term.function_symbols()
        return result

    def _substitute(self, mapping: Dict[str, Term]) -> Formula:
        return Atom(self.relation, *(t.substitute(mapping) for t in self.terms))

    def map_terms(self, fn: Callable[[Term], Term]) -> Formula:
        return Atom(self.relation, *map(fn, self.terms))

    def _shape_into(self, slots, out) -> None:
        out.extend(("atom", self.relation, len(self.terms)))
        _shape_terms(self.terms, slots, out)

    @property
    def arity(self) -> int:
        return len(self.terms)

    def __str__(self) -> str:
        inner = ", ".join(str(t) for t in self.terms)
        return f"{self.relation}({inner})"


@dataclass(frozen=True)
class Eq(Formula):
    """Equality between two terms."""

    left: Term
    right: Term

    def __init__(self, left: object, right: object):
        object.__setattr__(self, "left", _coerce_term(left))
        object.__setattr__(self, "right", _coerce_term(right))

    def free_variables(self) -> FrozenSet[str]:
        return self.left.free_variables() | self.right.free_variables()

    def constants(self) -> FrozenSet[object]:
        return self.left.constants() | self.right.constants()

    def interpreted_symbols(self) -> FrozenSet[str]:
        return self.left.function_symbols() | self.right.function_symbols()

    def _substitute(self, mapping: Dict[str, Term]) -> Formula:
        return Eq(self.left.substitute(mapping), self.right.substitute(mapping))

    def map_terms(self, fn: Callable[[Term], Term]) -> Formula:
        return Eq(fn(self.left), fn(self.right))

    def _shape_into(self, slots, out) -> None:
        out.append("=")
        _shape_terms((self.left, self.right), slots, out)

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"


@dataclass(frozen=True)
class InterpretedAtom(Formula):
    """An atom ``P(t1, ..., tn)`` whose predicate ``P`` belongs to ``Omega``.

    The interpretation of ``P`` (a Python callable returning a bool) is looked
    up in the :class:`~repro.logic.signature.Signature` at evaluation time.
    """

    symbol: str
    terms: Tuple[Term, ...]

    def __init__(self, symbol: str, *terms: object):
        if not symbol or not isinstance(symbol, str):
            raise FormulaError("predicate symbol must be a non-empty string")
        if len(terms) == 1 and isinstance(terms[0], (tuple, list)):
            terms = tuple(terms[0])
        coerced = tuple(_coerce_term(t) for t in terms)
        object.__setattr__(self, "symbol", symbol)
        object.__setattr__(self, "terms", coerced)

    def free_variables(self) -> FrozenSet[str]:
        result: FrozenSet[str] = frozenset()
        for term in self.terms:
            result |= term.free_variables()
        return result

    def constants(self) -> FrozenSet[object]:
        result: FrozenSet[object] = frozenset()
        for term in self.terms:
            result |= term.constants()
        return result

    def interpreted_symbols(self) -> FrozenSet[str]:
        result = frozenset({self.symbol})
        for term in self.terms:
            result |= term.function_symbols()
        return result

    def _substitute(self, mapping: Dict[str, Term]) -> Formula:
        return InterpretedAtom(self.symbol, *(t.substitute(mapping) for t in self.terms))

    def map_terms(self, fn: Callable[[Term], Term]) -> Formula:
        return InterpretedAtom(self.symbol, *map(fn, self.terms))

    def _shape_into(self, slots, out) -> None:
        out.extend(("omega", self.symbol, len(self.terms)))
        _shape_terms(self.terms, slots, out)

    def __str__(self) -> str:
        inner = ", ".join(str(t) for t in self.terms)
        return f"{self.symbol}({inner})"


# ---------------------------------------------------------------------------
# connectives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Not(Formula):
    """Negation."""

    body: Formula

    def children(self) -> Tuple[Formula, ...]:
        return (self.body,)

    def map_children(self, fn: Callable[[Formula], Formula]) -> Formula:
        return Not(fn(self.body))

    def _shape_into(self, slots, out) -> None:
        out.append("~")
        self.body._shape_into(slots, out)

    def __str__(self) -> str:
        return f"~({self.body})"


class _NaryConnective(Formula):
    """Shared machinery for n-ary conjunction and disjunction."""

    __slots__ = ("parts",)
    _symbol = "?"

    def __init__(self, *parts: Formula):
        if len(parts) == 1 and isinstance(parts[0], (tuple, list)):
            parts = tuple(parts[0])
        if not parts:
            raise FormulaError(
                f"{type(self).__name__} needs at least one operand; use TOP/BOTTOM "
                "for the empty conjunction/disjunction"
            )
        for part in parts:
            if not isinstance(part, Formula):
                raise FormulaError(f"operand {part!r} is not a Formula")
        self.parts = tuple(parts)

    def children(self) -> Tuple[Formula, ...]:
        return self.parts

    def map_children(self, fn: Callable[[Formula], Formula]) -> Formula:
        return type(self)(*(fn(part) for part in self.parts))

    def _shape_into(self, slots, out) -> None:
        out.extend((self._symbol, len(self.parts)))
        for part in self.parts:
            part._shape_into(slots, out)

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.parts == other.parts  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.parts))

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self.parts!r}"

    def __str__(self) -> str:
        sep = f" {self._symbol} "
        return "(" + sep.join(str(part) for part in self.parts) + ")"


class And(_NaryConnective):
    """Conjunction of one or more formulas."""

    _symbol = "&"


class Or(_NaryConnective):
    """Disjunction of one or more formulas."""

    _symbol = "|"


@dataclass(frozen=True)
class Implies(Formula):
    """Implication ``premise -> conclusion``."""

    premise: Formula
    conclusion: Formula

    def children(self) -> Tuple[Formula, ...]:
        return (self.premise, self.conclusion)

    def map_children(self, fn: Callable[[Formula], Formula]) -> Formula:
        return Implies(fn(self.premise), fn(self.conclusion))

    def _shape_into(self, slots, out) -> None:
        out.append("->")
        self.premise._shape_into(slots, out)
        self.conclusion._shape_into(slots, out)

    def __str__(self) -> str:
        return f"({self.premise} -> {self.conclusion})"


@dataclass(frozen=True)
class Iff(Formula):
    """Biconditional."""

    left: Formula
    right: Formula

    def children(self) -> Tuple[Formula, ...]:
        return (self.left, self.right)

    def map_children(self, fn: Callable[[Formula], Formula]) -> Formula:
        return Iff(fn(self.left), fn(self.right))

    def _shape_into(self, slots, out) -> None:
        out.append("<->")
        self.left._shape_into(slots, out)
        self.right._shape_into(slots, out)

    def __str__(self) -> str:
        return f"({self.left} <-> {self.right})"


# ---------------------------------------------------------------------------
# quantifiers
# ---------------------------------------------------------------------------

class _Quantifier(Formula):
    """Shared machinery for first-order quantifiers."""

    __slots__ = ("variable", "body")
    _symbol = "?"

    def __init__(self, variable: str, body: Formula):
        if isinstance(variable, Var):
            variable = variable.name
        if not variable or not isinstance(variable, str):
            raise FormulaError("quantified variable must be a non-empty string")
        if not isinstance(body, Formula):
            raise FormulaError(f"quantifier body {body!r} is not a Formula")
        self.variable = variable
        self.body = body

    def children(self) -> Tuple[Formula, ...]:
        return (self.body,)

    def map_children(self, fn: Callable[[Formula], Formula]) -> Formula:
        return type(self)(self.variable, fn(self.body))

    def _shape_into(self, slots, out) -> None:
        out.extend((self._symbol, self.variable))
        self.body._shape_into(slots, out)

    def free_variables(self) -> FrozenSet[str]:
        return self.body.free_variables() - {self.variable}

    def bound_variables(self) -> FrozenSet[str]:
        return self.body.bound_variables() | {self.variable}

    def quantifier_rank(self) -> int:
        return 1 + self.body.quantifier_rank()

    def _substitute(self, mapping: Dict[str, Term]) -> Formula:
        # Drop the binding for our own variable and rename to avoid capture.
        local = {k: v for k, v in mapping.items() if k != self.variable}
        if not local:
            return self
        substituted_frees: FrozenSet[str] = frozenset()
        for term in local.values():
            substituted_frees |= term.free_variables()
        variable = self.variable
        body = self.body
        if variable in substituted_frees:
            fresh = _fresh_variable(variable, substituted_frees | body.free_variables()
                                    | body.bound_variables() | set(local))
            body = body._substitute({variable: Var(fresh)})
            variable = fresh
        return type(self)(variable, body._substitute(local))

    def __eq__(self, other: object) -> bool:
        return (
            type(self) is type(other)
            and self.variable == other.variable  # type: ignore[attr-defined]
            and self.body == other.body  # type: ignore[attr-defined]
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.variable, self.body))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.variable!r}, {self.body!r})"

    def __str__(self) -> str:
        return f"{self._symbol}{self.variable}.({self.body})"


class Exists(_Quantifier):
    """Existential quantification ``exists x . phi``."""

    _symbol = "exists "


class Forall(_Quantifier):
    """Universal quantification ``forall x . phi``."""

    _symbol = "forall "


class CountingExists(Formula):
    """The counting quantifier ``exists^{>= count} x . phi`` of ``FOcount``.

    The quantifier binds ``x`` but not ``count`` (the paper's ``exists^i x``);
    here ``count`` is a concrete non-negative integer, which is all the
    experiments require (the numeric sort is handled by
    :mod:`repro.logic.counting`).
    """

    __slots__ = ("variable", "count", "body")

    def __init__(self, variable: str, count: int, body: Formula):
        if isinstance(variable, Var):
            variable = variable.name
        if not variable or not isinstance(variable, str):
            raise FormulaError("quantified variable must be a non-empty string")
        if not isinstance(count, int) or count < 0:
            raise FormulaError("counting threshold must be a non-negative integer")
        if not isinstance(body, Formula):
            raise FormulaError(f"quantifier body {body!r} is not a Formula")
        self.variable = variable
        self.count = count
        self.body = body

    def children(self) -> Tuple[Formula, ...]:
        return (self.body,)

    def map_children(self, fn: Callable[[Formula], Formula]) -> Formula:
        return CountingExists(self.variable, self.count, fn(self.body))

    def _shape_into(self, slots, out) -> None:
        out.extend(("exists>=", self.variable, self.count))
        self.body._shape_into(slots, out)

    def free_variables(self) -> FrozenSet[str]:
        return self.body.free_variables() - {self.variable}

    def bound_variables(self) -> FrozenSet[str]:
        return self.body.bound_variables() | {self.variable}

    def quantifier_rank(self) -> int:
        return 1 + self.body.quantifier_rank()

    def _substitute(self, mapping: Dict[str, Term]) -> Formula:
        local = {k: v for k, v in mapping.items() if k != self.variable}
        if not local:
            return self
        substituted_frees: FrozenSet[str] = frozenset()
        for term in local.values():
            substituted_frees |= term.free_variables()
        variable = self.variable
        body = self.body
        if variable in substituted_frees:
            fresh = _fresh_variable(variable, substituted_frees | body.free_variables()
                                    | body.bound_variables() | set(local))
            body = body._substitute({variable: Var(fresh)})
            variable = fresh
        return CountingExists(variable, self.count, body._substitute(local))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CountingExists)
            and self.variable == other.variable
            and self.count == other.count
            and self.body == other.body
        )

    def __hash__(self) -> int:
        return hash(("CountingExists", self.variable, self.count, self.body))

    def __repr__(self) -> str:
        return f"CountingExists({self.variable!r}, {self.count}, {self.body!r})"

    def __str__(self) -> str:
        return f"exists>={self.count} {self.variable}.({self.body})"


# ---------------------------------------------------------------------------
# per-instance memoisation of hash and free variables
# ---------------------------------------------------------------------------
#
# Formulas are immutable, and the query engine keys every cache it owns —
# plan cache, optimized-plan cache, per-database result memos — by formula.
# Weakest-precondition formulas run to tens of thousands of nodes, so
# recomputing a structural hash per lookup dominated entire validation
# sweeps.  Every concrete class gets its hash (and free-variable set)
# computed once per instance and stashed via ``object.__setattr__`` (which
# also works for the frozen dataclasses).

def _memoize_formula_class(cls) -> None:
    original_hash = cls.__hash__
    original_free = cls.free_variables

    def cached_hash(self) -> int:
        try:
            return self._hash_value
        except AttributeError:
            value = original_hash(self)
            object.__setattr__(self, "_hash_value", value)
            return value

    def cached_free(self) -> FrozenSet[str]:
        try:
            return self._free_vars
        except AttributeError:
            value = original_free(self)
            object.__setattr__(self, "_free_vars", value)
            return value

    cls.__hash__ = cached_hash
    cls.free_variables = cached_free


for _formula_class in (
    Top, Bottom, Atom, Eq, InterpretedAtom, Not, And, Or, Implies, Iff,
    Exists, Forall, CountingExists,
):
    _memoize_formula_class(_formula_class)
del _formula_class


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _shape_terms(
    terms: Sequence[Term], slots: Dict[object, int], out: List[object]
) -> None:
    """The :meth:`Formula.shape` tokens of argument terms.

    A variable is its name (a string), a constant its slot (an integer,
    allotted at first occurrence — equal values share one), a function
    application ``(symbol, arity)`` followed by its arguments; a parameter
    already in place stands for itself.
    """
    for term in terms:
        kind = type(term)
        if kind is Var:
            out.append(term.name)
        elif kind is Const:
            out.append(slots.setdefault(term.value, len(slots)))
        elif kind is Func:
            out.append((term.symbol, len(term.args)))
            _shape_terms(term.args, slots, out)
        else:
            out.append(term)


def bind_slots(formula: Formula, values: Sequence[object]) -> Formula:
    """``formula`` with the constant ``values[i]`` for each ``Param(i)``."""
    if not values:
        return formula
    return formula.map_terms(
        lambda term: Const(values[term.index]) if type(term) is Param else term
    )


def _parameterise(term: Term, params: Mapping[object, Param]) -> Term:
    if isinstance(term, Const):
        return params[term.value]
    if isinstance(term, Func):
        return Func(term.symbol, *(_parameterise(arg, params) for arg in term.args))
    return term


def _fresh_variable(base: str, taken: Iterable[str]) -> str:
    """A variable name based on ``base`` that does not clash with ``taken``."""
    taken_set = set(taken)
    candidate = base
    index = 0
    while candidate in taken_set:
        index += 1
        candidate = f"{base}_{index}"
    return candidate


def make_and(*parts: Formula) -> Formula:
    """Smart conjunction: flattens, drops ``true``, and short-circuits ``false``."""
    flat = []
    for part in parts:
        if isinstance(part, And):
            flat.extend(part.parts)
        else:
            flat.append(part)
    filtered = [p for p in flat if not isinstance(p, Top)]
    if any(isinstance(p, Bottom) for p in filtered):
        return BOTTOM
    if not filtered:
        return TOP
    if len(filtered) == 1:
        return filtered[0]
    return And(*filtered)


def make_or(*parts: Formula) -> Formula:
    """Smart disjunction: flattens, drops ``false``, and short-circuits ``true``."""
    flat = []
    for part in parts:
        if isinstance(part, Or):
            flat.extend(part.parts)
        else:
            flat.append(part)
    filtered = [p for p in flat if not isinstance(p, Bottom)]
    if any(isinstance(p, Top) for p in filtered):
        return TOP
    if not filtered:
        return BOTTOM
    if len(filtered) == 1:
        return filtered[0]
    return Or(*filtered)
