"""Terms of the specification languages.

The paper's specification languages range over a signature ``Omega`` that may
contain, besides the relational schema,

* constant symbols for every element of the universe (``FOc``), and
* a recursive collection of recursive functions and predicates (``FOc(Omega)``).

``Term(Omega)`` is the set of terms built from variables using the symbols of
``Omega`` (constants are functions of arity zero).  Prerelations use a finite
set ``Gamma`` of such terms to describe how a transaction may extend the
active domain (Section 2).

This module defines the term AST: :class:`Var`, :class:`Const`,
:class:`Func` (an application of an interpreted function symbol) and
:class:`Param` (a constant whose value is bound at run time — what the query
engine puts where a formula's constants stood, so one compiled plan serves
every formula of the same shape).  Terms are immutable, hashable and
comparable, and support substitution and evaluation under an assignment plus
a :class:`~repro.logic.signature.Signature` providing the function
interpretations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Optional, Sequence, Tuple, Union

__all__ = ["Term", "Var", "Const", "Param", "Func", "TermError", "evaluate_term"]


class TermError(ValueError):
    """Raised for malformed terms or evaluation failures."""


class Term:
    """Base class of all terms."""

    def free_variables(self) -> FrozenSet[str]:  # pragma: no cover - interface
        raise NotImplementedError

    def substitute(self, mapping: Mapping[str, "Term"]) -> "Term":  # pragma: no cover
        raise NotImplementedError

    def constants(self) -> FrozenSet[object]:  # pragma: no cover - interface
        raise NotImplementedError

    def function_symbols(self) -> FrozenSet[str]:  # pragma: no cover - interface
        raise NotImplementedError

    def depth(self) -> int:  # pragma: no cover - interface
        raise NotImplementedError


@dataclass(frozen=True)
class Var(Term):
    """A first-order variable."""

    name: str

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise TermError("variable name must be a non-empty string")

    def free_variables(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def substitute(self, mapping: Mapping[str, Term]) -> Term:
        return mapping.get(self.name, self)

    def constants(self) -> FrozenSet[object]:
        return frozenset()

    def function_symbols(self) -> FrozenSet[str]:
        return frozenset()

    def depth(self) -> int:
        return 0

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const(Term):
    """A constant symbol denoting a specific universe element.

    In ``FOc`` every element of the universe has a name; we simply use the
    element itself (any hashable Python value) as its own name.
    """

    value: object

    def __post_init__(self) -> None:
        hash(self.value)  # must be hashable; raises TypeError otherwise

    def free_variables(self) -> FrozenSet[str]:
        return frozenset()

    def substitute(self, mapping: Mapping[str, Term]) -> Term:
        return self

    def constants(self) -> FrozenSet[object]:
        return frozenset({self.value})

    def function_symbols(self) -> FrozenSet[str]:
        return frozenset()

    def depth(self) -> int:
        return 0

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Param(Term):
    """The ``index``-th distinct constant of a formula, bound at run time.

    :meth:`repro.logic.syntax.Formula.parameterised` numbers a formula's
    constants by first occurrence and puts ``Param(i)`` where the ``i``-th
    stood; evaluation then takes the values as a separate tuple.  Distinct
    parameters of one formula always denote distinct values, so
    ``Param(i) = Param(j)`` is decided by ``i == j``.  A parameter *is* a
    constant symbol — :meth:`constants` reports it — whose denotation the
    binding supplies.
    """

    index: int

    def __post_init__(self) -> None:
        if not isinstance(self.index, int) or self.index < 0:
            raise TermError("parameter index must be a non-negative integer")

    def free_variables(self) -> FrozenSet[str]:
        return frozenset()

    def substitute(self, mapping: Mapping[str, Term]) -> Term:
        return self

    def constants(self) -> FrozenSet[object]:
        return frozenset({self})

    def function_symbols(self) -> FrozenSet[str]:
        return frozenset()

    def depth(self) -> int:
        return 0

    def __str__(self) -> str:
        return f"${self.index}"


@dataclass(frozen=True)
class Func(Term):
    """An application ``f(t1, ..., tn)`` of an interpreted function symbol.

    The symbol's interpretation lives in a
    :class:`~repro.logic.signature.Signature`; the term itself only records the
    symbol name and arguments.
    """

    symbol: str
    args: Tuple[Term, ...]

    def __init__(self, symbol: str, *args: Term):
        if not symbol or not isinstance(symbol, str):
            raise TermError("function symbol must be a non-empty string")
        flattened = tuple(args[0]) if len(args) == 1 and isinstance(args[0], (tuple, list)) else tuple(args)
        for arg in flattened:
            if not isinstance(arg, Term):
                raise TermError(f"function argument {arg!r} is not a Term")
        object.__setattr__(self, "symbol", symbol)
        object.__setattr__(self, "args", flattened)

    def free_variables(self) -> FrozenSet[str]:
        result: FrozenSet[str] = frozenset()
        for arg in self.args:
            result |= arg.free_variables()
        return result

    def substitute(self, mapping: Mapping[str, Term]) -> Term:
        return Func(self.symbol, *(arg.substitute(mapping) for arg in self.args))

    def constants(self) -> FrozenSet[object]:
        result: FrozenSet[object] = frozenset()
        for arg in self.args:
            result |= arg.constants()
        return result

    def function_symbols(self) -> FrozenSet[str]:
        result = frozenset({self.symbol})
        for arg in self.args:
            result |= arg.function_symbols()
        return result

    def depth(self) -> int:
        return 1 + max((arg.depth() for arg in self.args), default=0)

    @property
    def arity(self) -> int:
        return len(self.args)

    def __str__(self) -> str:
        inner = ", ".join(str(arg) for arg in self.args)
        return f"{self.symbol}({inner})"


def evaluate_term(
    term: Term,
    assignment: Mapping[str, object],
    functions: Optional[Mapping[str, object]] = None,
    params: Sequence[object] = (),
) -> object:
    """Evaluate ``term`` under a variable ``assignment``.

    ``functions`` maps interpreted function symbols to Python callables; it is
    usually supplied by a :class:`~repro.logic.signature.Signature`.
    ``params`` holds the values of the term's :class:`Param` slots.  Raises
    :class:`TermError` when a variable is unassigned, a parameter unbound or
    a symbol has no interpretation.
    """
    if isinstance(term, Var):
        try:
            return assignment[term.name]
        except KeyError as exc:
            raise TermError(f"variable {term.name!r} is not assigned") from exc
    if isinstance(term, Const):
        return term.value
    if isinstance(term, Param):
        try:
            return params[term.index]
        except IndexError as exc:
            raise TermError(f"parameter {term} is not bound") from exc
    if isinstance(term, Func):
        if not functions or term.symbol not in functions:
            raise TermError(f"no interpretation for function symbol {term.symbol!r}")
        func = functions[term.symbol]
        values = [
            evaluate_term(arg, assignment, functions, params) for arg in term.args
        ]
        return func(*values)
    raise TermError(f"unknown term type {type(term).__name__}")
