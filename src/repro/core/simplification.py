"""Precondition simplification under an invariant (the paper's closing remark).

The concluding remarks of the paper point out that in the integrity-maintenance
setting the constraint ``alpha`` already holds *before* the transaction runs,
so instead of guarding with the full ``wpc(T, alpha)`` one may guard with any
``Delta`` satisfying

    ``alpha  |=  (Delta <-> wpc(T, alpha))``

and a ``Delta`` much simpler than the weakest precondition often exists
(cf. Nicolas [29], Qian [31] and the other constraint-simplification work the
paper cites).  Finding such a ``Delta`` in general requires theorem proving;
for a program of tuple inserts and deletions and a constraint in *denial
form* (:func:`denial_form`) this module constructs one exactly, once per
program shape (:func:`derived_guard`, :func:`shape_guard`), and
:func:`equivalent_under` checks ``alpha |= (a <-> b)`` on a listed family of
databases, as an oracle for such constructions.  Experiment E13's ablation
compares each derived guard with the ``wpc`` it replaces.

The same remark applies *after* the transaction: when the pre-state is known
to satisfy a universal constraint, the post-state check may be any sentence
equivalent to it under that constraint, and for a constraint in *denial
form* (:func:`denial_form`) an exact one is small.  A violation in the
post-state that uses no inserted row was already a violation of the
pre-state, so only the constraint's instances at the inserted rows need
evaluating (Nicolas' simplification), and a deletion needs none.
:func:`holds_after_update` is that check, with the whole constraint as its
fallback; both run-time check sites — the run-time maintenance policy and the
transaction service — call it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..db.database import Database
from ..db.delta import Delta
from ..engine.backend import active_backend
from ..logic.evaluation import evaluate
from ..logic.normalform import simplify as syntactic_simplify
from ..logic.signature import EMPTY_SIGNATURE, Signature
from ..logic.syntax import (
    And,
    Atom,
    BOTTOM,
    Bottom,
    Eq,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    TOP,
    Top,
    bind_slots,
    make_and,
    make_or,
)
from ..logic.terms import Const, Param, Term, Var
from ..transactions.base import TransactionError
from ..transactions.fo_transactions import DeleteWhere, FOProgram, InsertTuple
from .prerelations import PrerelationSpec
from .wpc import WpcCalculator, WpcError, weakest_precondition

__all__ = [
    "equivalent_under",
    "DenialForm",
    "denial_form",
    "holds_after_update",
    "program_shape",
    "slotted_program",
    "derived_guard",
    "shape_guard",
    "bind_slots",
]


def equivalent_under(
    invariant: Formula,
    left: Formula,
    right: Formula,
    databases: Iterable[Database],
    signature: Signature = EMPTY_SIGNATURE,
) -> bool:
    """Does ``invariant |= (left <-> right)`` hold on every listed database?"""
    for db in databases:
        if not evaluate(invariant, db, signature=signature):
            continue
        if evaluate(left, db, signature=signature) != evaluate(right, db, signature=signature):
            return False
    return True


# ---------------------------------------------------------------------------
# run-time checks at the touched tuples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DenialForm:
    """A universal constraint read as ``forall x̄ . ~(A1 & ... & Ak & C)``.

    ``atoms`` are the relation atoms ``Ai`` of the violation conjunction and
    ``conditions`` its equalities and negated equalities.  Every variable
    occurs in some atom, so a violation is one row per atom (plus the
    conditions), and one that uses no inserted row was a violation before
    the update: under the constraint, the :meth:`instances` at the inserted
    rows decide the post-state exactly.
    """

    atoms: Tuple[Atom, ...]
    conditions: Tuple[Formula, ...]

    def instances(self, delta: Delta) -> Iterator[Formula]:
        """Sentences true on the post-state iff a violation uses an inserted row.

        One per atom ``Ai`` and row of ``delta.inserted[Ai.relation]`` that
        unifies with it (constants match, a repeated variable meets one
        value): ``exists rest . σ(the other literals)`` for the unifier
        ``σ``.  A ground (in)equality is decided here — a false one drops the
        instance, a true one drops out of it — and instances that differ
        only in the names of their variables are yielded once (the three
        atoms of ``no-triangles`` give one instance per inserted edge).
        Deleted rows give none.
        """
        return self._instances(delta.inserted, keep_matched=False)

    def _instances(
        self, inserted: Mapping[str, Iterable[Tuple[object, ...]]], keep_matched: bool
    ) -> Iterator[Formula]:
        """:meth:`instances` at ``inserted``, whose rows may hold :class:`Param`
        slots: a slot meets a constant of the constraint through an equality
        the instance keeps.  ``keep_matched`` keeps the row itself in the
        instance, so that one a later statement deletes is judged exactly."""
        seen = set()
        for index, atom in enumerate(self.atoms):
            rows = inserted.get(atom.relation)
            if not rows:
                continue
            rest = self.atoms[:index] + self.atoms[index + 1:] + self.conditions
            for row in rows:
                unified = _unify(atom, row)
                if unified is None:
                    continue
                binding, equalities = unified
                if keep_matched:
                    equalities += (Atom(atom.relation, *row),)
                instance = _instantiate(rest + equalities, binding)
                if instance is not None and instance not in seen:
                    seen.add(instance)
                    yield instance


def denial_form(constraint: object) -> Optional[DenialForm]:
    """``constraint`` as a :class:`DenialForm`, or ``None`` outside the fragment.

    The fragment: after the ``forall`` prefix, a disjunction of negated
    relation atoms and (in)equalities over variables and constants, whose
    variables are exactly the quantified ones and each occur in some atom —
    ``no-loops``, ``no-triangles``, antisymmetry,
    ``(E(x, y) & E(y, x)) -> x = y``.  Outside it: existential, counting and
    interpreted parts, a relation atom the violation needs *absent* (a
    deletion could complete it), a variable ranging over the whole domain,
    and objects that are not formulas.  Derived once per formula.
    """
    if not isinstance(constraint, Formula):
        return None
    return _denial_form(constraint)


@lru_cache(maxsize=256)
def _denial_form(formula: Formula) -> Optional[DenialForm]:
    quantified = set()
    body = formula
    while isinstance(body, Forall):
        quantified.add(body.variable)
        body = body.body
    literals: List[Formula] = []
    if not _violation_literals(body, False, literals):
        return None
    terms = [term for literal in literals for term in _terms_of(literal)]
    if any(type(term) not in (Var, Const) for term in terms):
        return None
    atoms = tuple(literal for literal in literals if isinstance(literal, Atom))
    conditions = tuple(literal for literal in literals if not isinstance(literal, Atom))
    in_atoms = {term.name for atom in atoms for term in atom.terms if type(term) is Var}
    if in_atoms != quantified or not all(
        condition.free_variables() <= in_atoms for condition in conditions
    ):
        return None
    return DenialForm(atoms, conditions)


def _violation_literals(formula: Formula, positive: bool, out: List[Formula]) -> bool:
    """Append the literals of ``formula`` (of its negation unless ``positive``)
    read as a conjunction; ``False`` when it is not a conjunction of relation
    atoms and (in)equalities."""
    if isinstance(formula, Not):
        return _violation_literals(formula.body, not positive, out)
    if isinstance(formula, (And, Or)) and (
        len(formula.parts) == 1 or isinstance(formula, And) == positive
    ):
        return all(_violation_literals(part, positive, out) for part in formula.parts)
    if isinstance(formula, Implies) and not positive:
        return _violation_literals(formula.premise, True, out) and _violation_literals(
            formula.conclusion, False, out
        )
    if isinstance(formula, Top if positive else Bottom):
        return True
    if isinstance(formula, Atom) and positive:
        out.append(formula)
        return True
    if isinstance(formula, Eq):
        out.append(formula if positive else Not(formula))
        return True
    return False


def _terms_of(literal: Formula) -> Tuple[Term, ...]:
    """The argument terms of a relation atom or an (in)equality, in order."""
    core = literal.body if isinstance(literal, Not) else literal
    if isinstance(core, Atom):
        return core.terms
    return (core.left, core.right)


def _unify(
    atom: Atom, row: Tuple[object, ...]
) -> Optional[Tuple[Dict[str, object], Tuple[Formula, ...]]]:
    """The assignment under which ``atom`` reads ``row``, if there is one,
    with the equalities a :class:`Param` cell owes a constant of ``atom``."""
    if len(row) != len(atom.terms):
        return None
    binding: Dict[str, object] = {}
    equalities: Tuple[Formula, ...] = ()
    for term, value in zip(atom.terms, row):
        if type(term) is Const:
            if type(value) is Param:
                equalities += (Eq(value, term),)
            elif term.value != value:
                return None
        elif binding.setdefault(term.name, value) != value:
            return None
    return binding, equalities


def _ground_equality(core: Eq) -> Optional[bool]:
    """The truth of an equality between constants or slots, when it is known:
    distinct slots denote distinct values; a slot and a constant may meet."""
    left, right = type(core.left), type(core.right)
    if left not in (Const, Param) or right not in (Const, Param):
        return None
    if left is not right:
        return None
    return core.left == core.right


def _instantiate(
    literals: Sequence[Formula], binding: Dict[str, object]
) -> Optional[Formula]:
    """``exists rest . σ(literals)``, or ``None`` when a ground (in)equality
    refutes it; the remaining variables are renamed in a canonical order so
    that instances equal up to their names compare equal."""
    mapping = {
        name: value if type(value) is Param else Const(value)
        for name, value in binding.items()
    }
    kept: List[Formula] = []
    for literal in literals:
        literal = literal.substitute(mapping)
        core = literal.body if isinstance(literal, Not) else literal
        truth = _ground_equality(core) if isinstance(core, Eq) else None
        if truth is not None:
            if truth != (core is literal):
                return None
            continue
        kept.append(literal)
    kept.sort(key=_literal_key)
    renaming: Dict[str, Term] = {}
    for literal in kept:
        for term in _terms_of(literal):
            if type(term) is Var and term.name not in renaming:
                renaming[term.name] = Var(f"_v{len(renaming)}")
    instance = make_and(*(literal.substitute(renaming) for literal in kept))
    for variable in reversed(list(renaming.values())):
        instance = Exists(variable.name, instance)
    return instance


def _literal_key(literal: Formula) -> Tuple[object, ...]:
    """A sort key for literals that ignores the names of their variables."""
    core = literal.body if isinstance(literal, Not) else literal
    return (
        core is not literal,
        core.relation if isinstance(core, Atom) else "=",
        tuple(_term_key(term) for term in _terms_of(core)),
    )


def _term_key(term: Term) -> str:
    """A constant by its value, a slot by its number, a variable as blank."""
    if type(term) is Const:
        return repr(term.value)
    return str(term) if type(term) is Param else ""


def holds_after_update(
    constraint,
    post: Database,
    delta: Optional[Delta],
    signature: Signature = EMPTY_SIGNATURE,
) -> Tuple[bool, bool]:
    """Does ``constraint`` hold on ``post``?  Returns ``(holds, full)``.

    ``delta`` is the exact update that turned a pre-state known to satisfy
    the constraint into ``post``, or ``None`` when no such pre-state is
    known.  With a delta, a constraint in denial form is decided by its
    :meth:`~DenialForm.instances` at the inserted rows, stopping at the
    first that holds: exact under that assumption.  The instances are
    derived once per (form, relation, equality pattern of the row) over
    :class:`Param` slots, and each inserted row runs them through the
    backend's prepared door (``holds_prepared``) with its own distinct
    values: no formula is built per row, no engine state is kept, and each
    instance is a plan whose slots probe the relations' indexes — O(|delta|)
    probes whatever the size of the database, nothing for a deletion.
    Otherwise — no delta, or no denial form — the whole constraint is
    evaluated on ``post`` (``constraint.holds``) and ``full`` is ``True``.
    ``constraint`` is a :class:`~repro.core.maintenance.Constraint`:
    anything with a ``formula`` and ``holds(db, signature)``.
    """
    form = denial_form(constraint.formula) if delta is not None else None
    if form is None:
        return constraint.holds(post, signature), True
    backend = active_backend()
    seen = set()
    for relation, rows in delta.inserted.items():
        for row in rows:
            slots: Dict[object, int] = {}
            pattern = tuple([slots.setdefault(value, len(slots)) for value in row])
            values = tuple(slots)
            for instance in _slotted_instances(form, relation, pattern):
                if (instance, values) in seen:
                    continue
                seen.add((instance, values))
                if backend.holds_prepared(instance, post, values, signature):
                    return False, False
    return True, False


@lru_cache(maxsize=1024)
def _slotted_instances(
    form: DenialForm, relation: str, pattern: Tuple[int, ...]
) -> Tuple[Formula, ...]:
    """``form``'s instances at a row of ``relation`` whose cells hold the
    slots ``pattern`` (equal values share a slot, distinct slots hold
    distinct values)."""
    row = tuple(Param(index) for index in pattern)
    return tuple(form._instances({relation: (row,)}, keep_matched=False))


# ---------------------------------------------------------------------------
# pre-state guards, derived once per program shape
# ---------------------------------------------------------------------------


def program_shape(program: object) -> Optional[Tuple[Tuple[object, ...], Tuple[object, ...]]]:
    """``(key, values)``: ``program``'s shape and the constants it is of.

    ``values`` lists the program's distinct constants in first-occurrence
    order, numbered the way :meth:`Formula.shape` numbers a formula's (equal
    values share a slot, distinct slots are distinct values).  ``key`` is
    flat and builds no formula: the schema, then per :class:`InsertTuple`
    its relation and the slot of each term, per :class:`DeleteWhere` its
    relation, variables, the condition's shape key and the slot of each of
    the condition's constants.  Programs with equal keys are one
    :func:`slotted_program` over their own ``values``.  ``None`` outside the
    fragment :func:`derived_guard` covers: an :class:`FOProgram` of
    :class:`InsertTuple` statements over constants and :class:`DeleteWhere`
    statements without interpreted symbols.
    """
    if type(program) is not FOProgram:
        return None
    slots: Dict[object, int] = {}
    key: List[object] = [program.schema]
    for statement in program.statements:
        if type(statement) is InsertTuple:
            terms = statement.terms
            if any(type(term) is not Const for term in terms):
                return None
            key.append(
                (statement.relation,
                 tuple([slots.setdefault(term.value, len(slots)) for term in terms]))
            )
        elif type(statement) is DeleteWhere:
            condition = statement.condition
            if condition.interpreted_symbols():
                return None
            local, constants = condition.shape()
            if any(type(token) is Param for token in local):
                return None
            key.append(
                (statement.relation, statement.variables, local,
                 tuple([slots.setdefault(value, len(slots)) for value in constants]))
            )
        else:
            return None
    return tuple(key), tuple(slots)


def slotted_program(program: FOProgram) -> FOProgram:
    """``program`` with :class:`Param` ``i`` where :func:`program_shape`'s
    ``values[i]`` stood: the shape itself, which its guards are over.
    Defined where :func:`program_shape` is not ``None``."""
    slots: Dict[object, Param] = {}

    def slot(term: Term) -> Term:
        if type(term) is Const:
            return slots.setdefault(term.value, Param(len(slots)))
        return term

    statements = [
        InsertTuple(statement.relation, *map(slot, statement.terms))
        if type(statement) is InsertTuple
        else DeleteWhere(statement.relation, statement.variables, statement.condition.map_terms(slot))
        for statement in program.statements
    ]
    return FOProgram(statements, schema=program.schema, signature=program.signature)


#: (program shape, constraint) -> the shape's derived guard, or ``None``
_DERIVED: Dict[Tuple[object, Formula], Optional[Formula]] = {}
_DERIVED_SIZE = 1024
_DERIVED_LOCK = threading.Lock()


def derived_guard(
    program: object, constraint: object
) -> Optional[Tuple[Formula, Tuple[object, ...]]]:
    """The closing remark's ``Delta`` for ``program`` and ``constraint``.

    Returns ``(guard, values)``: a sentence over the :class:`Param` slots of
    :func:`program_shape` with ``alpha |= (Delta <-> wpc(T, alpha))`` for
    every instance of the shape, and this program's slot values (a
    backend's ``holds_prepared(guard, db, values)`` checks it).  ``None``
    outside the fragment — a program :func:`program_shape` rejects, a
    constraint without a :func:`denial_form`.

    The construction: on a pre-state satisfying ``alpha`` every violation on
    the post-state uses a row the program inserted, so the post-state
    satisfies ``alpha`` iff no :meth:`DenialForm.instances` at those rows
    holds there — each kept with the atom that matched the row, so a row a
    later statement deletes is judged exactly.  Each instance is pulled back
    through the program by :class:`WpcCalculator`; ``Delta`` is the
    conjunction of their negations, folded.  A program that only deletes
    gets ``true``.  Derived from the :func:`slotted_program` the first time
    a (shape, constraint) is seen, and remembered under the flat key.
    """
    shape = program_shape(program)
    if shape is None or denial_form(constraint) is None:
        return None
    key, values = shape
    try:
        guard = _DERIVED[key, constraint]
    except KeyError:
        guard = _derive(slotted_program(program), constraint)
        with _DERIVED_LOCK:
            if len(_DERIVED) >= _DERIVED_SIZE:
                del _DERIVED[next(iter(_DERIVED))]
            _DERIVED[key, constraint] = guard
    return None if guard is None else (guard, values)


def shape_guard(
    program: object, constraint: Formula
) -> Tuple[str, Formula, Tuple[object, ...]]:
    """``(source, guard, values)``: the pre-state guard of ``program``'s shape.

    Inside :func:`derived_guard`'s fragment the guard is its ``Delta``
    (``source`` ``"derived"``); otherwise it is the mechanical ``wpc`` of the
    :func:`slotted_program`, or of the program itself when it has no shape
    (``"wpc"``, no ``values``).  Either way it holds for every instance of
    the shape, and the guard with ``values`` in its slots is this program's
    guard.  Raises :class:`WpcError` (or ``FormulaError``) when no ``wpc``
    can be built.
    """
    derived = derived_guard(program, constraint)
    if derived is not None:
        return ("derived",) + derived
    shape = program_shape(program)
    if shape is None:
        return "wpc", weakest_precondition(program, constraint), ()
    return "wpc", weakest_precondition(slotted_program(program), constraint), shape[1]


def _derive(slotted: FOProgram, constraint: Formula) -> Optional[Formula]:
    inserted: Dict[str, Dict[Tuple[Term, ...], None]] = {}
    for statement in slotted.statements:
        if type(statement) is InsertTuple:
            inserted.setdefault(statement.relation, {})[statement.terms] = None
    instances = list(denial_form(constraint)._instances(inserted, keep_matched=True))
    if not instances:
        return TOP
    try:
        calculator = _InstanceWpc(PrerelationSpec.from_fo_program(slotted))
        pulled = [calculator.wpc(instance) for instance in instances]
    except (WpcError, TransactionError):
        return None
    return syntactic_simplify(
        make_and(*(Not(_drop_covered(_fold_slots(part))) for part in pulled)),
        nonempty_domain=False,
    )


class _InstanceWpc(WpcCalculator):
    """Theorem 8's ``wpc`` for the instances of :func:`derived_guard`.

    Over a program of tuple inserts and deletions a relation's prerelation
    already holds exactly at the post-state's rows, and every variable of an
    instance occurs in one of its relation atoms, so a witness the instance
    finds lies in the post-state's domain by itself: the calculator's
    ``Gamma``-membership and post-state activity guards are ``true`` there,
    and are left out.
    """

    def _in_gamma(self, term: Term) -> Formula:
        return TOP

    def _active_after(self, term: Term) -> Formula:
        return TOP


def _fold_slots(formula: Formula) -> Formula:
    """Decide the equalities between slots and fold the result."""

    def fold(node: Formula) -> Formula:
        if isinstance(node, Eq):
            truth = _ground_equality(node)
            return node if truth is None else TOP if truth else BOTTOM
        return node.map_children(fold)

    return syntactic_simplify(fold(formula), nonempty_domain=False)


def _drop_covered(formula: Formula) -> Formula:
    """Drop each disjunct that implies an existential sibling.

    The pull-back of ``exists v . phi`` lists ``phi`` at every inserted value
    next to ``exists v . phi`` over the pre-state's domain; where ``v``
    occurs in a relation atom of ``phi``, a value that satisfies ``phi`` is
    in that domain, so a disjunct holding ``phi[v := c]`` among its
    conjuncts adds nothing.
    """
    formula = formula.map_children(_drop_covered)
    if not isinstance(formula, Or):
        return formula
    witnessed = [
        (part.variable, _conjuncts(part.body))
        for part in formula.parts
        if isinstance(part, Exists)
        and any(
            isinstance(literal, Atom) and Var(part.variable) in literal.terms
            for literal in _conjuncts(part.body)
        )
    ]
    if not witnessed:
        return formula
    kept = [
        part
        for part in formula.parts
        if not any(_covers(variable, body, part) for variable, body in witnessed)
    ]
    return make_or(*kept)


def _conjuncts(formula: Formula) -> Tuple[Formula, ...]:
    return formula.parts if isinstance(formula, And) else (formula,)


def _covers(variable: str, body: Tuple[Formula, ...], part: Formula) -> bool:
    """Does ``part`` hold ``body[variable := c]`` among its conjuncts for some
    constant or slot ``c`` it mentions?"""
    held = set(_conjuncts(part))
    candidates = {
        term
        for atom in part.atoms()
        for term in atom.terms
        if type(term) in (Const, Param)
    }
    return any(
        all(literal.substitute({variable: term}) in held for literal in body)
        for term in candidates
    )
