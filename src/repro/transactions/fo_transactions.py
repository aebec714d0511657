"""The first-order (Qian-style) transaction language.

This is the reproduction of the transaction language of Qian [32, 33] that the
paper repeatedly refers to as the archetypal *verifiable* language: its
transactions admit prerelations over ``FOc(Omega)`` and therefore weakest
preconditions (Theorem 8), and by Theorem E no robustly verifiable language
can be more expressive.

A program is a sequence of non-iterative update statements:

* ``InsertTuple(R, terms)`` — insert one tuple of terms (constants or
  interpreted terms over the *old* state's values are allowed; variables are
  not, since a single tuple is inserted),
* ``InsertWhere(R, vars, condition)`` — insert every tuple of old-state values
  satisfying ``condition``,
* ``DeleteWhere(R, vars, condition)`` — delete every tuple satisfying
  ``condition``,
* ``SetRelation(R, vars, definition)`` — replace ``R`` wholesale by the set of
  tuples satisfying ``definition``,
* ``Conditional(test, then_program, else_program)`` — branch on a sentence.

Conditions refer to the *current* (symbolic) state, so later statements see the
effects of earlier ones; the compiler keeps, for every relation, a defining
formula over the *original* database plus the set ``Gamma`` of terms that may
extend the active domain.  The compiled form is exactly a prerelation
specification, which :mod:`repro.core.prerelations` wraps as a transaction and
:mod:`repro.core.wpc` turns into weakest preconditions.

Programs can also be executed directly (operationally) against a database.
The operational semantics fixes the *domain of discourse* when the transaction
begins: conditions quantify over the active domain of the input database, and
bulk statements range over that domain plus any constants inserted by earlier
``InsertTuple`` statements (the accumulating ``Gamma`` set).  This is exactly
the prerelation semantics of the paper, so direct execution and the compiled
form agree on every program and database — a property the test suite checks
both on hand-written programs and on hypothesis-generated random ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..db.database import Database
from ..db.delta import Delta
from ..db.schema import GRAPH_SCHEMA, Schema
from ..logic.evaluation import Model
from ..logic.rewrite import AtomDefinition, substitute_atoms
from ..logic.signature import EMPTY_SIGNATURE, Signature
from ..logic.syntax import Atom, Eq, Exists, Formula, FormulaError, Not, make_and, make_or
from ..logic.terms import Const, Term, Var
from .base import Transaction, TransactionError

__all__ = [
    "ExecutionContext",
    "Statement",
    "InsertTuple",
    "InsertWhere",
    "DeleteWhere",
    "SetRelation",
    "Conditional",
    "FOProgram",
    "CompiledProgram",
]


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------

@dataclass
class ExecutionContext:
    """Threaded state of the operational semantics.

    ``base_domain`` is the active domain of the database the transaction
    started on (the quantification domain for every condition); ``gamma_values``
    additionally contains the constants inserted so far, and is the set bulk
    statements draw candidate tuples from — the operational counterpart of the
    prerelation set ``Gamma(D)``.
    """

    database: Database
    signature: Signature
    base_domain: frozenset
    gamma_values: frozenset

    def model(self) -> Model:
        return Model(self.database, self.signature, domain=self.base_domain)

    def with_database(self, database: Database) -> "ExecutionContext":
        return ExecutionContext(database, self.signature, self.base_domain, self.gamma_values)

    def with_constants(self, values) -> "ExecutionContext":
        return ExecutionContext(
            self.database, self.signature, self.base_domain,
            self.gamma_values | frozenset(values),
        )

    def satisfying_candidates(self, condition: Formula, variables: Sequence[str]):
        """All candidate tuples over ``Gamma`` satisfying ``condition``, set-at-a-time.

        Quantifiers in ``condition`` range over ``base_domain`` (the paper's
        semantics); candidate tuples range over ``gamma_values``.  The bulk of
        the candidates — those drawn entirely from the base domain — are
        produced by one compiled-plan execution (the condition's extension);
        only tuples touching constants inserted by earlier statements (usually
        none, always few) are checked tuple-at-a-time.
        """
        from ..engine.backend import active_backend

        variables = tuple(variables)
        rows = set(
            active_backend().extension(
                condition, self.database, variables, self.signature, self.base_domain
            )
        )
        extra = self.gamma_values - self.base_domain
        if extra:
            import itertools

            model = self.model()
            ordered = sorted(self.gamma_values, key=repr)
            base = self.base_domain
            for candidate in itertools.product(ordered, repeat=len(variables)):
                if all(value in base for value in candidate):
                    continue  # already decided by the extension
                if model.check(condition, dict(zip(variables, candidate))):
                    rows.add(candidate)
        return rows

    def condition_extension(self, condition: Formula, variables: Sequence[str]):
        """The condition's extension over the base domain (one plan execution)."""
        from ..engine.backend import active_backend

        return active_backend().extension(
            condition, self.database, tuple(variables), self.signature, self.base_domain
        )


class Statement:
    """Base class of program statements."""

    def applied_to(self, state: "SymbolicState") -> "SymbolicState":  # pragma: no cover
        raise NotImplementedError

    def execute(self, context: ExecutionContext) -> ExecutionContext:  # pragma: no cover
        raise NotImplementedError


@dataclass(frozen=True)
class InsertTuple(Statement):
    """Insert the single tuple ``terms`` (ground terms) into relation ``relation``."""

    relation: str
    terms: Tuple[Term, ...]

    def __init__(self, relation: str, *terms: object):
        coerced = tuple(t if isinstance(t, Term) else Const(t) for t in terms)
        for term in coerced:
            if term.free_variables():
                raise FormulaError(
                    "InsertTuple takes ground terms; use InsertWhere for bulk inserts"
                )
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "terms", coerced)

    def applied_to(self, state: "SymbolicState") -> "SymbolicState":
        definition = state.definitions[self.relation]
        variables = definition.variables
        if len(self.terms) != len(variables):
            raise TransactionError(
                f"InsertTuple into {self.relation!r}: arity mismatch"
            )
        equalities = [Eq(Var(v), t) for v, t in zip(variables, self.terms)]
        new_body = make_or(definition.body, make_and(*equalities))
        return state.replace(self.relation, new_body, extra_terms=self.terms)

    def execute(self, context: ExecutionContext) -> ExecutionContext:
        from ..logic.terms import evaluate_term

        values = tuple(
            evaluate_term(t, {}, context.signature.functions_mapping()) for t in self.terms
        )
        updated = context.with_constants(values)
        return updated.with_database(context.database.insert(self.relation, values))


@dataclass(frozen=True)
class InsertWhere(Statement):
    """Insert every tuple of current-state values satisfying ``condition``."""

    relation: str
    variables: Tuple[str, ...]
    condition: Formula

    def __init__(self, relation: str, variables: Sequence[str], condition: Formula):
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "variables", tuple(variables))
        object.__setattr__(self, "condition", condition)

    def applied_to(self, state: "SymbolicState") -> "SymbolicState":
        definition = state.definitions[self.relation]
        condition = state.rebase(self.condition)
        condition = _rename_to(definition.variables, self.variables, condition)
        # inserted tuples range over the Gamma available at this point, so the
        # compiled clause is guarded by domain membership of the tuple variables
        guards = [state.domain_guard(name) for name in definition.variables]
        new_body = make_or(definition.body, make_and(condition, *guards))
        return state.replace(self.relation, new_body)

    def execute(self, context: ExecutionContext) -> ExecutionContext:
        rows = context.satisfying_candidates(self.condition, self.variables)
        if not rows:
            return context
        # one bulk delta: the successor database shares everything untouched
        # and carries the provenance apply_with_delta recovers the net effect from
        database = context.database.apply_delta(Delta(inserted={self.relation: rows}))
        return context.with_database(database)


@dataclass(frozen=True)
class DeleteWhere(Statement):
    """Delete every tuple of the relation satisfying ``condition``.

    A row binds the variables like ``zip(variables, row)``: variables past
    the arity never bind, columns past the variable list are unconstrained,
    and a repeated variable takes its last column.  Execution costs
    O(matches) where the condition binds columns to constants — the doomed
    rows are one prepared plan's extension, probing the relation's index —
    plus O(rows carrying constants inserted earlier in the program).
    """

    relation: str
    variables: Tuple[str, ...]
    condition: Formula

    def __init__(self, relation: str, variables: Sequence[str], condition: Formula):
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "variables", tuple(variables))
        object.__setattr__(self, "condition", condition)

    def applied_to(self, state: "SymbolicState") -> "SymbolicState":
        definition = state.definitions[self.relation]
        condition = state.rebase(self.condition)
        condition = _rename_to(definition.variables, self.variables, condition)
        new_body = make_and(definition.body, Not(condition))
        return state.replace(self.relation, new_body)

    def execute(self, context: ExecutionContext) -> ExecutionContext:
        # rows over the base domain: the extension of R(c1, ..., cn) &
        # condition, where a column past the variable list, or bound by a
        # later occurrence of its variable, gets a name of its own; rows
        # carrying inserted constants: R's column indexes and the interpreter
        database = context.database
        arity = database.schema[self.relation].arity
        bound = self.variables[:arity]
        columns = tuple(
            name if name not in bound[position + 1:] else f"_row{position}"
            for position, name in enumerate(bound)
        ) + tuple(f"_row{position}" for position in range(len(bound), arity))
        atom = Atom(self.relation, *map(Var, columns))
        doomed = context.condition_extension(make_and(atom, self.condition), columns)
        fresh = context.gamma_values - context.base_domain
        if fresh:
            model = context.model()
            for position in range(arity):
                index = database.index(self.relation, position)
                for value in fresh:
                    for row in index.get((value,), ()):
                        if model.check(self.condition, dict(zip(self.variables, row))):
                            doomed.add(row)
        if not doomed:
            return context
        return context.with_database(
            database.apply_delta(Delta(deleted={self.relation: doomed}))
        )


@dataclass(frozen=True)
class SetRelation(Statement):
    """Replace ``relation`` by the set of tuples satisfying ``definition``."""

    relation: str
    variables: Tuple[str, ...]
    definition: Formula

    def __init__(self, relation: str, variables: Sequence[str], definition: Formula):
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "variables", tuple(variables))
        object.__setattr__(self, "definition", definition)

    def applied_to(self, state: "SymbolicState") -> "SymbolicState":
        definition = state.definitions[self.relation]
        rebased = state.rebase(self.definition)
        rebased = _rename_to(definition.variables, self.variables, rebased)
        guards = [state.domain_guard(name) for name in definition.variables]
        return state.replace(self.relation, make_and(rebased, *guards))

    def execute(self, context: ExecutionContext) -> ExecutionContext:
        rows = context.satisfying_candidates(self.definition, self.variables)
        return context.with_database(
            context.database.with_relation(self.relation, rows)
        )


@dataclass(frozen=True)
class Conditional(Statement):
    """``if test then P1 else P2`` where ``test`` is a sentence about the current state."""

    test: Formula
    then_branch: Tuple[Statement, ...]
    else_branch: Tuple[Statement, ...]

    def __init__(
        self,
        test: Formula,
        then_branch: Sequence[Statement],
        else_branch: Sequence[Statement] = (),
    ):
        if not test.is_sentence():
            raise FormulaError("the test of a Conditional must be a sentence")
        object.__setattr__(self, "test", test)
        object.__setattr__(self, "then_branch", tuple(then_branch))
        object.__setattr__(self, "else_branch", tuple(else_branch))

    def applied_to(self, state: "SymbolicState") -> "SymbolicState":
        test = state.rebase(self.test)
        then_state = state
        for statement in self.then_branch:
            then_state = statement.applied_to(then_state)
        else_state = state
        for statement in self.else_branch:
            else_state = statement.applied_to(else_state)
        merged_definitions: Dict[str, AtomDefinition] = {}
        for name, base_definition in state.definitions.items():
            variables = base_definition.variables
            then_body = then_state.definitions[name].body
            else_body = else_state.definitions[name].body
            merged_definitions[name] = AtomDefinition(
                variables,
                make_or(make_and(test, then_body), make_and(Not(test), else_body)),
            )
        gamma = tuple(dict.fromkeys(then_state.gamma + else_state.gamma))
        return SymbolicState(state.schema, merged_definitions, gamma, state.signature)

    def execute(self, context: ExecutionContext) -> ExecutionContext:
        from ..engine.backend import active_backend

        test_holds = active_backend().evaluate(
            self.test, context.database, signature=context.signature,
            domain=context.base_domain,
        )
        branch = self.then_branch if test_holds else self.else_branch
        current = context
        for statement in branch:
            current = statement.execute(current)
        return current


def _rename_to(
    target_variables: Sequence[str], source_variables: Sequence[str], formula: Formula
) -> Formula:
    """Rename the free variables of ``formula`` from ``source`` to ``target`` order."""
    if len(target_variables) != len(source_variables):
        raise TransactionError("variable list arity mismatch")
    if tuple(target_variables) == tuple(source_variables):
        return formula
    mapping = {s: Var(t) for s, t in zip(source_variables, target_variables)}
    return formula.substitute(mapping)


# ---------------------------------------------------------------------------
# symbolic state and compiled programs
# ---------------------------------------------------------------------------

class SymbolicState:
    """For each relation, a defining formula over the *original* database.

    ``gamma`` collects the terms that may introduce new domain elements
    (the ``Gamma`` of the prerelation definition); it always contains a plain
    variable so that the original active domain is included.
    """

    def __init__(
        self,
        schema: Schema,
        definitions: Mapping[str, AtomDefinition],
        gamma: Tuple[Term, ...],
        signature: Signature,
    ):
        self.schema = schema
        self.definitions = dict(definitions)
        self.gamma = gamma
        self.signature = signature

    @classmethod
    def initial(cls, schema: Schema, signature: Signature) -> "SymbolicState":
        definitions = {}
        for rel in schema:
            variables = [f"x{i + 1}" for i in range(rel.arity)]
            definitions[rel.name] = AtomDefinition(
                variables, Atom(rel.name, *[Var(v) for v in variables])
            )
        return cls(schema, definitions, (Var("u"),), signature)

    def rebase(self, formula: Formula) -> Formula:
        """Rewrite a formula about the current state into one about the original state."""
        return substitute_atoms(formula, self.definitions)

    def domain_guard(self, variable: str) -> Formula:
        """A formula stating that ``variable`` is in the Gamma available *now*.

        "Now" means: the active domain of the original database, or one of the
        constants inserted by the statements compiled so far.  Membership in
        the original active domain is expressed schema-generically as
        "the value occurs in some position of some original relation".
        """
        disjuncts = []
        for rel in self.schema:
            other_names = [f"_dom{i}" for i in range(rel.arity)]
            for position in range(rel.arity):
                arguments = [
                    Var(variable) if i == position else Var(other_names[i])
                    for i in range(rel.arity)
                ]
                atom: Formula = Atom(rel.name, *arguments)
                for i, name in enumerate(other_names):
                    if i != position:
                        atom = Exists(name, atom)
                disjuncts.append(atom)
        for term in self.gamma:
            if not term.free_variables():
                disjuncts.append(Eq(Var(variable), term))
        return make_or(*disjuncts)

    def replace(
        self,
        relation: str,
        new_body: Formula,
        extra_terms: Iterable[Term] = (),
    ) -> "SymbolicState":
        definitions = dict(self.definitions)
        definitions[relation] = AtomDefinition(
            self.definitions[relation].variables, new_body
        )
        gamma = list(self.gamma)
        for term in extra_terms:
            if term not in gamma:
                gamma.append(term)
        return SymbolicState(self.schema, definitions, tuple(gamma), self.signature)


@dataclass
class CompiledProgram:
    """The prerelation-shaped result of compiling an :class:`FOProgram`.

    ``gamma`` is the term set ``Gamma`` and ``definitions`` maps each relation
    to the formula defining its post-state contents over the original database.
    """

    schema: Schema
    gamma: Tuple[Term, ...]
    definitions: Dict[str, AtomDefinition]
    signature: Signature


class FOProgram(Transaction):
    """A sequence of statements forming one Qian-style transaction."""

    def __init__(
        self,
        statements: Sequence[Statement],
        schema: Schema = GRAPH_SCHEMA,
        signature: Signature = EMPTY_SIGNATURE,
        name: str = "fo-program",
    ):
        self.statements = tuple(statements)
        self.schema = schema
        self.signature = signature
        self.name = name

    # -- operational semantics ------------------------------------------------

    def apply(self, db: Database) -> Database:
        if db.schema != self.schema:
            raise TransactionError(f"program {self.name!r} expects schema {self.schema!r}")
        context = ExecutionContext(
            db, self.signature, db.active_domain, frozenset(db.active_domain)
        )
        for statement in self.statements:
            context = statement.execute(context)
        return context.database

    def apply_with_delta(self, db: Database) -> Tuple[Database, Delta]:
        """Run the program and also return its *net* effect as a delta.

        The delta is recovered from the post-state's ``apply_delta``
        provenance (every statement routes its writes through deltas), so no
        relation is diffed row by row unless the provenance chain was broken
        by garbage collection — then :meth:`Delta.from_databases` is the
        fallback.
        """
        post = self.apply(db)
        delta = Delta.between(db, post)
        if delta is None:
            delta = Delta.from_databases(db, post)
        return post, delta

    # -- compilation to prerelations -------------------------------------------

    def compile(self) -> CompiledProgram:
        """Compile to a prerelation specification (Gamma + defining formulas)."""
        state = SymbolicState.initial(self.schema, self.signature)
        for statement in self.statements:
            state = statement.applied_to(state)
        return CompiledProgram(self.schema, state.gamma, dict(state.definitions), self.signature)

    def __repr__(self) -> str:
        return f"FOProgram({self.name!r}, {len(self.statements)} statements)"
