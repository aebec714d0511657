"""Weakest preconditions.

For a transaction ``T`` and a constraint ``alpha``, a *weakest precondition*
``wpc(T, alpha)`` is a sentence with

    ``D |= wpc(T, alpha)``   iff   ``T(D) |= alpha``       (for every database D).

Once a weakest precondition is available, the unsafe transaction ``T`` can be
replaced by the safe guarded transaction ``if wpc(T, alpha) then T else abort``,
which preserves ``alpha`` by construction and never needs a run-time roll-back
— the paper's motivation and the strategy benchmarked in experiment E13.

This module implements

* :class:`WpcCalculator` — the substitution algorithm of Theorem 8 for
  transactions that admit prerelations over ``FOc(Omega)``.  The algorithm is
  purely syntactic: database atoms of the constraint are replaced by the
  prerelation formulas, and quantifiers are re-interpreted over the
  post-state's active domain by expanding them into ``Gamma``-term witnesses
  guarded by post-state activity.  It works uniformly for every extension of
  the signature, which is exactly the *robust verifiability* of
  ``PR(FOc(Omega))`` (Theorem E / Corollary 5).
* :func:`weakest_precondition` — convenience front-end accepting a
  :class:`~repro.core.prerelations.PrerelationSpec`, a compiled or source
  Qian-style :class:`~repro.transactions.fo_transactions.FOProgram`.
* :func:`check_wpc` / :func:`find_wpc_counterexample` — exhaustive validation
  of a claimed precondition on a family of databases (the executable content
  of the ``PR(L) ⊆ WPC(L)`` inclusion, used throughout the tests and benches).
* :class:`SemanticPrecondition` — the "oracle" form of a precondition
  (``T(D) |= alpha`` decided by running ``T``); it is what membership in
  ``WPC(L)`` *denies* being necessary, and serves as the baseline that the
  syntactic preconditions are compared against.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from ..db.database import Database
from ..logic.evaluation import Model, evaluate
from ..logic.normalform import simplify
from ..logic.rewrite import AtomDefinition
from ..logic.signature import EMPTY_SIGNATURE, Signature
from ..logic.syntax import (
    And,
    Atom,
    Bottom,
    CountingExists,
    Eq,
    Exists,
    Forall,
    Formula,
    FormulaError,
    Iff,
    Implies,
    InterpretedAtom,
    Not,
    Or,
    TOP,
    Top,
    make_and,
    make_or,
)
from ..logic.terms import Const, Term, Var
from ..transactions.base import Transaction
from ..transactions.fo_transactions import CompiledProgram, FOProgram
from .prerelations import PrerelationSpec, PrerelationTransaction

__all__ = [
    "WpcError",
    "WpcCalculator",
    "weakest_precondition",
    "SemanticPrecondition",
    "check_wpc",
    "find_wpc_counterexample",
    "check_wpc_stream",
    "find_wpc_counterexample_stream",
    "PreservationVerdict",
    "classify_preservation",
]


class WpcError(RuntimeError):
    """Raised when a weakest precondition cannot be constructed."""


class SemanticPrecondition:
    """The trivial, non-syntactic precondition: run ``T`` and check ``alpha``.

    Every (computable) transaction has this "precondition"; having a
    *syntactic* precondition in the specification language is the substantive
    property.  The semantic form is used as ground truth in validation and as
    the run-time-monitoring baseline of the integrity-maintenance benchmark.
    """

    def __init__(
        self,
        transaction: Transaction,
        constraint,
        signature: Signature = EMPTY_SIGNATURE,
    ):
        self.transaction = transaction
        self.constraint = constraint
        self.signature = signature

    def holds(self, db: Database) -> bool:
        post_state = self.transaction.apply(db)
        if isinstance(self.constraint, Formula):
            return evaluate(self.constraint, post_state, signature=self.signature)
        return self.constraint.holds(post_state)

    def __repr__(self) -> str:
        return f"SemanticPrecondition({self.transaction.name!r}, {self.constraint})"


class WpcCalculator:
    """The Theorem 8 weakest-precondition algorithm for prerelation transactions.

    Given a :class:`~repro.core.prerelations.PrerelationSpec`
    ``(Gamma, pre_1, ..., pre_k)``, the calculator transforms any ``FOc(Omega')``
    sentence ``gamma`` (over the database schema, possibly with constants and
    interpreted symbols from *any* extension ``Omega'``) into a sentence
    ``WPC[gamma]`` such that ``D |= WPC[gamma]`` iff ``T(D) |= gamma``.

    The transformation follows the paper's recursive definition:

    * a database atom ``R(t1, ..., tn)`` becomes
      ``(t1 in Gamma(D)) & ... & (tn in Gamma(D)) & pre_R(t1, ..., tn)``;
    * Boolean connectives are transformed componentwise;
    * a quantifier ``exists x . phi`` becomes a disjunction, over the terms
      ``tau in Gamma``, of ``exists y1 ... yk . active_after(tau(y)) &
      phi'[x := tau(y)]`` — the witnesses of the post-state are exactly the
      ``Gamma``-term values that occur in some post-state tuple;
      ``forall`` is the dual.

    ``active_after(t)`` ("``t`` occurs in some tuple of ``T(D)``") is itself
    expressed with the prerelation formulas, so the output stays inside
    ``FOc(Omega')`` — no new symbols are needed, which is what makes the
    construction robust under signature extension.
    """

    def __init__(self, spec: PrerelationSpec):
        self.spec = spec
        self._fresh_counter = 0
        self._wpc_memo: dict = {}

    # -- public API --------------------------------------------------------------

    def wpc(self, constraint: Formula) -> Formula:
        """The weakest precondition of a sentence, folded.

        The Theorem 8 output is run through the simplifier's
        domain-independent rules (ground equalities, ``true``/``false``
        propagation, duplicate parts — *not* the vacuous-quantifier foldings,
        which assume a non-empty domain), so the contract ``D |= wpc`` iff
        ``T(D) |= constraint`` holds on every database, the empty one
        included, and a transaction over concrete tuples gets a precondition
        a fraction of the mechanical size (an insert that can only violate
        the constraint folds to ``false`` outright).

        Memoised per constraint: the transformation is purely syntactic (it
        never looks at a signature extension or a database), so validation
        sweeps that revisit a constraint — the robustness check re-verifies
        every constraint under every extension — get the *same* formula
        object back, which keeps the query engine's formula-keyed caches
        hitting by identity instead of deep structural comparison.
        """
        if not isinstance(constraint, Formula):
            raise WpcError(
                "the substitution algorithm needs a syntactic Formula constraint; "
                "semantic sentences (FOcount parity, monadic Sigma-1-1) have no "
                "general precondition here — see Theorem 3"
            )
        cached = self._wpc_memo.get(constraint)
        if cached is not None:
            return cached
        if not constraint.is_sentence():
            raise WpcError("weakest preconditions are defined for sentences")
        unknown = constraint.relation_symbols() - set(self.spec.schema.relation_names)
        if unknown:
            raise WpcError(f"constraint mentions unknown relations {sorted(unknown)}")
        folded = simplify(self._transform(constraint), nonempty_domain=False)
        self._wpc_memo[constraint] = folded
        return folded

    def guarded_transaction(self, constraint: Formula) -> Transaction:
        """``if wpc(T, alpha) then T else abort`` for this specification's transaction."""
        transaction = self.spec.as_transaction()
        return transaction.guarded_by(self.wpc(constraint))

    # -- helpers ------------------------------------------------------------------

    def _fresh(self, base: str) -> str:
        # The leading underscore keeps generated names out of the way of the
        # variables a user would plausibly write in a constraint.
        self._fresh_counter += 1
        return f"_{base}{self._fresh_counter}"

    def _gamma_instances(self, base: str) -> List[Tuple[Term, List[str]]]:
        """For each Gamma term, a copy over fresh variables plus those variables."""
        instances = []
        for term in self.spec.gamma:
            variables = sorted(term.free_variables())
            fresh_names = [self._fresh(base) for _ in variables]
            renaming = {old: Var(new) for old, new in zip(variables, fresh_names)}
            instances.append((term.substitute(renaming), fresh_names))
        return instances

    def _in_gamma(self, term: Term) -> Formula:
        """``term`` denotes a value of ``Gamma(D)``."""
        disjuncts: List[Formula] = []
        for instance, variables in self._gamma_instances("g"):
            equality: Formula = Eq(term, instance)
            for variable in reversed(variables):
                equality = Exists(variable, equality)
            disjuncts.append(equality)
        return make_or(*disjuncts)

    def _active_after(self, term: Term) -> Formula:
        """``term`` occurs in some tuple of the post-state ``T(D)``."""
        disjuncts: List[Formula] = []
        for rel in self.spec.schema:
            definition = self.spec.definitions[rel.name]
            for position in range(rel.arity):
                for combination in self._argument_combinations(rel.arity, position):
                    arguments: List[Term] = []
                    quantified: List[str] = []
                    for slot, entry in enumerate(combination):
                        if slot == position:
                            arguments.append(term)
                        else:
                            instance, variables = entry
                            arguments.append(instance)
                            quantified.extend(variables)
                    body = definition.instantiate(arguments)
                    for variable in reversed(quantified):
                        body = Exists(variable, body)
                    disjuncts.append(body)
        return make_or(*disjuncts)

    def _argument_combinations(self, arity: int, fixed_position: int):
        """All ways to fill the non-fixed argument slots with Gamma-term instances."""
        slots = []
        for position in range(arity):
            if position == fixed_position:
                slots.append([None])
            else:
                slots.append(self._gamma_instances("a"))
        return itertools.product(*slots)

    # -- the recursive transformation ----------------------------------------------

    def _transform(self, formula: Formula) -> Formula:
        if isinstance(formula, (Top, Bottom, Eq, InterpretedAtom)):
            return formula
        if isinstance(formula, Atom):
            definition = self.spec.definitions[formula.relation]
            if len(formula.terms) != definition.arity:
                raise WpcError(
                    f"atom {formula} has arity {len(formula.terms)}, schema expects "
                    f"{definition.arity}"
                )
            membership = [self._in_gamma(term) for term in formula.terms]
            return make_and(*membership, definition.instantiate(formula.terms))
        if isinstance(formula, Not):
            return Not(self._transform(formula.body))
        if isinstance(formula, And):
            return make_and(*(self._transform(part) for part in formula.parts))
        if isinstance(formula, Or):
            return make_or(*(self._transform(part) for part in formula.parts))
        if isinstance(formula, Implies):
            return Implies(self._transform(formula.premise), self._transform(formula.conclusion))
        if isinstance(formula, Iff):
            return Iff(self._transform(formula.left), self._transform(formula.right))
        if isinstance(formula, Exists):
            return self._transform_exists(formula)
        if isinstance(formula, Forall):
            return self._transform_forall(formula)
        if isinstance(formula, CountingExists):
            return self._transform_counting(formula)
        raise WpcError(f"cannot transform formula of type {type(formula).__name__}")

    def _transform_exists(self, formula: Exists) -> Formula:
        body = self._transform(formula.body)
        disjuncts: List[Formula] = []
        for instance, variables in self._gamma_instances("w"):
            witness_body = make_and(
                self._active_after(instance),
                body.substitute({formula.variable: instance}),
            )
            for variable in reversed(variables):
                witness_body = Exists(variable, witness_body)
            disjuncts.append(witness_body)
        return make_or(*disjuncts)

    def _transform_forall(self, formula: Forall) -> Formula:
        body = self._transform(formula.body)
        conjuncts: List[Formula] = []
        for instance, variables in self._gamma_instances("w"):
            witness_body = Implies(
                self._active_after(instance),
                body.substitute({formula.variable: instance}),
            )
            for variable in reversed(variables):
                witness_body = Forall(variable, witness_body)
            conjuncts.append(witness_body)
        return make_and(*conjuncts)

    def _transform_counting(self, formula: CountingExists) -> Formula:
        """Counting quantifiers are supported only when Gamma does not extend the domain.

        With ``Gamma = {u}`` (a single variable term) distinct witnesses of the
        pre-state correspond one-to-one to distinct post-state values, so the
        counting quantifier translates directly.  With genuinely
        domain-extending ``Gamma`` the translation would need to count distinct
        *values* of terms, which is not expressible uniformly — the calculator
        refuses rather than produce a wrong precondition.
        """
        if len(self.spec.gamma) != 1 or not isinstance(self.spec.gamma[0], Var):
            raise WpcError(
                "counting quantifiers are only supported for prerelations whose "
                "Gamma is a single variable (non-domain-extending transactions)"
            )
        body = self._transform(formula.body)
        witness = Var(formula.variable)
        return CountingExists(
            formula.variable,
            formula.count,
            make_and(self._active_after(witness), body),
        )


# ---------------------------------------------------------------------------
# front-ends and validation
# ---------------------------------------------------------------------------

def weakest_precondition(
    transaction: Union[PrerelationSpec, CompiledProgram, FOProgram],
    constraint: Formula,
) -> Formula:
    """Compute ``wpc(T, constraint)`` for anything that admits prerelations.

    Accepts a prerelation specification, a compiled Qian-style program, or a
    source program (which is compiled on the fly).
    """
    if isinstance(transaction, PrerelationSpec):
        spec = transaction
    elif isinstance(transaction, CompiledProgram):
        spec = PrerelationSpec.from_compiled_program(transaction)
    elif isinstance(transaction, FOProgram):
        spec = PrerelationSpec.from_fo_program(transaction)
    else:
        raise WpcError(
            f"cannot compute a syntactic precondition for {type(transaction).__name__}; "
            "supply a PrerelationSpec (the transaction must admit prerelations)"
        )
    return WpcCalculator(spec).wpc(constraint)


def check_wpc(
    transaction: Transaction,
    constraint,
    precondition,
    databases: Iterable[Database],
    signature: Signature = EMPTY_SIGNATURE,
    backend=None,
) -> bool:
    """Is ``precondition`` a correct precondition of ``constraint`` on every database given?

    Both ``constraint`` and ``precondition`` may be formulas or semantic
    sentences (objects with ``holds``).
    """
    return find_wpc_counterexample(
        transaction, constraint, precondition, databases, signature, backend
    ) is None


def find_wpc_counterexample(
    transaction: Transaction,
    constraint,
    precondition,
    databases: Iterable[Database],
    signature: Signature = EMPTY_SIGNATURE,
    backend=None,
) -> Optional[Database]:
    """The first database where ``D |= precondition`` and ``T(D) |= constraint`` disagree.

    Evaluation goes through the query engine: the precondition and constraint
    are compiled to set-at-a-time plans once, then executed per database —
    this sweep is the repo's hottest validation loop.  ``backend`` overrides
    the process-wide active backend when given.
    """
    from .verification import holds

    for db in databases:
        before = holds(precondition, db, signature, backend)
        after = holds(constraint, transaction.apply(db), signature, backend)
        if before != after:
            return db
    return None


def check_wpc_stream(
    transaction: Transaction,
    constraint,
    precondition,
    initial: Database,
    deltas: Iterable,
    signature: Signature = EMPTY_SIGNATURE,
    backend=None,
) -> bool:
    """Is the precondition correct along a whole *update stream*?

    ``deltas`` is an iterable of :class:`~repro.db.delta.Delta` objects;
    each is applied to the running database and the ``wpc`` contract
    (``D |= precondition`` iff ``T(D) |= constraint``) is re-checked on the
    new state.  The states chain through ``apply_delta``, so each shares
    every untouched row and index with its predecessor — the delta-aware
    form of the validation sweep.
    """
    return find_wpc_counterexample_stream(
        transaction, constraint, precondition, initial, deltas, signature, backend
    ) is None


def find_wpc_counterexample_stream(
    transaction: Transaction,
    constraint,
    precondition,
    initial: Database,
    deltas: Iterable,
    signature: Signature = EMPTY_SIGNATURE,
    backend=None,
) -> Optional[Database]:
    """First state of the delta stream where the wpc contract fails, if any."""
    from .verification import holds

    db = initial
    pending: Iterable = itertools.chain([None], deltas)
    for delta in pending:
        if delta is not None:
            db = db.apply_delta(delta)
        before = holds(precondition, db, signature, backend)
        after = holds(constraint, transaction.apply(db), signature, backend)
        if before != after:
            return db
    return None


# ---------------------------------------------------------------------------
# admission classification
# ---------------------------------------------------------------------------

class PreservationVerdict:
    """How much run-time checking a (transaction, constraint) pair needs.

    The verdict is the currency of the service's admission controller
    (:mod:`repro.service.admission`): it is computed **once** per program
    shape (:func:`~repro.core.simplification.program_shape` — the program
    with its constants factored into :class:`~repro.logic.terms.Param`
    slots), the first time an instance of that shape arrives, and then
    consulted for every later instance of the same shape.

    ``mode`` is one of

    * ``"static"`` — the pair's guard is ``true``: ``alpha |= wpc(T, alpha)``
      is proved, so a transaction admitted against a consistent snapshot
      commits with **zero** runtime constraint work;
    * ``"guarded"`` — ``guard`` is the formula to evaluate on the *pre*-state
      (the derived ``Delta`` or the mechanical ``wpc``, both exact under the
      invariant), over the shape's slots: with an instance's values in them
      it is that instance's guard.  The verdict is shared by every instance
      and never rebuilt; the values travel beside it (``guard_for`` returns
      both) into a backend's ``holds_prepared(guard, db, values)``.  If it
      fails the transaction is rejected before executing, and nothing ever
      rolls back;
    * ``"runtime"`` — no syntactic precondition is available (the transaction
      does not admit prerelations, or the constraint is semantic): the
      post-state must be checked before the commit is kept.

    ``source`` says where the guard comes from: ``"derived"``, ``"wpc"``, or
    ``None`` for a runtime verdict (whose ``guard`` is ``None``).
    """

    __slots__ = ("mode", "guard", "source", "reason")

    def __init__(self, mode, guard, source, reason):
        self.mode = mode
        self.guard = guard
        self.source = source
        self.reason = reason

    def __repr__(self) -> str:
        return f"PreservationVerdict({self.mode!r}, reason={self.reason!r})"


def classify_preservation(transaction, constraint) -> PreservationVerdict:
    """Classify how ``transaction`` must be checked against ``constraint``.

    The guard is :func:`~repro.core.simplification.shape_guard`'s: the
    derived ``Delta`` where the pair is in its fragment, the mechanical
    ``wpc`` (Theorem 8) otherwise, taken over the slots of the program's
    constants so that the proof covers every instance of its shape.  The
    verdict is

    * **static** when the guard simplifies to ``true`` — a proof for the
      whole shape, never a sweep over a family of databases;
    * **guarded** by the guard otherwise, left over the slots: with
      ``program_shape(transaction)[1]`` in them it is the transaction's own
      guard (a program with no shape gets its own ``wpc``, with no slots);
    * **runtime** when no syntactic precondition can be built (semantic
      constraints, transactions without prerelations) — the caller falls back
      to post-state checking.
    """
    from .simplification import shape_guard

    if not isinstance(constraint, Formula):
        return PreservationVerdict(
            "runtime", None, None,
            "semantic constraint: no syntactic precondition exists",
        )
    try:
        source, guard, _values = shape_guard(transaction, constraint)
    except (WpcError, FormulaError) as exc:
        return PreservationVerdict("runtime", None, None, str(exc))
    if simplify(guard) == TOP:
        return PreservationVerdict("static", TOP, source, f"the {source} guard is true")
    return PreservationVerdict(
        "guarded", guard, source,
        f"the {source} guard constrains the pre-state",
    )
