"""Integrity maintenance: run-time monitoring versus static verification.

The introduction of the paper contrasts two ways of keeping integrity
constraints true while transactions run:

* **run-time monitoring** — execute the transaction, evaluate every constraint
  on the tentative post-state and roll the transaction back if one fails; the
  constraint checks and the roll-backs happen inside the critical path;
* **static verification via weakest preconditions** — evaluate
  ``wpc(T, alpha)`` on the *current* state and refuse to execute the
  transaction when it fails; nothing ever has to be rolled back, and when the
  precondition can be simplified (e.g. assuming ``alpha`` already holds) the
  check can be far cheaper than re-checking ``alpha`` from scratch.

What the two cost on the compiled engine.  Both policies start from a state
known to satisfy the constraints (each remembers the last one), so by the
paper's closing remark neither need re-check ``alpha``.  A run-time check
of a constraint in denial form — ``no-loops``, ``no-triangles``,
antisymmetry — is evaluated only at the rows the transaction inserted, one
small formula per inserted row that can complete a violation, answered by
index probes: O(delta) whatever the size of the database, and nothing for a
deletion (:func:`repro.core.simplification.holds_after_update`).  The static
policy moves the same instances to the pre-state: for a program of tuple
inserts and deletions it checks the ``Delta`` that
:func:`repro.core.simplification.derived_guard` pulled back through the
program once per shape of its constants, with the transaction's own in its
slots — ``true`` for a forward edge under ``no-loops`` and for any
deletion, ``false`` for a loop, both decided without evaluating anything,
and the 2-path probe ``~exists w . E($1, w) & E(w, $0)`` for an edge under
``no-triangles``.  Both kinds of check, and a registered precondition,
enter the engine through its prepared door (``holds_prepared``): a slotted
sentence compiled once, run with the values beside it, touching no memo
and no state history.  Any other constraint or transaction, and any check
from a state not known to satisfy the constraints, takes the general
route: the whole constraint on the post-state (through the engine's
incremental delta rules when it has seen an ancestor state), or the
registered weakest precondition on the pre-state.  Experiment E13 holds
the ratio between the two policies under a ceiling.

This module implements both policies (plus an unsafe baseline) on top of the
transactional :class:`~repro.db.storage.Store`, together with an
:class:`IntegrityMaintainer` that executes a stream of transactions under a
chosen policy and collects the statistics (commits, aborts, rolled-back
writes, wall time) that experiment E13 reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..db.database import Database
from ..db.delta import Delta
from ..db.storage import Store
from ..engine.backend import active_backend
from ..logic.signature import EMPTY_SIGNATURE, Signature
from ..logic.syntax import BOTTOM, TOP, Formula
from ..transactions.base import Transaction
from .simplification import derived_guard, holds_after_update

__all__ = [
    "Constraint",
    "MaintenancePolicy",
    "UncheckedPolicy",
    "RuntimeCheckPolicy",
    "StaticPreconditionPolicy",
    "MaintenanceReport",
    "IntegrityMaintainer",
]


@dataclass(frozen=True)
class Constraint:
    """A named integrity constraint with an optional precomputed precondition map.

    ``preconditions`` maps transaction names to their weakest precondition for
    this constraint; the static policy looks preconditions up there (they are
    computed once, offline — that is the point of static verification) for
    the transactions it cannot guard with a derived ``Delta``.
    """

    name: str
    formula: object  # Formula or an object with .holds(db)
    preconditions: Dict[str, object] = field(default_factory=dict)

    def holds(self, db: Database, signature: Signature = EMPTY_SIGNATURE) -> bool:
        if isinstance(self.formula, Formula):
            # one compiled plan per constraint, reused across the whole
            # transaction stream (the engine memoises per-(formula, db))
            return active_backend().evaluate(self.formula, db, signature=signature)
        return self.formula.holds(db)

    def precondition_for(self, transaction: Transaction):
        return self.preconditions.get(transaction.name)


@dataclass
class MaintenanceReport:
    """Outcome statistics of running a workload under a maintenance policy.

    ``incremental_evaluations`` counts every evaluation the query engine
    answered through delta rules instead of a full plan execution while the
    workload ran — constraint and precondition checks *and* the
    transaction-body condition queries of bulk statements, all of which sit
    on the same per-update hot path (zero under the naive backend or with
    ``REPRO_DELTA=off``; approximate if other threads share the backend).
    ``full_checks`` counts the constraint checks that evaluated the whole
    constraint rather than its instances at the inserted rows: every check
    of a constraint without a denial form, every check from a state not
    known to satisfy the constraints, and the static policy's run-time
    fallbacks.
    """

    policy: str = ""
    attempted: int = 0
    committed: int = 0
    rejected_statically: int = 0
    rolled_back: int = 0
    violations_missed: int = 0
    constraint_evaluations: int = 0
    precondition_evaluations: int = 0
    incremental_evaluations: int = 0
    full_checks: int = 0
    wall_time: float = 0.0

    def summary(self) -> str:
        return (
            f"{self.policy}: {self.committed}/{self.attempted} committed, "
            f"{self.rejected_statically} rejected statically, "
            f"{self.rolled_back} rolled back, "
            f"{self.violations_missed} violations missed, "
            f"{self.incremental_evaluations} incremental evaluations, "
            f"{self.full_checks} full checks, "
            f"{self.wall_time * 1000:.1f} ms"
        )


class MaintenancePolicy:
    """Strategy interface: decide how a transaction is executed against a store."""

    name = "abstract"

    def execute(
        self,
        store: Store,
        transaction: Transaction,
        constraints: Sequence[Constraint],
        report: MaintenanceReport,
        signature: Signature,
    ) -> bool:  # pragma: no cover - interface
        raise NotImplementedError

    def invariant_established(
        self, state: Database, constraints: Sequence[Constraint]
    ) -> None:
        """Every constraint holds on ``state`` (a hint; ignored by default)."""


def _post_state(store: Store, new_state: Database) -> Database:
    """The open transaction's post-state, as the engine should be shown it.

    ``new_state`` itself when the transaction built it by ``apply_delta``
    (every functional update does): it already chains off the committed
    snapshot, so incremental evaluation reaches the pre-state through it and
    :meth:`Store.commit_unchecked` can take it as the successor — patching
    the snapshot a second time with the write log would apply the same delta
    twice.  A state built from scratch has no such chain; the store's
    tentative snapshot supplies one.
    """
    if new_state.provenance_step() is not None:
        return new_state
    return store.snapshot()


class UncheckedPolicy(MaintenancePolicy):
    """Apply the transaction without any integrity checking (unsafe baseline).

    The report records how many constraint violations this lets through
    (measured after the fact, outside the timed section) so the benchmark can
    show what the other two policies are paying for.
    """

    name = "unchecked"

    def execute(self, store, transaction, constraints, report, signature):
        state = store.snapshot()
        new_state = transaction.apply(state)
        store.begin()
        store.apply_database(new_state)
        store.commit_unchecked(successor=new_state)
        violated = any(not c.holds(new_state, signature) for c in constraints)
        if violated:
            report.violations_missed += 1
        report.committed += 1
        return True


class RuntimeCheckPolicy(MaintenancePolicy):
    """Execute, check all constraints on the post-state, roll back on violation.

    The policy remembers the last state known to satisfy every constraint —
    the one a passing :meth:`IntegrityMaintainer.invariant_holds` saw, or
    the one its own last commit left — and recognises it by identity with
    the store's snapshot.  From that state each constraint is checked by
    :func:`~repro.core.simplification.holds_after_update` at the rows the
    transaction inserted; from any other state, in full.
    """

    name = "runtime-check"

    def __init__(self) -> None:
        self._verified: Optional[Tuple[Database, Tuple[Constraint, ...]]] = None

    def invariant_established(self, state, constraints):
        self._verified = (state, tuple(constraints))

    def execute(self, store, transaction, constraints, report, signature):
        state = store.snapshot()
        new_state = transaction.apply(state)
        store.begin()
        store.apply_database(new_state)
        tentative = _post_state(store, new_state)
        delta: Optional[Delta] = None
        verified = self._verified
        if verified is not None and verified[0] is state and verified[1] == tuple(constraints):
            delta = Delta.between(state, tentative)
        for constraint in constraints:
            report.constraint_evaluations += 1
            holds, full = holds_after_update(constraint, tentative, delta, signature)
            report.full_checks += full
            if not holds:
                store.rollback()
                report.rolled_back += 1
                return False
        store.commit_unchecked(successor=tentative)
        self.invariant_established(store.snapshot(), constraints)
        report.committed += 1
        return True


class StaticPreconditionPolicy(MaintenancePolicy):
    """Evaluate preconditions on the current state; never roll back.

    From the last state known to satisfy every constraint — recognised by
    identity, exactly as :class:`RuntimeCheckPolicy` does — a transaction
    and constraint in the fragment of
    :func:`~repro.core.simplification.derived_guard` are checked by the
    derived ``Delta`` with the transaction's constants in its slots; a
    ``Delta`` of ``true`` or ``false`` decides without evaluating anything.
    Otherwise each constraint must supply a precondition for the transaction
    being run (else the policy falls back to a run-time check for that
    constraint, recorded separately so the benchmark stays honest).  Guards
    and registered preconditions alike run through the backend's
    ``holds_prepared``.
    """

    name = "static-precondition"

    def __init__(self) -> None:
        self._verified: Optional[Tuple[Database, Tuple[Constraint, ...]]] = None

    def invariant_established(self, state, constraints):
        self._verified = (state, tuple(constraints))

    def execute(self, store, transaction, constraints, report, signature):
        state = store.snapshot()
        verified = self._verified
        known = (
            verified is not None and verified[0] is state and verified[1] == tuple(constraints)
        )
        runtime_fallback: List[Constraint] = []
        for constraint in constraints:
            derived = derived_guard(transaction, constraint.formula) if known else None
            if derived is None:
                precondition, values = constraint.precondition_for(transaction), ()
                if precondition is None:
                    runtime_fallback.append(constraint)
                    continue
            else:
                precondition, values = derived
                if precondition == TOP:
                    continue
                if precondition == BOTTOM:
                    report.rejected_statically += 1
                    return False
            report.precondition_evaluations += 1
            ok = (
                active_backend().holds_prepared(precondition, state, values, signature)
                if isinstance(precondition, Formula)
                else precondition.holds(state)
            )
            if not ok:
                report.rejected_statically += 1
                return False
        new_state = transaction.apply(state)
        store.begin()
        store.apply_database(new_state)
        if runtime_fallback:
            new_state = _post_state(store, new_state)
        for constraint in runtime_fallback:
            report.constraint_evaluations += 1
            report.full_checks += 1
            if not constraint.holds(new_state, signature):
                store.rollback()
                report.rolled_back += 1
                return False
        store.commit_unchecked(successor=new_state)
        self.invariant_established(store.snapshot(), constraints)
        report.committed += 1
        return True


class IntegrityMaintainer:
    """Run a stream of transactions against a store under a maintenance policy."""

    def __init__(
        self,
        store: Store,
        constraints: Sequence[Constraint],
        policy: MaintenancePolicy,
        signature: Signature = EMPTY_SIGNATURE,
    ):
        self.store = store
        self.constraints = list(constraints)
        self.policy = policy
        self.signature = signature

    def run(self, transactions: Iterable[Transaction]) -> MaintenanceReport:
        """Execute the workload; returns the collected statistics.

        The per-transaction hot path is delta-shaped end to end: the store's
        snapshot is patched (not rebuilt) from the write log, the tentative
        post-state shares everything untouched with the pre-state, and a
        run-time check from a state known to satisfy the constraints
        evaluates a denial constraint only at the rows the transaction
        inserted — so the cost of one update scales with the delta, not with
        the database.  A constraint without a denial form is re-checked in
        full, through the engine's incremental delta rules where the
        post-state's provenance reaches a state it has evaluated.
        """
        report = MaintenanceReport(policy=self.policy.name)
        backend = active_backend()
        hits_before = getattr(backend, "delta_hits", 0)
        started = time.perf_counter()
        for transaction in transactions:
            report.attempted += 1
            self.policy.execute(
                self.store, transaction, self.constraints, report, self.signature
            )
        report.wall_time = time.perf_counter() - started
        report.incremental_evaluations = getattr(backend, "delta_hits", 0) - hits_before
        return report

    def invariant_holds(self) -> bool:
        """Do all constraints hold on the current store state?

        A state that passes is handed to the policy, so a run-time check
        from it need not re-check the constraints in full.
        """
        state = self.store.snapshot()
        holds = all(c.holds(state, self.signature) for c in self.constraints)
        if holds:
            self.policy.invariant_established(state, self.constraints)
        return holds
