"""Evaluation backends: the engine's front door.

A :class:`Backend` answers the two questions every consumer in the repo asks:

* ``evaluate(formula, db, assignment)`` — does ``D |= phi`` hold?
* ``extension(formula, db, variables)`` — which tuples satisfy ``phi``?

Two implementations are provided:

* :class:`NaiveBackend` — the original tuple-at-a-time recursive interpreter
  (:class:`repro.logic.evaluation.Model`), kept as the semantics oracle;
* :class:`CompiledBackend` — compiles formulas once to set-at-a-time algebra
  plans (:mod:`repro.engine.compile`) and executes them against indexed
  databases, with a per-``(formula, db)`` memo for repeated checks (the shape
  of every validation sweep and of integrity maintenance: the same constraint
  or precondition evaluated against a stream of databases).

The *active* backend is process-global, defaults to the compiled engine, and
can be chosen with ``REPRO_BACKEND=naive|compiled`` in the environment, with
:func:`set_backend`, or temporarily with the :func:`using_backend` context
manager.  ``repro.logic.evaluation.evaluate`` / ``extension`` / ``satisfies``
dispatch through it, so the whole repo switches engines in one place.
"""

from __future__ import annotations

import threading
import warnings
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..db.database import Database, DatabaseError
from ..logic.signature import EMPTY_SIGNATURE, Signature, SignatureError
from ..logic.syntax import Formula
from ..obs import metrics as _metrics
from ..obs.profile import PlanProfiler
from ..settings import KNOBS_BY_NAME, setting
from .compile import CompileError, compile_extension
from .delta import PlanState, incremental_update
from .optimize import Estimator, explain_plan, optimize_plan
from .plan import ExecutionContext, Plan, Rows
from .stats import size_bucket

__all__ = [
    "Backend",
    "NaiveBackend",
    "CompiledBackend",
    "active_backend",
    "set_backend",
    "using_backend",
    "backend_from_name",
]

Row = Tuple[object, ...]

# sentinel cached for formulas the compiler rejected (avoids re-compiling)
_UNCOMPILABLE = object()
# how far up a database's apply_delta ancestry to look for a usable state
_MAX_PROVENANCE_CHAIN = 16
# compiled plans (and optimized plans, and the fan-in sets of plans) kept
_PLAN_CACHE_SIZE = 2048
# memoised extensions per database; node-level states per remembered database
_MEMO_SIZE = 512
# databases whose node-level plan states are remembered for the delta rules
_STATE_HISTORY = 8
# plans already costed below this are not worth a rewrite pass: the join
# reorderer's own overhead would exceed anything it could save (tiny
# databases, trivial formulas) — they run as compiled
_OPT_SKIP_COST = 256.0


class Backend:
    """Protocol of an evaluation backend."""

    name = "abstract"

    def evaluate(
        self,
        formula: Formula,
        db: Database,
        assignment: Optional[Mapping[str, object]] = None,
        signature: Signature = EMPTY_SIGNATURE,
        domain: Optional[Iterable[object]] = None,
    ) -> bool:  # pragma: no cover - interface
        raise NotImplementedError

    def extension(
        self,
        formula: Formula,
        db: Database,
        variables: Sequence[str],
        signature: Signature = EMPTY_SIGNATURE,
        domain: Optional[Iterable[object]] = None,
    ) -> Set[Row]:  # pragma: no cover - interface
        raise NotImplementedError

    def evaluate_many(
        self,
        formulas: Sequence[Formula],
        db: Database,
        signature: Signature = EMPTY_SIGNATURE,
        domain: Optional[Iterable[object]] = None,
    ) -> Tuple[bool, ...]:
        """Evaluate a whole constraint set against one database, one
        formula (and one plan) at a time."""
        domain_key = None if domain is None else frozenset(domain)
        return tuple(
            self.evaluate(formula, db, None, signature, domain_key)
            for formula in formulas
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class NaiveBackend(Backend):
    """The recursive tuple-at-a-time interpreter (the semantics oracle)."""

    name = "naive"

    def evaluate(self, formula, db, assignment=None, signature=EMPTY_SIGNATURE, domain=None):
        from ..logic.evaluation import Model

        return Model(db, signature, domain).check(formula, assignment)

    def extension(self, formula, db, variables, signature=EMPTY_SIGNATURE, domain=None):
        from ..logic.evaluation import Model

        return Model(db, signature, domain).extension(formula, list(variables))


class _LRU:
    """A tiny bounded LRU mapping (thread-safe enough for CPython use here)."""

    __slots__ = ("maxsize", "_data", "_lock")

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._data: "OrderedDict" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key, default=None):
        with self._lock:
            try:
                value = self._data[key]
            except (KeyError, TypeError):
                return default
            self._data.move_to_end(key)
            return value

    def put(self, key, value) -> None:
        with self._lock:
            try:
                self._data[key] = value
            except TypeError:  # unhashable key component
                return
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


class CompiledBackend(Backend):
    """Set-at-a-time evaluation through compiled relational-algebra plans.

    Two caches make the common access patterns cheap:

    * a **plan cache** keyed by ``(shape, variables)`` — plans are
      database-independent, so a constraint checked against hundreds of
      databases is compiled exactly once, and *constant*-independent: a
      formula's :meth:`~repro.logic.syntax.Formula.shape` factors its
      constants out, the plan is compiled from the parameterised formula and
      each execution binds the constants of the formula at hand
      (``ExecutionContext.params``), so the thousands of instances of one
      guard or weakest precondition are one entry here and one in the
      optimized-plan cache;
    * a **result memo**, weakly keyed by database, mapping ``(formula,
      variables, domain, signature)`` to the computed extension — databases
      are immutable value objects, so memoised extensions stay valid for as
      long as the database lives, and die with it (a long transaction stream
      over ever-new states retains nothing).  Repeated ``D |= phi`` checks
      (e.g. one candidate tuple at a time against the same database, the
      integrity-maintenance hot path) collapse into one plan execution plus
      set membership.  ``_MEMO_SIZE`` bounds the entries *per database*.

    A third mechanism makes the *update* hot path cheap: when a database was
    produced by :meth:`repro.db.database.Database.apply_delta` (every
    functional update and store snapshot is), the backend looks up the parent
    state's per-node plan results and re-derives the new extension through the
    incremental delta rules of :mod:`repro.engine.delta` — work proportional
    to the delta, not the database.  ``REPRO_DELTA=on|off|verify`` (or the
    ``delta`` constructor argument) controls this: ``verify`` shadows every
    incremental result with a full execution and asserts they agree.

    The result memo and the state history are keyed per formula, that is per
    *binding* of a shape.  A formula over fresh constants — every instance
    of a transaction's weakest precondition is one — finds its plan (by
    shape) but no result and no state of its own: it costs a shape lookup
    and one execution of that plan, not a compilation.

    A closed sentence asks yes or no: where the memo and the delta rules
    both miss, its plan is *streamed* to the first root row (``streamed``)
    and leaves a *deferred* state, which the first successor that asks
    turns into a real one by a full execution at that state
    (``states_built_on_demand``).  Update streams do the same
    incremental work one step later; one-off checks pay for no node state.

    When compilation fails (a formula type the compiler does not know) the
    backend transparently falls back to the naive interpreter — and memoises
    the interpreter's result exactly like a compiled one, so repeated checks
    of an uncompilable constraint against the same database do not re-run the
    interpreter.
    """

    name = "compiled"

    def __init__(self, delta: Optional[str] = None, optimizer: Optional[str] = None):
        self._plans: _LRU = _LRU(_PLAN_CACHE_SIZE)
        self._memo: "weakref.WeakKeyDictionary[Database, _LRU]" = (
            weakref.WeakKeyDictionary()
        )
        # the weak-keyed memo dict and the bare int counters are shared by
        # every worker thread of the transaction service; all access goes
        # through these locks (the per-database _LRU values lock themselves)
        self._memo_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self._naive = NaiveBackend()
        self.fallbacks = 0
        if delta is None:
            delta = setting("REPRO_DELTA")
        if delta not in ("on", "off", "verify"):
            raise ValueError(
                f"unknown delta mode {delta!r}; expected 'on', 'off' or 'verify'"
            )
        self.delta_mode = delta
        # per-(db, memo key) node-level plan states for incremental updates —
        # the one state history, advanced along the provenance chain.
        # Unlike the result memo this holds the database *strongly*: in the
        # canonical stream pattern (``db = db.apply_delta(...)`` in a loop,
        # the store patching its snapshot) the parent loses its last strong
        # reference the moment the successor exists, which would sever the
        # provenance weakref before the next evaluation can use it.  The
        # history is a small LRU (``_STATE_HISTORY`` databases), so a long
        # stream still retains only its recent past.
        self._states: "OrderedDict[int, Tuple[Database, Dict[Tuple, PlanState]]]" = (
            OrderedDict()
        )
        self._states_lock = threading.Lock()
        self.delta_hits = 0
        self.delta_misses = 0
        self.streamed = 0
        self.states_built_on_demand = 0
        # -- the cost-based optimizer (REPRO_OPTIMIZER / `optimizer` arg) ----
        if optimizer is None:
            optimizer = setting("REPRO_OPTIMIZER")
        if optimizer not in ("on", "off"):
            raise ValueError(
                f"unknown optimizer mode {optimizer!r}; expected 'on' or 'off'"
            )
        self.optimizer_mode = optimizer
        # (syntactic plan, domain default?, stats profile) -> the plan to run:
        # one optimization per formula shape per database-size profile,
        # shared across every database matching it.  Keyed by the cached
        # plan *object* (identity hash, the key tuple keeps it alive) so the
        # lookup hashes no formula.
        self._opt_plans: _LRU = _LRU(_PLAN_CACHE_SIZE)
        # plan -> the nodes of its DAG that several consumers read
        self._fan_ins: _LRU = _LRU(_PLAN_CACHE_SIZE)
        self.plans_rewritten = 0
        self.join_reorders = 0
        self.complements_avoided = 0
        # the registry twins of the bare-int counters above, named by the
        # alias table metrics.BACKEND_KEY_MAP: _bump dual-writes into these,
        # so the process-wide metrics snapshot carries the same numbers
        # under the dotted scheme (docs/observability.md).  With
        # REPRO_METRICS=off they are the shared no-op instrument.
        registry = _metrics.get_registry()
        self._metric_counters = {
            attr: registry.counter(name)
            for attr, name in _metrics.BACKEND_KEY_MAP.items()
        }
        self._m_memo_hits = registry.counter("engine.plan_cache.hits")
        self._m_memo_misses = registry.counter("engine.plan_cache.misses")

    # -- cache plumbing --------------------------------------------------------

    def clear_caches(self) -> None:
        self._plans.clear()
        self._opt_plans.clear()
        self._fan_ins.clear()
        with self._memo_lock:
            self._memo.clear()
        with self._states_lock:
            self._states.clear()

    def cache_stats(self) -> Dict[str, int]:
        with self._states_lock:
            states = sum(len(states) for _db, states in self._states.values())
        with self._memo_lock:
            memo = sum(len(lru) for lru in self._memo.values())
        return {
            "plans": len(self._plans),
            "memo": memo,
            "states": states,
            "optimized_plans": len(self._opt_plans),
            "plans_rewritten": self.plans_rewritten,
            "join_reorders": self.join_reorders,
            "complements_avoided": self.complements_avoided,
            "streamed": self.streamed,
            "states_built_on_demand": self.states_built_on_demand,
        }

    def _bump(self, counter: str, amount: int = 1) -> None:
        """Thread-safe increment of a public statistics counter."""
        with self._counter_lock:
            setattr(self, counter, getattr(self, counter) + amount)
        instrument = self._metric_counters.get(counter)
        if instrument is not None:
            instrument.inc(amount)

    def _memo_for(self, db: Database) -> _LRU:
        with self._memo_lock:
            lru = self._memo.get(db)
            if lru is None:
                lru = _LRU(_MEMO_SIZE)
                self._memo[db] = lru
            return lru

    def plan_for(self, formula: Formula, variables: Tuple[str, ...]) -> Plan:
        """The (cached) compiled plan for ``formula``'s shape over ``variables``.

        Plans are cached per shape key (:meth:`Formula.shape`) and executed
        under the formula's constants.  Known-uncompilable shapes are cached
        too (as a sentinel), so a formula the compiler rejects is not
        re-compiled on every check.
        """
        shape, params = formula.shape()
        key = (shape, variables)
        plan = self._plans.get(key)
        if plan is _UNCOMPILABLE:
            raise CompileError(f"formula {formula!r} is not compilable (cached)")
        if plan is None:
            try:
                plan = compile_extension(
                    formula.parameterised() if params else formula, variables
                )
            except CompileError:
                self._plans.put(key, _UNCOMPILABLE)
                raise
            self._plans.put(key, plan)
        return plan

    # -- cost-based plan selection ----------------------------------------------

    def _plan_for_execution(
        self,
        formula: Formula,
        variables: Tuple[str, ...],
        db: Database,
        domain_key: Optional[frozenset],
    ) -> Plan:
        """The plan to run for ``formula`` against ``db``.

        With the optimizer off this is the compiler's plan for the formula's
        shape, verbatim.  With it on, the plan is rewritten cost-based for
        the database's statistics profile (once per shape and profile: every
        other formula of the shape finds the entry).  Raises
        :class:`CompileError` exactly like :meth:`plan_for`.
        """
        plan = self.plan_for(formula, variables)
        if self.optimizer_mode == "off":
            return plan
        if domain_key is None:
            domain_size = len(db.active_domain)
            default_domain = True
        else:
            domain_size = len(domain_key)
            default_domain = False
        sizes = [len(db.relation(name)) for name in db.schema.relation_names]
        profile = (
            tuple(size_bucket(size) for size in sizes),
            size_bucket(domain_size),
        )
        key = (plan, default_domain, profile)
        chosen = self._opt_plans.get(key)
        if chosen is None:
            chosen = self._optimize(formula, plan, db, domain_size, default_domain)
            self._opt_plans.put(key, chosen)
        return chosen

    def _optimize(
        self,
        formula: Formula,
        plan: Plan,
        db: Database,
        domain_size: int,
        default_domain: bool,
    ) -> Plan:
        stats = db.stats()
        estimator = Estimator(stats, domain_size, default_domain)
        best = plan
        if estimator.cost(plan) >= _OPT_SKIP_COST:
            try:
                best, info = optimize_plan(
                    plan, stats, domain_size, default_domain, estimator
                )
            except Exception as exc:  # a failed rewrite must never break evaluation
                warnings.warn(
                    f"plan optimization failed for {formula!r}: {exc!r} — "
                    "keeping the syntactic plan",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return plan
            if info.rewritten:
                self._bump("plans_rewritten")
                if info.join_reorders:
                    self._bump("join_reorders", info.join_reorders)
            if info.complements_avoided:
                self._bump("complements_avoided", info.complements_avoided)
        return best

    # -- the Backend API --------------------------------------------------------

    def extension(self, formula, db, variables, signature=EMPTY_SIGNATURE, domain=None):
        variables = tuple(variables)
        missing = formula.free_variables() - set(variables)
        if missing:
            from ..logic.evaluation import EvaluationError

            raise EvaluationError(
                f"extension over {list(variables)} leaves variables {sorted(missing)} free"
            )
        # materialise the domain once: `domain` may be a one-shot iterable,
        # and it is needed both for the memo key and for execution/fallback
        domain_key = None if domain is None else frozenset(domain)
        memo = self._memo_for(db)
        memo_key = (formula, variables, domain_key, signature)
        cached = memo.get(memo_key)
        if cached is not None:
            self._m_memo_hits.inc()
            if self.delta_mode != "off" and self._state_for(db, memo_key) is None:
                # the result memo is *content*-keyed, so a database that
                # round-tripped back to a known state hits it without ever
                # recording node-level plan states for this object — derive
                # them through the (usually empty) composed delta so the
                # provenance chain stays warm for the next update
                try:
                    plan = self._plan_for_execution(formula, variables, db, domain_key)
                except CompileError:
                    return set(cached)
                ctx = self._context(formula, db, domain_key, signature)
                self._incremental_extension(plan, memo_key, ctx, warming=True)
            return set(cached)
        self._m_memo_misses.inc()
        try:
            plan = self._plan_for_execution(formula, variables, db, domain_key)
        except CompileError:
            # interpreter fallback — memoised exactly like a compiled result,
            # so a repeated check against the same database is a lookup
            self._bump("fallbacks")
            rows = frozenset(
                self._naive.extension(formula, db, variables, signature, domain_key)
            )
            memo.put(memo_key, rows)
            return set(rows)
        ctx = self._context(formula, db, domain_key, signature)
        rows = None
        if self.delta_mode != "off":
            rows = self._incremental_extension(plan, memo_key, ctx)
        return self._finish_extension(plan, db, memo_key, ctx, memo, rows)

    def _context(self, formula, db, domain_key, signature) -> ExecutionContext:
        """An execution context binding the plan's slots to ``formula``'s constants."""
        return ExecutionContext(db, domain_key, signature, params=formula.shape()[1])

    def _finish_extension(self, plan, db, memo_key, ctx, memo, rows):
        """Full execution or, for a closed sentence, a streamed verdict (when
        the incremental path declined), plus memoing."""
        if rows is None:
            sentence = not memo_key[1]
            try:
                rows = self._execute_plan(plan, ctx, lazy=sentence)
            except (DatabaseError, SignatureError) as exc:
                # match the interpreter's error contract (missing relations or
                # Omega symbols surface as EvaluationError)
                from ..logic.evaluation import EvaluationError

                raise EvaluationError(str(exc)) from exc
            if self.delta_mode != "off":
                self._remember_state(db, memo_key, PlanState(dict(ctx.cache), None, sentence))
        memo.put(memo_key, rows)
        return set(rows)

    def explain(
        self,
        formula: Formula,
        db: Database,
        variables: Sequence[str] = (),
        signature: Signature = EMPTY_SIGNATURE,
        domain: Optional[Iterable[object]] = None,
    ) -> str:
        """A human-readable optimizer report for ``formula`` against ``db``.

        Shows the plan the backend would execute, its estimated and *actual*
        per-node cardinalities (the formula is executed once to measure
        them), the values its constants bind the plan's parameter slots
        (``$0``, ``$1``, ...) to, and the modelled costs of the syntactic and
        optimized plans — the tool for diagnosing why the optimizer picked a
        shape.  A node no line shows ``act=`` for was skipped by a
        short-circuiting join.  ``path:`` names the way :meth:`extension`
        (over no variables: :meth:`evaluate`) answers it at ``db`` now.
        """
        variables = tuple(variables)
        domain_key = None if domain is None else frozenset(domain)
        domain_size = (
            len(domain_key) if domain_key is not None else len(db.active_domain)
        )
        original = self.plan_for(formula, variables)  # CompileError propagates
        estimator = Estimator(db.stats(), domain_size, domain_key is None)
        chosen = self._plan_for_execution(formula, variables, db, domain_key)
        lines = [
            f"formula: {formula}",
            f"optimizer: {self.optimizer_mode}  domain={domain_size}",
        ]
        bound = formula.shape()[1]
        if bound:
            lines.append(
                "parameters: "
                + "  ".join(f"${slot}={value!r}" for slot, value in enumerate(bound))
            )
        path = self._path(formula, db, variables, domain_key, signature)
        lines.append(f"path: {path}")
        ctx = self._context(formula, db, domain_key, signature)
        ctx.profiler = PlanProfiler()
        self._execute_plan(chosen, ctx)
        lines.append(
            f"chosen: {'optimized' if chosen is not original else 'syntactic'} plan "
            f"(cost~{estimator.cost(chosen):.0f}, syntactic~{estimator.cost(original):.0f})"
        )
        lines.append(explain_plan(chosen, estimator, ctx.cache, ctx.profiler))
        return "\n".join(lines)

    def _path(self, formula, db, variables, domain_key, signature) -> str:
        """Which way :meth:`extension` would answer ``formula`` at ``db`` now."""
        key = (formula, variables, domain_key, signature)
        if self._memo_for(db).get(key) is not None:
            return "memo"
        found = self._ancestor_state(db, key) if self.delta_mode != "off" else None
        if found is not None:
            built = " (an ancestor's state, built there on demand)"
            return "delta rules" + (built if found[1].deferred else "")
        if variables:
            return "full execution"
        deferred = "; node state deferred" if self.delta_mode != "off" else ""
        return f"streamed (stops at the first witness{deferred})"

    def _execute_plan(self, plan: Plan, ctx: ExecutionContext, lazy: bool = False) -> Rows:
        """Full (non-incremental) plan execution, or a streamed verdict.

        ``lazy`` (a closed sentence) streams the plan to its first root row
        instead; sub-plans read twice are materialised.  A constant-free
        sentence is its own memo and state key; its stream runs through them.
        """
        if not lazy:
            return plan.rows(ctx)
        ctx.lazy, ctx.materialise = True, self._fan_in(plan)
        rows = frozenset({()}) if plan.nonempty(ctx) else frozenset()
        ctx.lazy = False
        self._bump("streamed")
        if self.delta_mode == "verify":
            self._verify(plan, ctx, rows, "streamed verdict", ctx.db)
        return rows

    def _fan_in(self, plan: Plan) -> FrozenSet[Plan]:
        """The nodes of ``plan``'s DAG read by more than one consumer."""
        found = self._fan_ins.get(plan)
        if found is None:
            consumers: Dict[Plan, int] = {}
            stack, seen = [plan], {plan}
            while stack:
                for child in stack.pop().children():
                    consumers[child] = consumers.get(child, 0) + 1
                    if child not in seen:
                        seen.add(child)
                        stack.append(child)
            found = frozenset(node for node, n in consumers.items() if n > 1)
            self._fan_ins.put(plan, found)
        return found

    # -- incremental (delta) evaluation -----------------------------------------

    def _state_for(self, db: Database, memo_key: Tuple) -> Optional[PlanState]:
        key = id(db)
        with self._states_lock:
            entry = self._states.get(key)
            if entry is None or entry[0] is not db:
                return None
            state = entry[1].get(memo_key)
            if state is not None:
                # a hit marks the base as hot: the stream pattern keeps
                # deriving successors from it (rejected updates especially),
                # and evicting it would sever every future chain
                self._states.move_to_end(key)
            return state

    def _remember_state(self, db: Database, memo_key: Tuple, state: PlanState) -> None:
        key = id(db)
        with self._states_lock:
            entry = self._states.get(key)
            if entry is None or entry[0] is not db:
                entry = (db, {})
                self._states[key] = entry
            self._states.move_to_end(key)
            states = entry[1]
            states[memo_key] = state
            while len(states) > _MEMO_SIZE:
                states.pop(next(iter(states)))
            while len(self._states) > _STATE_HISTORY:
                self._states.popitem(last=False)

    def _incremental_extension(
        self, plan: Plan, memo_key: Tuple, ctx: ExecutionContext, warming: bool = False
    ):
        """Evaluate through the delta rules when a usable parent state exists.

        Returns ``None`` — full execution — when no ancestor of ``ctx.db`` was
        evaluated under ``memo_key``.  A ``warming`` call (state propagation
        behind a memo hit) leaves the hit/miss counters (surfaced as
        ``incremental_evaluations`` in maintenance reports) alone: the check
        itself was answered by the memo, and no full execution follows a
        failure, so nothing was missed.
        """
        state = self._advance_state(plan, memo_key, ctx)
        if not warming:
            self._bump("delta_misses" if state is None else "delta_hits")
        return None if state is None else state.rows[plan]

    def _advance_state(
        self, plan: Plan, key: Tuple, ctx: ExecutionContext
    ) -> Optional[PlanState]:
        """Bring ``plan``'s remembered state under ``key`` forward to ``ctx.db``.

        Walks the database's ``apply_delta`` provenance until it finds an
        ancestor with a state under the memo key ``key`` and applies the delta
        rules to it under the composition of the steps climbed.  Remembers and returns the successor state, or ``None`` when
        no such ancestor is within reach.
        """
        found = self._ancestor_state(ctx.db, key)
        if found is None:
            return None
        parent, state, steps = found
        delta = steps.pop()
        while steps:
            delta = delta.then(steps.pop())
        try:
            if state.deferred:
                state = self._build_deferred(plan, parent, key, state, ctx)
            rows, new_state = incremental_update(
                plan, parent, state, delta, ctx, fixed_domain=ctx.domain_key is not None
            )
        except (DatabaseError, SignatureError) as exc:
            from ..logic.evaluation import EvaluationError

            raise EvaluationError(str(exc)) from exc
        if self.delta_mode == "verify":
            self._verify(plan, ctx, rows, "incremental evaluation", key[0])
        self._remember_state(ctx.db, key, new_state)
        return new_state

    def _ancestor_state(self, db: Database, key: Tuple):
        """``(ancestor, state, steps)``: the nearest ``apply_delta`` ancestor of
        ``db`` within reach with a state under ``key``, and the steps climbed
        to it, newest first (composed only once one is found) — or ``None``."""
        steps = []
        link = db.provenance_step()
        while link is not None and len(steps) < _MAX_PROVENANCE_CHAIN:
            parent, step = link
            steps.append(step)
            state = self._state_for(parent, key)
            if state is not None:
                return parent, state, steps
            link = parent.provenance_step()
        return None

    def _build_deferred(self, plan, db, key, deferred, ctx) -> PlanState:
        """A streamed verdict's deferred state at ``db``, made real: a full
        execution there, seeded with the sub-plans the stream materialised
        (each a whole sub-DAG, see :meth:`Plan.rows`)."""
        at = ExecutionContext(db, ctx.domain_key, ctx.signature, params=ctx.params)
        at.cache.update(deferred.rows)
        rows = self._execute_plan(plan, at)
        if self.delta_mode == "verify":
            self._verify(plan, at, rows, "state built on demand", key[0], nodes=True)
        state = PlanState(dict(at.cache))
        self._remember_state(db, key, state)
        self._bump("states_built_on_demand")
        return state

    @staticmethod
    def _verify(plan, ctx, rows, what, subject, nodes=False) -> None:
        """``REPRO_DELTA=verify``: ``rows`` (with ``nodes``, every node result
        in ``ctx.cache`` too) must be what a fresh full execution gives."""
        full = ExecutionContext(ctx.db, ctx.domain_key, ctx.signature, params=ctx.params)
        pairs = [(rows, plan.rows(full))]
        if nodes:
            pairs += [(ctx.cache[n], r) for n, r in full.cache.items() if n in ctx.cache]
        for got, want in pairs:
            if got != want:
                raise AssertionError(
                    f"{what} diverged for {subject!r}: got {sorted(got, key=repr)[:5]}"
                    f"..., full run says {sorted(want, key=repr)[:5]}..."
                )

    def evaluate(self, formula, db, assignment=None, signature=EMPTY_SIGNATURE, domain=None):
        env = dict(assignment or {})
        free = tuple(sorted(formula.free_variables()))
        missing = set(free) - set(env)
        if missing:
            from ..logic.evaluation import EvaluationError

            raise EvaluationError(
                f"formula has unassigned free variables {sorted(missing)}"
            )
        # materialise once — `domain` may be a one-shot iterable and is used
        # for the membership test, the fallback, and the extension call
        frozen = frozenset(domain) if domain is not None else None
        effective_domain = frozen if frozen is not None else db.active_domain
        values = tuple(env[v] for v in free)
        if any(value not in effective_domain for value in values):
            # Assignment values outside the quantification domain cannot come
            # from an extension (which only ranges over the domain) — delegate
            # to the interpreter, which handles arbitrary assignments.
            return self._naive.evaluate(formula, db, env, signature, frozen)
        if free:
            # substitute the assignment as constants and check the resulting
            # sentence — materialising the full domain^k extension to answer
            # one membership query would be wasteful for wide formulas
            from ..logic.terms import Const

            formula = formula.substitute({v: Const(env[v]) for v in free})
        rows = self.extension(formula, db, (), signature, frozen)
        return bool(rows)


# ---------------------------------------------------------------------------
# the process-global active backend
# ---------------------------------------------------------------------------

#: Names accepted by :func:`backend_from_name` (and ``REPRO_BACKEND``).
BACKEND_NAMES = KNOBS_BY_NAME["REPRO_BACKEND"].choices


def backend_from_name(name: str) -> Backend:
    """Instantiate a backend by its registry name (see :data:`BACKEND_NAMES`).

    ``compiled-delta`` / ``compiled-nodelta`` are the compiled engine with
    incremental delta evaluation forced on / off regardless of
    ``REPRO_DELTA`` (the benchmarks use them to A/B the update fast path).
    """
    if name == "naive":
        return NaiveBackend()
    if name == "compiled":
        return CompiledBackend()
    if name == "compiled-delta":
        return CompiledBackend(delta="on")
    if name == "compiled-nodelta":
        return CompiledBackend(delta="off")
    raise ValueError(
        f"unknown backend {name!r}; expected one of {', '.join(BACKEND_NAMES)}"
    )


_ACTIVE: Backend = backend_from_name(setting("REPRO_BACKEND"))


def active_backend() -> Backend:
    """The backend all module-level evaluation helpers dispatch through."""
    return _ACTIVE


def set_backend(backend) -> Backend:
    """Install ``backend`` (an instance or a registry name) as the active backend."""
    global _ACTIVE
    if isinstance(backend, str):
        backend = backend_from_name(backend)
    if not isinstance(backend, Backend):
        raise TypeError(f"expected a Backend or name, got {type(backend).__name__}")
    _ACTIVE = backend
    return backend


@contextmanager
def using_backend(backend):
    """Temporarily switch the active backend (for tests and A/B benchmarks)."""
    global _ACTIVE
    previous = _ACTIVE
    set_backend(backend)
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous
