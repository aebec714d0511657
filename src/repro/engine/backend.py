"""Evaluation backends: the engine's front door.

A :class:`Backend` answers the two questions every consumer in the repo asks:

* ``evaluate(formula, db, assignment)`` — does ``D |= phi`` hold?
* ``extension(formula, db, variables)`` — which tuples satisfy ``phi``?

and, for the yes/no checks of the commit path, a third door:

* ``holds_prepared(formula, db, values)`` — does the closed sentence
  ``phi``, whose :class:`~repro.logic.terms.Param` slots read ``values``,
  hold on ``D``?

Two implementations are provided:

* :class:`NaiveBackend` — the original tuple-at-a-time recursive interpreter
  (:class:`repro.logic.evaluation.Model`), kept as the semantics oracle;
* :class:`CompiledBackend` — compiles formulas once to set-at-a-time algebra
  plans (:mod:`repro.engine.compile`) and executes them against indexed
  databases, with a per-``(formula, db)`` memo for repeated checks (the shape
  of every validation sweep: the same constraint evaluated again against the
  same database).

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
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Set, Tuple

from ..db.database import Database, DatabaseError
from ..logic.signature import EMPTY_SIGNATURE, Signature, SignatureError
from ..logic.syntax import Formula, bind_slots
from ..obs import metrics as _metrics
from ..obs.profile import PlanProfiler
from ..settings import KNOBS_BY_NAME, setting
from .compile import CompileError, compile_extension, compile_sentence
from .optimize import Estimator, optimize_plan
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
# compiled plans (and optimized plans, and the fan-in sets of plans) kept
_PLAN_CACHE_SIZE = 2048
# memoised extensions per database
_MEMO_SIZE = 512
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

    def holds_prepared(
        self,
        formula: Formula,
        db: Database,
        values: Sequence[object] = (),
        signature: Signature = EMPTY_SIGNATURE,
    ) -> bool:
        """Does the closed sentence ``formula`` hold on ``db`` with each
        ``Param(i)`` read as ``values[i]``?

        Distinct slots must hold distinct values (a program's shape and a
        row's equality pattern number them so), which decides ``Param(i) =
        Param(j)`` by the indexes alone.  By default: :meth:`evaluate` of
        the sentence with the values put in.
        """
        return self.evaluate(bind_slots(formula, values), db, signature=signature)

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

    On a memo miss the plan runs, and nothing of the run outlives it.  A
    closed sentence asks yes or no, so its plan is *streamed* to the first
    root row (``streamed``); an extension is executed in full.  The result
    memo is keyed per formula, that is per *binding* of a shape: a formula
    over fresh constants — every instance of a transaction's weakest
    precondition is one — finds its plan (by shape) but no result of its
    own, and costs a shape lookup and one run of that plan, not a
    compilation.

    The update hot path does not re-run a constraint: the yes/no checks of
    the commit path — a denial constraint's instances at the rows an update
    inserted, guards, registered preconditions — come in through
    :meth:`holds_prepared`, which touches no memo (``prepared`` counts
    them) and probes the indexes the database carries along its
    ``apply_delta`` stream, so a check costs what the update touched.

    When compilation fails (a formula type the compiler does not know) the
    backend transparently falls back to the naive interpreter — and memoises
    the interpreter's result exactly like a compiled one, so repeated checks
    of an uncompilable constraint against the same database do not re-run the
    interpreter.
    """

    name = "compiled"

    def __init__(self, optimizer: Optional[str] = None):
        self._plans: _LRU = _LRU(_PLAN_CACHE_SIZE)
        # slotted sentence -> its plan, compiled verbatim (holds_prepared)
        self._prepared: _LRU = _LRU(_PLAN_CACHE_SIZE)
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
        self.streamed = 0
        self.prepared = 0
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
        self._prepared.clear()
        self._opt_plans.clear()
        self._fan_ins.clear()
        with self._memo_lock:
            self._memo.clear()

    def cache_stats(self) -> Dict[str, int]:
        with self._memo_lock:
            memo = sum(len(lru) for lru in self._memo.values())
        return {
            "plans": len(self._plans),
            "memo": memo,
            "optimized_plans": len(self._opt_plans),
            "plans_rewritten": self.plans_rewritten,
            "join_reorders": self.join_reorders,
            "complements_avoided": self.complements_avoided,
            "streamed": self.streamed,
            "prepared": self.prepared,
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
        return self._chosen(formula, self.plan_for(formula, variables), db, domain_key)

    def _chosen(
        self, formula: Formula, plan: Plan, db: Database, domain_key: Optional[frozenset]
    ) -> Plan:
        """``plan`` as the optimizer rewrites it for ``db``'s statistics profile."""
        if self.optimizer_mode == "off":
            return plan
        sizes, domain_bucket = db.size_profile()
        if domain_key is None:
            domain_size = len(db.active_domain)
            default_domain = True
        else:
            domain_size = len(domain_key)
            default_domain = False
            domain_bucket = size_bucket(domain_size)
        key = (plan, default_domain, sizes, domain_bucket)
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
        try:
            rows = self._execute_plan(plan, ctx, lazy=not variables)
        except (DatabaseError, SignatureError) as exc:
            # match the interpreter's error contract (missing relations or
            # Omega symbols surface as EvaluationError)
            from ..logic.evaluation import EvaluationError

            raise EvaluationError(str(exc)) from exc
        memo.put(memo_key, rows)
        return set(rows)

    def _context(self, formula, db, domain_key, signature) -> ExecutionContext:
        """An execution context binding the plan's slots to ``formula``'s constants."""
        return ExecutionContext(db, domain_key, signature, params=formula.shape()[1])

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
        lines.append(chosen.explain(estimator, ctx.cache, ctx.profiler))
        return "\n".join(lines)

    def _path(self, formula, db, variables, domain_key, signature) -> str:
        """Which way :meth:`extension` would answer ``formula`` at ``db`` now."""
        if self._memo_for(db).get((formula, variables, domain_key, signature)) is not None:
            return "memo"
        if variables:
            return "full execution"
        return "streamed (stops at the first witness)"

    def _execute_plan(self, plan: Plan, ctx: ExecutionContext, lazy: bool = False) -> Rows:
        """Full plan execution, or (``lazy``, a closed sentence) a streamed verdict."""
        if not lazy:
            return plan.rows(ctx)
        rows = self._stream(plan, ctx)
        self._bump("streamed")
        return rows

    def _stream(self, plan: Plan, ctx: ExecutionContext) -> Rows:
        """A sentence's plan streamed to its first root row, the sub-plans
        read twice materialised."""
        ctx.lazy, ctx.materialise = True, self._fan_in(plan)
        rows = frozenset({()}) if plan.nonempty(ctx) else frozenset()
        ctx.lazy = False
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

    def holds_prepared(self, formula, db, values=(), signature=EMPTY_SIGNATURE):
        """:meth:`Backend.holds_prepared` through ``formula``'s own plan.

        Compiled as it stands, once per formula: not by :meth:`Formula.shape`,
        which would number its constants from slot 0, over the slots already
        there.  The plan, chosen for ``db``'s statistics profile, streams to
        its first witness with ``values`` in ``ctx.params``; no memo.  A
        sentence the compiler rejects goes to
        :meth:`evaluate` with its values put in.
        """
        plan = self._prepared.get(formula)
        if plan is None:
            try:
                plan = compile_sentence(formula)
            except CompileError:
                plan = _UNCOMPILABLE
            self._prepared.put(formula, plan)
        if plan is _UNCOMPILABLE:
            return self.evaluate(bind_slots(formula, values), db, signature=signature)
        ctx = ExecutionContext(db, None, signature, params=tuple(values))
        try:
            rows = self._stream(self._chosen(formula, plan, db, None), ctx)
        except (DatabaseError, SignatureError) as exc:
            from ..logic.evaluation import EvaluationError

            raise EvaluationError(str(exc)) from exc
        self._bump("prepared")
        return bool(rows)


# ---------------------------------------------------------------------------
# the process-global active backend
# ---------------------------------------------------------------------------

#: Names accepted by :func:`backend_from_name` (and ``REPRO_BACKEND``).
BACKEND_NAMES = KNOBS_BY_NAME["REPRO_BACKEND"].choices


def backend_from_name(name: str) -> Backend:
    """Instantiate a backend by its registry name (see :data:`BACKEND_NAMES`)."""
    if name == "naive":
        return NaiveBackend()
    if name == "compiled":
        return CompiledBackend()
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
