"""WPC-verified admission: decide once how much checking each commit needs.

The paper's point, turned into a serving-layer fast path: for a *registered*
transaction shape the constraint work of its commits is decided **once**,
and every subsequent commit of that shape consults a per-``(transaction,
constraint)`` verdict cache instead of doing constraint work:

* **static** — the shape preserves the constraint from any consistent
  state, so its commits run with *zero* runtime constraint checks;
* **guarded** — a pre-state guard is evaluated at commit time; a failing
  guard rejects the transaction before it touches the store, so nothing is
  ever rolled back;
* **runtime** — no syntactic precondition exists: the scheduler falls back to
  post-state checking (the :class:`RuntimeCheckPolicy` strategy: at the
  inserted rows for a constraint in denial form, in full otherwise).

Shapes are registered as **templates**: a builder producing an
:class:`~repro.transactions.fo_transactions.FOProgram` instance per parameter
tuple, plus sample parameters.  For a program of tuple inserts and deletions
and a constraint in denial form the guard is the paper's closing-remark
``Delta``, derived from the program and the constraint
(:func:`repro.core.simplification.derived_guard`): exact under the
invariant, one formula per shape of the program's constants, so the verdict
is ``static`` when every sample's ``Delta`` is ``true`` and ``guarded``
otherwise — no bounded sweep.  Any other pair is classified by
:func:`repro.core.wpc.classify_preservation` on every sample, the *most
conservative* verdict winning, and guarded by its mechanical ``wpc``.
Either guard is computed once per (template, constraint, shape) and bound
to each instance's constants.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.maintenance import Constraint
from ..core.simplification import bind_slots, derived_guard, program_shape
# classification of pairs outside the derived fragment (wrapped by bench/spans.py)
from ..core.wpc import PreservationVerdict, classify_preservation
# the mechanical guard of pairs outside the fragment (wrapped by bench/spans.py)
from ..core.wpc import WpcError, weakest_precondition
from ..db.database import Database
from ..logic.signature import EMPTY_SIGNATURE, Signature
from ..logic.syntax import TOP, Formula, FormulaError
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..transactions.base import Transaction
from ..transactions.fo_transactions import FOProgram
from .snapshots import ServiceError

__all__ = ["TransactionTemplate", "AdmissionController"]

#: severity order used when samples of one template disagree
_MODE_RANK = {"static": 0, "guarded": 1, "runtime": 2}


class TransactionTemplate:
    """A named, parameterised transaction shape.

    ``build(*params)`` must return the transaction instance (usually an
    :class:`FOProgram`, anything :func:`weakest_precondition` accepts) for one
    parameter tuple; ``samples`` are representative parameter tuples used for
    classification — supply one per qualitatively different instance shape.
    """

    def __init__(
        self,
        name: str,
        build: Callable[..., Transaction],
        samples: Sequence[Tuple] = ((),),
    ):
        if not samples:
            raise ServiceError(f"template {name!r} needs at least one sample")
        self.name = name
        self.build = build
        self.samples = tuple(tuple(s) for s in samples)

    def __repr__(self) -> str:
        return f"TransactionTemplate({self.name!r}, samples={len(self.samples)})"


class _Pair:
    """What registration decided for one (template, constraint) pair."""

    __slots__ = ("mode", "source", "guards", "wpcs")

    def __init__(self, mode: str, source: str, guards: List[Formula]):
        self.mode = mode
        self.source = source  # "derived" or "wpc"
        self.guards = guards  # per sample: the guard registration computed
        self.wpcs: Optional[List[Formula]] = None  # per sample, on first stats()


class AdmissionController:
    """Classify registered transaction shapes against the service's constraints.

    Thread-safe; classification happens at registration time (offline, the
    point of static verification), lookups at commit time are dictionary
    reads.  Guard formulas for *guarded* verdicts are computed once per
    (template, constraint, shape of the instance's constants) and bound to
    each instance's constants.
    """

    def __init__(
        self,
        constraints: Sequence[Constraint],
        signature: Signature = EMPTY_SIGNATURE,
        family: Optional[Sequence[Database]] = None,
    ):
        self.constraints = list(constraints)
        self.signature = signature
        self.family = list(family) if family is not None else None
        # the default verification family, built on first use and kept: the
        # same Database objects serve every classification, so the engine
        # evaluates an invariant on each of them once, not once per call
        self._graph_family: Optional[List[Database]] = None
        self._lock = threading.Lock()
        self._templates: Dict[str, TransactionTemplate] = {}
        self._verdicts: Dict[str, Dict[str, PreservationVerdict]] = {}
        self._pairs: Dict[Tuple[str, str], _Pair] = {}
        self._guard_cache: Dict[Tuple[str, str, Tuple], Formula] = {}
        # bookkeeping for reports/benchmarks (mirrored into the metrics
        # registry under service.admission.* — docs/observability.md)
        self.classified = 0
        self.guard_cache_hits = 0
        registry = _metrics.get_registry()
        self._m_classified = registry.counter("service.admission.classified")
        self._m_guard_cache_hits = registry.counter(
            "service.admission.guard_cache_hits"
        )

    # -- registration (offline) --------------------------------------------------

    # the registration span of the traced benchmark (wrapped by bench/spans.py)
    def register(self, template: TransactionTemplate) -> Dict[str, PreservationVerdict]:
        """Classify ``template`` against every constraint; returns the verdicts.

        Idempotent per template name.  Nothing is written into the
        constraints' precondition tables: a precondition belongs to one
        transaction instance, not to a template's name.
        """
        with self._lock:
            cached = self._verdicts.get(template.name)
            if cached is not None:
                return dict(cached)
        verdicts: Dict[str, PreservationVerdict] = {}
        pairs: Dict[Tuple[str, str], _Pair] = {}
        with _trace.span("service.admission.classify", template=template.name):
            for constraint in self.constraints:
                verdicts[constraint.name], pairs[(template.name, constraint.name)] = (
                    self._classify(template, constraint)
                )
        with self._lock:
            self._templates[template.name] = template
            self._verdicts[template.name] = verdicts
            self._pairs.update(pairs)
            self.classified += len(verdicts)
        self._m_classified.inc(len(verdicts))
        return dict(verdicts)

    def _classify(
        self, template: TransactionTemplate, constraint: Constraint
    ) -> Tuple[PreservationVerdict, _Pair]:
        """One (template, constraint) verdict, from the derived guards of the
        samples when every one has one, else the worst sample's
        :func:`classify_preservation`."""
        programs = [template.build(*params) for params in template.samples]
        derived = [derived_guard(program, constraint.formula) for program in programs]
        if all(found is not None for found in derived):
            guards = [found[0] for found in derived]
            mode = "static" if all(guard == TOP for guard in guards) else "guarded"
            verdict = PreservationVerdict(
                mode, None, None, "guard derived from the constraint's denial form"
            )
            return verdict, _Pair(mode, "derived", guards)
        worst: Optional[PreservationVerdict] = None
        guards = []
        for program in programs:
            verdict = classify_preservation(
                program,
                constraint.formula,
                databases=self._family_for(program),
                signature=self.signature,
                # the guard is the per-shape wpc — skip the simplification sweep
                simplify_guard=False,
            )
            if verdict.precondition is not None:
                guards.append(verdict.precondition)
            if worst is None or _MODE_RANK[verdict.mode] > _MODE_RANK[worst.mode]:
                worst = verdict
        assert worst is not None
        return worst, _Pair(worst.mode, "wpc", guards)

    def _family_for(self, transaction: Transaction) -> List[Database]:
        """The bounded-verification family for one transaction's schema.

        The caller's family when one was given; otherwise every graph on at
        most 3 nodes for graph-schema transactions (built once per
        controller) and the empty family for anything else — the defaults of
        :func:`~repro.core.wpc.classify_preservation`.
        """
        if self.family is not None:
            return self.family
        from ..db.graph import all_graphs
        from ..db.schema import GRAPH_SCHEMA

        if getattr(transaction, "schema", None) != GRAPH_SCHEMA:
            return []
        with self._lock:
            if self._graph_family is None:
                self._graph_family = list(all_graphs(3))
            return self._graph_family

    # -- commit-time lookups (hot path) -------------------------------------------

    def verdicts_for(
        self, template_name: Optional[str]
    ) -> Optional[Mapping[str, PreservationVerdict]]:
        """The cached verdicts of a registered template (``None`` if unknown)."""
        if template_name is None:
            return None
        with self._lock:
            return self._verdicts.get(template_name)

    def stats(self) -> Dict[str, object]:
        """Classification bookkeeping (part of the merged observability view).

        ``guards`` lists, per (template, constraint), the verdict's ``mode``,
        where its guard comes from (``source``: ``derived`` or ``wpc``), and
        the largest size and quantifier rank among the samples' guards next
        to their mechanical ``wpc``'s — computed on the first call, not at
        registration.
        """
        with self._lock:
            templates = dict(self._templates)
            pairs = dict(self._pairs)
        rows = []
        for (template_name, constraint_name), pair in sorted(pairs.items()):
            if pair.wpcs is None:
                pair.wpcs = self._mechanical(templates[template_name], constraint_name)
            rows.append(
                {
                    "template": template_name,
                    "constraint": constraint_name,
                    "mode": pair.mode,
                    "source": pair.source,
                    "guard_size": max((g.size() for g in pair.guards), default=0),
                    "guard_rank": max((g.quantifier_rank() for g in pair.guards), default=0),
                    "wpc_size": max((w.size() for w in pair.wpcs), default=0),
                    "wpc_rank": max((w.quantifier_rank() for w in pair.wpcs), default=0),
                }
            )
        with self._lock:
            return {
                "templates": len(self._templates),
                "classified": self.classified,
                "guard_cache_hits": self.guard_cache_hits,
                "guards": rows,
            }

    def _mechanical(self, template: TransactionTemplate, constraint_name: str) -> List[Formula]:
        """The mechanical ``wpc`` of each sample (none for a semantic constraint)."""
        constraint = next(c for c in self.constraints if c.name == constraint_name)
        if not isinstance(constraint.formula, Formula):
            return []
        try:
            return [
                weakest_precondition(template.build(*params), constraint.formula)
                for params in template.samples
            ]
        except (WpcError, FormulaError):  # no prerelations: checked at run time
            return []

    # the per-instance guard lookup of the traced benchmark (wrapped by bench/spans.py)
    def guard_for(
        self, template_name: str, constraint: Constraint, params: Tuple
    ) -> Formula:
        """The pre-state guard for one *guarded* instance.

        The guard of the instance's shape — the derived ``Delta`` inside the
        fragment, the mechanical ``wpc`` of the program over its slots
        outside it — is computed once per (template, constraint, shape) and
        bound to ``params``' constants; a program whose constants cannot be
        factored into slots gets its own ``wpc`` every time.
        """
        with self._lock:
            template = self._templates.get(template_name)
        if template is None:
            raise ServiceError(f"template {template_name!r} is not registered")
        program = template.build(*params)
        shape = program_shape(program)
        if shape is None:
            if not isinstance(constraint.formula, Formula):
                return TOP
            return weakest_precondition(program, constraint.formula)
        key, values = shape
        cache_key = (template_name, constraint.name, key)
        with self._lock:
            guard = self._guard_cache.get(cache_key)
            if guard is not None:
                self.guard_cache_hits += 1
        if guard is not None:
            self._m_guard_cache_hits.inc()
            return bind_slots(guard, values)
        derived = derived_guard(program, constraint.formula)
        if derived is not None:
            guard = derived[0]
        elif isinstance(constraint.formula, Formula):
            schema, statements = key
            guard = weakest_precondition(
                FOProgram(statements, schema=schema, signature=program.signature),
                constraint.formula,
            )
        else:
            guard = TOP
        with self._lock:
            self._guard_cache[cache_key] = guard
        return bind_slots(guard, values)

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"AdmissionController(templates={sorted(self._templates)}, "
                f"constraints={[c.name for c in self.constraints]})"
            )
