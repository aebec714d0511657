"""WPC-verified admission: each program's constraint work, decided by its shape.

The paper's point, turned into a serving-layer fast path.  A commit's
constraint work is decided by the *program* it runs — ``template.build(
*params)`` for an item of a registered template, the transaction itself for
a bare :class:`~repro.transactions.base.Transaction` — and a verdict belongs
to the program's **shape**: the program with its constants factored into
:class:`~repro.logic.terms.Param` slots
(:func:`repro.core.simplification.program_shape`).  ``link-forward(a, b)``
and ``add-edge(a, b)`` with ``a != b`` are one shape whatever their names;
``add-edge(a, a)`` is another.  Per (shape, constraint):

* **static** — the shape's guard is ``true``, a proof that every instance
  preserves the constraint from any consistent state, so its commits run
  with *zero* runtime constraint checks;
* **guarded** — a pre-state guard is evaluated at commit time; a failing
  guard rejects the transaction before it touches the store, so nothing is
  ever rolled back;
* **runtime** — no syntactic precondition exists: the scheduler falls back to
  post-state checking (the :class:`RuntimeCheckPolicy` strategy: at the
  inserted rows for a constraint in denial form, in full otherwise).

The first instance of a shape is classified by
:func:`repro.core.wpc.classify_preservation` against every constraint — its
guard is the paper's closing-remark ``Delta`` for a program of tuple inserts
and deletions and a constraint in denial form
(:func:`repro.core.simplification.derived_guard`), the mechanical ``wpc``
otherwise, both exact under the invariant and both over the shape's slots.
Mode, slotted guard and source are cached under the shape; every later
instance costs one dictionary read and :func:`bind_slots`.  A program with no
shape is classified on its own, every time.  Templates carry only a name and
a builder: registering one classifies nothing.  A verdict holds for every
service over the same constraints, so services may share the shape cache
(:meth:`AdmissionController.sharing_verdicts`); a template name belongs to
the service it was registered with.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..core.maintenance import Constraint
from ..core.simplification import bind_slots, program_shape
# the classification of each new shape (wrapped by bench/spans.py)
from ..core.wpc import PreservationVerdict, classify_preservation
# the mechanical wpc /stats compares each guard with (wrapped by bench/spans.py)
from ..core.wpc import WpcError, weakest_precondition
from ..logic.syntax import Formula, FormulaError
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..transactions.base import Transaction
from ..transactions.fo_transactions import FOProgram, InsertTuple

__all__ = ["TransactionTemplate", "AdmissionController"]


class TransactionTemplate:
    """A named, parameterised transaction shape.

    ``build(*params)`` must return the transaction instance (usually an
    :class:`FOProgram`, anything :func:`weakest_precondition` accepts) for one
    parameter tuple: the program admission judges when a callable is
    submitted under the template's name.
    """

    def __init__(self, name: str, build: Callable[..., Transaction]):
        self.name = name
        self.build = build

    def __repr__(self) -> str:
        return f"TransactionTemplate({self.name!r})"


class _Shape:
    """What the first instance of one program shape decided."""

    __slots__ = ("program", "verdicts", "wpcs")

    def __init__(self, program: FOProgram, verdicts: Dict[str, PreservationVerdict]):
        self.program = program  # the shape itself: the program over its slots
        self.verdicts = verdicts  # per constraint name, guards over the slots
        self.wpcs: Optional[Dict[str, Optional[Formula]]] = None  # on first stats()


class AdmissionController:
    """Classify program shapes against the service's constraints.

    Thread-safe.  :meth:`register` records a template's builder;
    :meth:`guard_for` judges one program, classifying its shape the first
    time it is seen and reading the cache afterwards.
    """

    def __init__(self, constraints: Sequence[Constraint]):
        self.constraints = list(constraints)
        self._lock = threading.Lock()
        self._templates: Dict[str, TransactionTemplate] = {}
        self._shapes: Dict[Tuple[object, ...], _Shape] = {}
        # bookkeeping for reports/benchmarks (mirrored into the metrics
        # registry under service.admission.* — docs/observability.md)
        self.classified = 0
        self.guard_cache_hits = 0
        registry = _metrics.get_registry()
        self._m_classified = registry.counter("service.admission.classified")
        self._m_guard_cache_hits = registry.counter(
            "service.admission.guard_cache_hits"
        )

    # -- registration --------------------------------------------------------------

    # the registration span of the traced benchmark (wrapped by bench/spans.py)
    def register(self, template: TransactionTemplate) -> None:
        """Record ``template``'s builder under its name; classifies nothing.

        Idempotent per name: the first template registered under a name
        keeps it.
        """
        with self._lock:
            self._templates.setdefault(template.name, template)

    def template(self, name: Optional[str]) -> Optional[TransactionTemplate]:
        """The template registered under ``name`` (``None`` if unknown)."""
        with self._lock:
            return self._templates.get(name)

    def sharing_verdicts(self) -> "AdmissionController":
        """A controller over this one's constraints and shape -> verdict
        cache, with a name -> builder table of its own (empty)."""
        other = AdmissionController(self.constraints)
        other._lock, other._shapes = self._lock, self._shapes
        return other

    # -- per-request verdicts (the caller's thread) --------------------------------

    # the per-request verdict lookup of the traced benchmark (wrapped by bench/spans.py)
    def guard_for(self, program: Transaction) -> Dict[str, PreservationVerdict]:
        """``program``'s verdict for every constraint, by constraint name.

        A *guarded* verdict carries the program's own guard: its shape's,
        bound to its constants.  The shape is classified the first time one
        of its instances arrives; a program :func:`program_shape` rejects is
        classified on its own, uncached.
        """
        shape = program_shape(program)
        if shape is None:
            return {
                constraint.name: classify_preservation(program, constraint.formula)
                for constraint in self.constraints
            }
        key, values = shape
        entry = self._shapes.get(key)
        if entry is None:
            entry = self._classify(program, key)
        else:
            with self._lock:
                self.guard_cache_hits += 1
            self._m_guard_cache_hits.inc()
        return {
            name: verdict
            if verdict.mode != "guarded"
            else PreservationVerdict(
                "guarded", bind_slots(verdict.guard, values), verdict.source,
                verdict.reason,
            )
            for name, verdict in entry.verdicts.items()
        }

    def _classify(self, program: Transaction, key: Tuple[object, ...]) -> _Shape:
        """Classify the shape ``key`` of ``program`` against every constraint."""
        schema, statements = key
        with _trace.span("service.admission.classify", shape=_render(statements)):
            verdicts = {
                constraint.name: classify_preservation(program, constraint.formula)
                for constraint in self.constraints
            }
        slotted = FOProgram(statements, schema=schema, signature=program.signature)
        with self._lock:
            entry = self._shapes.get(key)
            if entry is not None:  # another caller classified it meanwhile
                return entry
            entry = self._shapes[key] = _Shape(slotted, verdicts)
            self.classified += len(verdicts)
        self._m_classified.inc(len(verdicts))
        return entry

    # -- observability -------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Classification bookkeeping (part of the merged observability view).

        ``guards`` lists, per classified (shape, constraint), the verdict's
        ``mode``, where its guard comes from (``source``: ``derived`` or
        ``wpc``), and the size and quantifier rank of the shape's guard next
        to its mechanical ``wpc``'s — computed on the first call, not at
        classification.
        """
        with self._lock:
            shapes = list(self._shapes.values())
        rows = []
        for entry in shapes:
            if entry.wpcs is None:
                entry.wpcs = {
                    constraint.name: _mechanical(entry.program, constraint)
                    for constraint in self.constraints
                }
            shape = _render(entry.program.statements)
            for name, verdict in entry.verdicts.items():
                guard, wpc = verdict.guard, entry.wpcs.get(name)
                rows.append(
                    {
                        "shape": shape,
                        "constraint": name,
                        "mode": verdict.mode,
                        "source": verdict.source,
                        "guard_size": guard.size() if guard is not None else 0,
                        "guard_rank": guard.quantifier_rank() if guard is not None else 0,
                        "wpc_size": wpc.size() if wpc is not None else 0,
                        "wpc_rank": wpc.quantifier_rank() if wpc is not None else 0,
                    }
                )
        rows.sort(key=lambda row: (row["shape"], row["constraint"]))
        with self._lock:
            return {
                "templates": len(self._templates),
                "classified": self.classified,
                "guard_cache_hits": self.guard_cache_hits,
                "guards": rows,
            }

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"AdmissionController(templates={sorted(self._templates)}, "
                f"shapes={len(self._shapes)}, "
                f"constraints={[c.name for c in self.constraints]})"
            )


def _mechanical(program: FOProgram, constraint: Constraint) -> Optional[Formula]:
    """The mechanical ``wpc`` of a shape (``None`` when there is none)."""
    if not isinstance(constraint.formula, Formula):
        return None
    try:
        return weakest_precondition(program, constraint.formula)
    except (WpcError, FormulaError):  # no prerelations: checked at run time
        return None


def _render(statements: Sequence[object]) -> str:
    """A shape's statements, one line: ``insert E($0, $1)``, ``delete ...``."""
    return "; ".join(
        f"insert {s.relation}({', '.join(map(str, s.terms))})"
        if type(s) is InsertTuple
        else f"delete {s.relation}({', '.join(s.variables)}) where {s.condition}"
        for s in statements
    )
