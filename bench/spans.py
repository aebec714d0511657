"""Span tracing from outside the program: timing wrappers around entry points.

Nothing in ``src/`` is edited.  :class:`Tracer` replaces a function or method
with a wrapper that records one span — ``(id, parent, request, name, start,
end)`` — per call, keeps the spans in memory, and puts the original back on
:meth:`Tracer.uninstall`.  Nesting is tracked per thread, so a span's parent
is whatever wrapped call was running on the same thread when it began, and
``request`` is the id of the outermost span of that thread (one request
handler, or one maintained transaction).  A group-commit leader therefore
carries the store and WAL spans of its whole batch, and its followers show
the same interval as waiting inside ``TransactionService.execute``.

A span's **self time** is its duration minus the durations of its direct
children.  Children run on the parent's thread, one after another, so they
never overlap and self times add up to the root's duration exactly.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["Target", "SETUP_TARGETS", "HOT_TARGETS", "Tracer", "Aggregate"]


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``owner.attr``, recorded as span ``name``."""

    module: str
    owner: Optional[str]  # a class in ``module``, or None for a module global
    attr: str
    name: str


#: work done once per process or per template (classification, guard
#: derivation, parsing) — wrapped for the whole traced run, set-up included
SETUP_TARGETS: Tuple[Target, ...] = (
    Target("repro.service.admission", "AdmissionController", "register",
           "service.admission.register"),
    Target("repro.service.admission", None, "classify_preservation", "core.wpc.classify"),
    Target("repro.service.admission", None, "weakest_precondition", "core.wpc.wpc"),
    Target("repro.core.wpc", "WpcCalculator", "wpc", "core.wpc.wpc"),
    Target("repro.serve.protocol", None, "parse_formula", "logic.parser.parse"),
    Target("repro.serve.server", None, "parse_formula", "logic.parser.parse"),
    Target("repro.logic", None, "parse", "logic.parser.parse"),
)

#: the per-request path, wrapped only while the traced replay runs.  The two
#: ``TransactionServer`` handlers are the roots: one call per request, on the
#: worker thread that serves it.
HOT_TARGETS: Tuple[Target, ...] = (
    Target("repro.serve.server", "TransactionServer", "_execute_txn", "serve.server.handle"),
    Target("repro.serve.server", "TransactionServer", "_execute_read", "serve.server.handle"),
    Target("repro.serve.server", None, "drain_requests", "serve.protocol.decode"),
    Target("repro.serve.server", None, "json_response", "serve.protocol.encode"),
    Target("repro.service.scheduler", "TransactionService", "execute",
           "service.scheduler.execute"),
    Target("repro.service.scheduler", "TransactionService", "begin",
           "service.snapshots.begin"),
    Target("repro.service.scheduler", None, "validate", "service.snapshots.validate"),
    Target("repro.service.snapshots", "SnapshotTransaction", "evaluate",
           "service.snapshots.read"),
    Target("repro.service.snapshots", "SnapshotTransaction", "contains",
           "service.snapshots.read"),
    Target("repro.service.admission", "AdmissionController", "guard_for",
           "service.admission.guard_for"),
    Target("repro.db.storage", "Store", "pin", "db.storage.pin"),
    Target("repro.db.storage", "Store", "apply_delta", "db.storage.apply_delta"),
    Target("repro.db.storage", "Store", "commit_unchecked", "db.storage.commit"),
    Target("repro.db.database", "Database", "apply_delta", "db.database.apply_delta"),
    Target("repro.db.database", "Database", "index", "db.database.index"),
    Target("repro.db.wal", "WalStorageEngine", "commit_batch", "db.wal.commit_batch"),
    Target("repro.db.wal", "WalStorageEngine", "checkpoint", "db.wal.checkpoint"),
    Target("repro.engine.backend", "CompiledBackend", "evaluate", "engine.backend.evaluate"),
    Target("repro.engine.backend", "CompiledBackend", "extension", "engine.backend.extension"),
    Target("repro.engine.backend", "CompiledBackend", "plan_for", "engine.compile.plan"),
    Target("repro.engine.backend", None, "optimize_plan", "engine.optimize.optimize"),
    Target("repro.core.maintenance", "IntegrityMaintainer", "run", "core.maintenance.run"),
)

Span = Tuple[int, Optional[int], int, str, float, float]


@dataclass
class Aggregate:
    """Per span name: how often, how long in total, how long in self time."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0

    @property
    def mean_us(self) -> float:
        return self.total_s / self.calls * 1e6 if self.calls else 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: List[Tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------------------

    def _wrap(self, function, name: str):
        spans, ids, local, clock = self.spans, self._ids, self._local, time.perf_counter

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else None
            request = stack[0] if stack else span_id
            stack.append(span_id)
            begun = clock()
            try:
                return function(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                spans.append((span_id, parent, request, name, begun, ended))

        traced.__wrapped__ = function
        return traced

    def install(self, targets: Iterable[Target]) -> None:
        for target in targets:
            owner = importlib.import_module(target.module)
            if target.owner is not None:
                owner = getattr(owner, target.owner)
            original = owner.__dict__[target.attr]
            if isinstance(original, (staticmethod, classmethod)):
                raise TypeError(f"{target.name}: cannot wrap {type(original).__name__}")
            setattr(owner, target.attr, self._wrap(original, target.name))
            self._installed.append((owner, target.attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def take(self) -> List[Span]:
        """The spans recorded so far, removed from the tracer."""
        spans, self.spans[:] = list(self.spans), []
        return spans

    # -- reading -----------------------------------------------------------------------

    @staticmethod
    def aggregate(spans: Sequence[Span]) -> Dict[str, Aggregate]:
        child_time: Dict[int, float] = {}
        for _id, parent, _request, _name, begun, ended in spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (ended - begun)
        totals: Dict[str, Aggregate] = {}
        for span_id, _parent, _request, name, begun, ended in spans:
            entry = totals.setdefault(name, Aggregate())
            entry.calls += 1
            entry.total_s += ended - begun
            entry.self_s += (ended - begun) - child_time.get(span_id, 0.0)
        return totals

    @staticmethod
    def write(spans: Sequence[Span], path: Path) -> None:
        with open(path, "w") as out:
            for span_id, parent, request, name, begun, ended in spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "request": request,
                    "name": name, "start": begun, "end": ended,
                }) + "\n")
