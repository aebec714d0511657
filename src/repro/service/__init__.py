"""The concurrent transaction service: MVCC + WPC admission + group commit.

This package is the serving layer the ROADMAP's north star asks for: it turns
the single-writer :class:`~repro.db.storage.Store` into a multi-client
transaction processor while keeping the paper's guarantee — integrity
constraints stay true on every committed state — at the lowest runtime cost
the theory allows.

Quick orientation:

* :mod:`repro.service.snapshots` — MVCC: pinned ``(version, Database)``
  snapshots, tracked read/write transaction handles, and delta-based
  optimistic conflict validation (a predicate read is re-checked at the
  shifted state, streamed to its first witness);
* :mod:`repro.service.admission` — WPC-verified admission: registered
  transaction shapes are classified once (``static`` / ``guarded`` /
  ``runtime``, see :func:`repro.core.wpc.classify_preservation`) and the
  verdict cache decides the constraint work of every commit — ``static``
  only when the shape's derived ``Delta`` or ``wpc`` is ``true``;
* :mod:`repro.service.scheduler` — the service itself: optimistic parallel
  execution, a leader/follower **group-commit** pipeline batching committed
  deltas into one ``apply_delta`` on the canonical store, conflict retries
  with a serial fallback, and fail-fast timeouts;
* :mod:`repro.service.workloads` — the scenario library (read-heavy,
  write-heavy, constraint-heavy, mixed) and the threaded driver + serial
  baseline behind the E16 benchmark.

Isolation level: **serializable** — every committed history is equivalent to
executing the committed transactions serially in commit order (stress-tested
by ``tests/service/test_serializability.py``).

The ``REPRO_SERVICE_WORKERS`` environment variable selects the default
worker-thread count of the workload driver (see :mod:`repro.settings`).
"""

from .admission import AdmissionController, TransactionTemplate
from .scheduler import (
    ServiceStats,
    TransactionService,
    TxnItem,
    TxnOutcome,
)
from .snapshots import (
    ReadSet,
    ServiceError,
    SnapshotManager,
    SnapshotTransaction,
    validate,
)
from .workloads import (
    NO_LOOPS,
    NO_TRIANGLES,
    SCENARIOS,
    WorkItem,
    WorkloadReport,
    build_service,
    build_streams,
    forward_graph,
    run_serial_baseline,
    run_workload,
    standard_constraints,
    standard_templates,
)

__all__ = [
    "AdmissionController",
    "TransactionTemplate",
    "ServiceStats",
    "TransactionService",
    "TxnItem",
    "TxnOutcome",
    "ReadSet",
    "ServiceError",
    "SnapshotManager",
    "SnapshotTransaction",
    "validate",
    "NO_LOOPS",
    "NO_TRIANGLES",
    "SCENARIOS",
    "WorkItem",
    "WorkloadReport",
    "build_service",
    "build_streams",
    "forward_graph",
    "run_serial_baseline",
    "run_workload",
    "standard_constraints",
    "standard_templates",
]
