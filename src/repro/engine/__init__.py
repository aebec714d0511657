"""The set-at-a-time query engine.

This package is the single evaluation spine of the repo: first-order formulas
are compiled to bottom-up relational-algebra plans (``compile``), executed by
hash-join-style physical operators against indexed databases (``plan``), and
served behind a switchable backend protocol (``backend``) that the logic,
core, transactions and benchmark layers all dispatch through.

Quick orientation:

* :mod:`repro.engine.plan` — physical operators (scan, select, project, hash
  join/semijoin/antijoin, union, domain complement, grouped counting);
* :mod:`repro.engine.compile` — FO → plan translation with selection pushdown
  and early projection;
* :mod:`repro.engine.backend` — :class:`NaiveBackend` (the original recursive
  interpreter, kept as the semantics oracle) and :class:`CompiledBackend`
  (plans + per-``(formula, db)`` memo), plus the process-global active
  backend selected by ``REPRO_BACKEND``.
"""

from .plan import (
    Antijoin,
    ConstantTable,
    DomainComplement,
    DomainDiagonal,
    DomainProduct,
    DomainScan,
    ExecutionContext,
    GroupCount,
    HashJoin,
    Plan,
    PlanError,
    Project,
    Scan,
    Select,
    SingletonIfActive,
    UnionAll,
)
from .compile import CompileError, compile_extension, compile_sentence
from .stats import ColumnStats, DatabaseStats, RelationStats
from .optimize import Estimator, optimize_plan
from .backend import (
    BACKEND_NAMES,
    Backend,
    CompiledBackend,
    NaiveBackend,
    active_backend,
    backend_from_name,
    set_backend,
    using_backend,
)

__all__ = [
    "Antijoin",
    "ConstantTable",
    "DomainComplement",
    "DomainDiagonal",
    "DomainProduct",
    "DomainScan",
    "ExecutionContext",
    "GroupCount",
    "HashJoin",
    "Plan",
    "PlanError",
    "Project",
    "Scan",
    "Select",
    "SingletonIfActive",
    "UnionAll",
    "CompileError",
    "compile_extension",
    "compile_sentence",
    "ColumnStats",
    "DatabaseStats",
    "RelationStats",
    "Estimator",
    "optimize_plan",
    "BACKEND_NAMES",
    "Backend",
    "CompiledBackend",
    "NaiveBackend",
    "active_backend",
    "backend_from_name",
    "set_backend",
    "using_backend",
]
