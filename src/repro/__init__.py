"""repro — Verifiable Properties of Database Transactions.

A from-scratch reproduction of Benedikt, Griffin & Libkin, "Verifiable
Properties of Database Transactions" (PODS 1996; Information and Computation
147:57-88, 1998): weakest preconditions and prerelations for database
transactions, the transaction and specification languages the paper studies,
the finite-model-theory toolkit its proofs rely on, and an integrity-
maintenance engine demonstrating the practical payoff.

Sub-packages
------------
``repro.db``
    Relational schemas, finite databases, graph families, relational algebra,
    graph enumerations, a transactional storage engine, and the delta
    subsystem (``Delta`` / ``Database.apply_delta``) that makes functional
    updates O(|delta|).
``repro.logic``
    Specification languages: FO, FOc, FOc(Omega), FO with counting, monadic
    Sigma-1-1; parsing, evaluation, normal forms, rewriting.
``repro.fmt``
    Finite model theory: isomorphism, Hanf locality, Ehrenfeucht-Fraisse and
    Ajtai-Fagin games, Gaifman locality, degree counts.
``repro.transactions``
    Transaction languages: relational algebra (SPJ), the Qian-style
    first-order language, Datalog with stratified negation, recursive
    transactions (tc, dtc, same-generation), while-iteration.
``repro.core``
    The paper's contribution: prerelations, the weakest-precondition
    calculus, transaction-safety verification, integrity maintenance, robust
    verifiability, and the Theorem 5 / Theorem 7 constructions.
``repro.engine``
    The set-at-a-time query engine: FO formulas compiled to relational-
    algebra plans executed against indexed databases, behind a switchable
    backend protocol (``REPRO_BACKEND=naive|compiled``); a closed sentence
    is streamed to its first witness.
``repro.service``
    The concurrent transaction service: MVCC snapshots over the store,
    delta-based optimistic conflict validation, WPC-verified admission
    (statically safe shapes commit with zero runtime checks), group commit,
    and the workload scenario library behind the E16 benchmark
    (``REPRO_SERVICE_WORKERS`` selects the driver's thread count).

Quickstart
----------
>>> from repro.db import chain
>>> from repro.logic import parse
>>> from repro.transactions import FOProgram, DeleteWhere
>>> from repro.core import PrerelationSpec, WpcCalculator
>>> program = FOProgram([DeleteWhere("E", ("x", "y"), parse("E(y, x)"))])
>>> spec = PrerelationSpec.from_fo_program(program)
>>> wpc = WpcCalculator(spec).wpc(parse("forall x . ~E(x, x)"))
>>> # wpc holds on a database iff the constraint holds after the program runs.
"""

from . import core, db, engine, fmt, logic, service, transactions
from .engine import (
    CompiledBackend,
    NaiveBackend,
    active_backend,
    set_backend,
    using_backend,
)
from .core import (
    ChainTransaction,
    ChainWpcCalculator,
    Constraint,
    IntegrityMaintainer,
    PrerelationSpec,
    PrerelationTransaction,
    SemanticPrecondition,
    WpcCalculator,
    WpcError,
    check_wpc,
    make_safe,
    preserves_bounded,
    weakest_precondition,
)
from .db import Database, Schema, Store
from .logic import Formula, evaluate, parse
from .service import TransactionService, TransactionTemplate
from .transactions import FOProgram, Transaction

__version__ = "1.1.0"

__all__ = [
    "core",
    "db",
    "engine",
    "fmt",
    "logic",
    "service",
    "transactions",
    "CompiledBackend",
    "NaiveBackend",
    "active_backend",
    "set_backend",
    "using_backend",
    "ChainTransaction",
    "ChainWpcCalculator",
    "Constraint",
    "IntegrityMaintainer",
    "PrerelationSpec",
    "PrerelationTransaction",
    "SemanticPrecondition",
    "WpcCalculator",
    "WpcError",
    "check_wpc",
    "make_safe",
    "preserves_bounded",
    "weakest_precondition",
    "Database",
    "Schema",
    "Store",
    "Formula",
    "evaluate",
    "parse",
    "FOProgram",
    "Transaction",
    "TransactionService",
    "TransactionTemplate",
    "__version__",
]
