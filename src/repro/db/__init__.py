"""Database substrate: schemas, finite databases, graphs, relational algebra,
graph enumerations and a small transactional storage engine.

The classes here model exactly the paper's formal setting (Section 2): a fixed
countably infinite universe, relational schemas, and databases as finite
interpretations, with the single-binary-predicate graph schema as the default.
"""

from .schema import GRAPH_SCHEMA, RelationSchema, Schema, SchemaError
from .database import Database, DatabaseError
from .delta import Delta, DeltaError
from . import algebra
from .enumeration import (
    GraphEnumeration,
    IsomorphismFreeEnumeration,
    count_graphs_on,
    enumerate_graphs,
)
from .graph import (
    all_graphs,
    all_graphs_up_to_iso,
    binary_tree,
    chain,
    chain_and_cycles,
    chain_component,
    complete_graph,
    connected_components,
    cycle,
    deterministic_transitive_closure,
    diagonal_graph,
    double_cycle_family,
    graph_from_edges,
    is_chain,
    is_chain_and_cycle_graph,
    is_simple_cycle,
    linear_order,
    random_graph,
    same_generation,
    single_cycle_family,
    star,
    transitive_closure,
    two_branch_tree,
    weakly_connected,
)
from .engines import (
    MemoryEngine,
    RecoveredState,
    StorageEngine,
    StorageEngineError,
    engine_from_env,
)
from .storage import Store, StorageError, TransactionStats, WriteOp
from .wal import WalStorageEngine

__all__ = [
    "GRAPH_SCHEMA",
    "RelationSchema",
    "Schema",
    "SchemaError",
    "Database",
    "DatabaseError",
    "Delta",
    "DeltaError",
    "algebra",
    "GraphEnumeration",
    "IsomorphismFreeEnumeration",
    "count_graphs_on",
    "enumerate_graphs",
    "all_graphs",
    "all_graphs_up_to_iso",
    "binary_tree",
    "chain",
    "chain_and_cycles",
    "chain_component",
    "complete_graph",
    "connected_components",
    "cycle",
    "deterministic_transitive_closure",
    "diagonal_graph",
    "double_cycle_family",
    "graph_from_edges",
    "is_chain",
    "is_chain_and_cycle_graph",
    "is_simple_cycle",
    "linear_order",
    "random_graph",
    "same_generation",
    "single_cycle_family",
    "star",
    "transitive_closure",
    "two_branch_tree",
    "weakly_connected",
    "MemoryEngine",
    "RecoveredState",
    "StorageEngine",
    "StorageEngineError",
    "WalStorageEngine",
    "engine_from_env",
    "Store",
    "StorageError",
    "TransactionStats",
    "WriteOp",
]
