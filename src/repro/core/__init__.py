"""The paper's core contribution: prerelations, weakest preconditions,
transaction-safety verification, integrity maintenance, robust verifiability
and the Theorem 5 / Theorem 7 constructions.
"""

from .prerelations import PrerelationSpec, PrerelationTransaction, gamma_closure
from .wpc import (
    PreservationVerdict,
    SemanticPrecondition,
    WpcCalculator,
    WpcError,
    check_wpc,
    check_wpc_stream,
    classify_preservation,
    find_wpc_counterexample,
    find_wpc_counterexample_stream,
    weakest_precondition,
)
from .chain_transaction import (
    ChainTransaction,
    ChainWpcCalculator,
    chain_transaction_datalog,
    diagonal_truth_profile,
    linear_order_truth_profile,
)
from .verification import (
    PreservationReduction,
    find_preservation_counterexample,
    holds,
    make_safe,
    preserves_bounded,
    preserves_on,
    preserves_randomized,
)
from .maintenance import (
    Constraint,
    IntegrityMaintainer,
    MaintenancePolicy,
    MaintenanceReport,
    RuntimeCheckPolicy,
    StaticPreconditionPolicy,
    UncheckedPolicy,
)
from .robust import (
    RobustnessResult,
    chain_test_reduction,
    erase_constants,
    generic_prerelation_from_wpc,
    proposition5_constraint,
    robustness_check,
)
from .simplification import equivalent_under
from .diagonal import (
    DiagonalConstruction,
    DiagonalTransaction,
    SentenceEnumeration,
    default_sentence_enumeration,
    describe_graph_exactly,
)

__all__ = [
    "PrerelationSpec",
    "PrerelationTransaction",
    "gamma_closure",
    "SemanticPrecondition",
    "WpcCalculator",
    "WpcError",
    "check_wpc",
    "check_wpc_stream",
    "find_wpc_counterexample",
    "find_wpc_counterexample_stream",
    "weakest_precondition",
    "PreservationVerdict",
    "classify_preservation",
    "ChainTransaction",
    "ChainWpcCalculator",
    "chain_transaction_datalog",
    "diagonal_truth_profile",
    "linear_order_truth_profile",
    "PreservationReduction",
    "find_preservation_counterexample",
    "holds",
    "make_safe",
    "preserves_bounded",
    "preserves_on",
    "preserves_randomized",
    "Constraint",
    "IntegrityMaintainer",
    "MaintenancePolicy",
    "MaintenanceReport",
    "RuntimeCheckPolicy",
    "StaticPreconditionPolicy",
    "UncheckedPolicy",
    "RobustnessResult",
    "chain_test_reduction",
    "erase_constants",
    "generic_prerelation_from_wpc",
    "proposition5_constraint",
    "robustness_check",
    "equivalent_under",
    "DiagonalConstruction",
    "DiagonalTransaction",
    "SentenceEnumeration",
    "default_sentence_enumeration",
    "describe_graph_exactly",
]
