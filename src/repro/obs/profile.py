"""Plan-execution profiling: measured per-node wall time and cardinality.

The planner's ``EXPLAIN`` output has always shown *estimated* rows next to
*actual* rows (the executed context's per-node result cache).  This module
adds the third column: measured wall time per plan node.  A
:class:`PlanProfiler` attached to an :class:`~repro.engine.plan.ExecutionContext`
(``ctx.profiler``) makes :meth:`Plan.rows` time each node's evaluation —
`CompiledBackend.explain()` attaches one automatically, so estimated-vs-actual
becomes measured-vs-actual without any caller changes.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

__all__ = ["PlanProfiler"]


class PlanProfiler:
    """Per-node execution measurements for one (or more) plan executions.

    ``records`` maps each executed plan node to ``(seconds, rows, calls)``;
    the per-context result cache means a node normally executes once, but a
    node shared across several plans executed in the same context accumulates.
    """

    __slots__ = ("records",)

    def __init__(self) -> None:
        self.records: Dict[object, Tuple[float, int, int]] = {}

    def measure(self, node, compute):
        """Time ``compute()`` (the node's ``_rows``) and record the result."""
        started = time.perf_counter()
        rows = compute()
        elapsed = time.perf_counter() - started
        seconds, count, calls = self.records.get(node, (0.0, 0, 0))
        self.records[node] = (seconds + elapsed, len(rows), calls + 1)
        return rows

    def seconds(self, node) -> Optional[float]:
        record = self.records.get(node)
        return record[0] if record is not None else None

    def total_seconds(self) -> float:
        return sum(seconds for seconds, _rows, _calls in self.records.values())
