"""Plan-execution profiling: measured node times in explain."""

import re

from repro.db import Database
from repro.engine.backend import CompiledBackend
from repro.logic import parse
from repro.obs.profile import PlanProfiler


class TestPlanProfiler:
    def test_measure_accumulates_per_node(self):
        profiler = PlanProfiler()
        node = object()
        assert profiler.measure(node, lambda: frozenset({(1,)})) == frozenset({(1,)})
        profiler.measure(node, lambda: frozenset())
        seconds = profiler.seconds(node)
        assert seconds is not None and seconds >= 0.0
        assert profiler.seconds(object()) is None
        assert profiler.total_seconds() >= seconds

    def test_explain_includes_measured_times(self):
        backend = CompiledBackend()
        db = Database.graph([(1, 2), (2, 3), (3, 1)])
        text = backend.explain(
            parse("forall x . forall y . (E(x, y) -> E(y, x))"), db
        )
        timed_lines = [l for l in text.splitlines() if "time=" in l]
        assert timed_lines, text
        for line in timed_lines:
            match = re.search(r"time=(\d+\.\d+)ms", line)
            assert match is not None, line
            assert float(match.group(1)) >= 0.0

    def test_rows_without_profiler_slot_still_work(self):
        backend = CompiledBackend()
        db = Database.graph([(1, 2)])
        assert backend.evaluate(parse("forall x . ~E(x, x)"), db)
