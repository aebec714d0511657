"""``repro.obs`` — the unified observability layer.

Three pillars, one import:

* :mod:`repro.obs.metrics` — the process-wide :class:`MetricsRegistry`
  (counters / gauges / histograms under dotted names, ``REPRO_METRICS`` knob,
  JSON snapshot + Prometheus text exposition);
* :mod:`repro.obs.trace` — span tracing of per-transaction timelines
  (``REPRO_TRACE`` knob, ring buffer, JSON-lines dump);
* :mod:`repro.obs.profile` — per-plan-node wall-time/cardinality profiling
  merged into ``backend.explain()``.

See ``docs/observability.md`` for the naming scheme and the span model, and
:mod:`repro.settings` for the knobs.
"""

from . import trace
from .metrics import (
    LEGACY_KEY_MAP,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    configure as configure_metrics,
    get_registry,
    merge_snapshots,
    metrics_enabled,
)
from .profile import PlanProfiler
from .trace import span, trace_enabled

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "LEGACY_KEY_MAP",
    "PlanProfiler",
    "configure_metrics",
    "get_registry",
    "merge_snapshots",
    "metrics_enabled",
    "span",
    "trace",
    "trace_enabled",
]
