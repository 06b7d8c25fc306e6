"""Engine-wide observability: metrics, tracing spans, picklable snapshots.

The package is a *zero-overhead-when-disabled* layer the engines report into:

* :mod:`repro.obs.metrics` — a process-wide registry of counters, gauges and
  histograms.  Disabled by default: :func:`get_metrics` answers a no-op
  singleton whose instruments share one do-nothing object, so instrumented
  code allocates nothing on the hot path.  Enabled via
  :func:`enable_metrics` or the ``REPRO_METRICS=1`` environment variable
  (which worker processes inherit).
* :mod:`repro.obs.tracing` — wall/CPU-timed spans (context manager +
  decorator, parent-child nesting) and one-line log-style events, serialised
  as JSONL trace records.  A no-op singleton tracer is active until a sink is
  installed (:func:`trace_to`), so ``span(...)`` costs one attribute lookup
  when tracing is off.
* :mod:`repro.obs.snapshot` — :class:`MetricsSnapshot`, the picklable,
  associatively-mergeable unit of cross-process telemetry transfer the sweep
  executor ships back from its workers.
* :mod:`repro.obs.report` — folds a result store's JSONL records plus the
  ``.trace.jsonl`` / ``.metrics.json`` sidecars into the ``python -m repro
  stats`` report.

The one invariant every instrumentation point honours: **observability
observes, it never perturbs** — no metric or span touches an RNG stream or a
result value, so the differential suites stay bit-identical with metrics on.
"""

from repro.obs.metrics import (
    MetricsRegistry,
    disable_metrics,
    enable_metrics,
    get_metrics,
    metrics_enabled,
)
from repro.obs.snapshot import MetricsSnapshot
from repro.obs.tracing import (
    TraceWriter,
    Tracer,
    get_tracer,
    set_tracer,
    span,
    trace_event,
    trace_to,
    traced,
)

__all__ = [
    "MetricsRegistry",
    "MetricsSnapshot",
    "TraceWriter",
    "Tracer",
    "disable_metrics",
    "enable_metrics",
    "get_metrics",
    "get_tracer",
    "metrics_enabled",
    "set_tracer",
    "span",
    "trace_event",
    "trace_to",
    "traced",
]
