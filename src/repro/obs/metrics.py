"""Process-wide metrics registry with a zero-overhead no-op default.

The registry is *disabled* unless explicitly enabled: :func:`get_metrics`
answers :data:`NULL_METRICS`, whose ``counter``/``gauge``/``histogram``
factories hand back one shared do-nothing instrument each.  Instrumented code
therefore follows two rules and pays (almost) nothing when observability is
off:

1. hot loops accumulate into plain local ints/attributes exactly as before;
2. the single flush at end-of-run is guarded by ``if metrics.enabled:`` so
   the disabled path is one attribute check — no dict lookups, no string
   formatting, no allocation.

Enablement is process-global and sticky, reachable two ways:

* ``REPRO_METRICS=1`` in the environment (checked at import, so executor
  worker processes — fork or spawn — inherit the setting);
* :func:`enable_metrics` directly (tests, the sweep executor).

Counts are mirrored, never moved: `CompiledMachine` keeps its per-machine
``hits``/``misses`` attributes and ``stats()`` view; the registry aggregates
the same flushes process-wide under ``memo.hits{table=compiled}`` etc.
See ``docs/observability.md`` for the full metric catalog.
"""

from __future__ import annotations

import os
from typing import Any

from repro.obs.snapshot import MetricsSnapshot, metric_key


class Counter:
    """A monotonically increasing integer total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the running total."""
        self.value += amount


class Gauge:
    """A last-value-wins float (e.g. a pool size or high-water mark)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record ``value`` as the gauge's current reading."""
        self.value = float(value)


class Histogram:
    """Summary moments (count/sum/min/max) of an observed distribution."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Fold one observation into the summary moments."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value


class _NullCounter(Counter):
    """Shared do-nothing counter handed out by the disabled registry."""

    def inc(self, amount: int = 1) -> None:
        """Discard the increment."""


class _NullGauge(Gauge):
    """Shared do-nothing gauge handed out by the disabled registry."""

    def set(self, value: float) -> None:
        """Discard the reading."""


class _NullHistogram(Histogram):
    """Shared do-nothing histogram handed out by the disabled registry."""

    def observe(self, value: float) -> None:
        """Discard the observation."""


class MetricsRegistry:
    """Get-or-create store of named, labelled instruments.

    Instruments are keyed by :func:`repro.obs.snapshot.metric_key` — the
    metric name plus sorted ``label=value`` pairs — so repeated calls with the
    same name/labels return the same object and callers may cache the handle
    outside a loop.  ``enabled`` is a class attribute (``True`` here,
    ``False`` on :class:`_NullMetricsRegistry`) so the hot-path guard is a
    plain attribute read.
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter registered under ``name`` + ``labels`` (created once)."""
        key = metric_key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge registered under ``name`` + ``labels`` (created once)."""
        key = metric_key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(self, name: str, **labels: Any) -> Histogram:
        """The histogram registered under ``name`` + ``labels`` (created once)."""
        key = metric_key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram()
        return instrument

    def snapshot(self) -> MetricsSnapshot:
        """A picklable point-in-time copy of every registered series."""
        return MetricsSnapshot(
            counters={k: c.value for k, c in self._counters.items()},
            gauges={k: g.value for k, g in self._gauges.items()},
            histograms={
                k: {"count": h.count, "sum": h.total, "min": h.min, "max": h.max}
                for k, h in self._histograms.items()
                if h.count
            },
        )

    def reset(self) -> None:
        """Drop every registered series (tests; fresh-sweep accounting)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


class _NullMetricsRegistry(MetricsRegistry):
    """The disabled registry: every factory answers one shared no-op.

    Identity is the zero-allocation guarantee — ``counter("a")`` and
    ``counter("b", x=1)`` are literally the same object, nothing is interned,
    nothing is stored (pinned by ``tests/test_obs.py``).
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null_counter = _NullCounter()
        self._null_gauge = _NullGauge()
        self._null_histogram = _NullHistogram()

    def counter(self, name: str, **labels: Any) -> Counter:
        """The shared no-op counter, regardless of name/labels."""
        return self._null_counter

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The shared no-op gauge, regardless of name/labels."""
        return self._null_gauge

    def histogram(self, name: str, **labels: Any) -> Histogram:
        """The shared no-op histogram, regardless of name/labels."""
        return self._null_histogram

    def snapshot(self) -> MetricsSnapshot:
        """Always the empty snapshot."""
        return MetricsSnapshot()


#: The process-wide disabled singleton; ``get_metrics()`` default.
NULL_METRICS = _NullMetricsRegistry()

_active: MetricsRegistry = NULL_METRICS


def get_metrics() -> MetricsRegistry:
    """The active process-wide registry (the no-op singleton when disabled)."""
    return _active


def metrics_enabled() -> bool:
    """Whether a live (non-null) registry is currently active."""
    return _active.enabled


def enable_metrics(*, reset: bool = False) -> MetricsRegistry:
    """Switch the process to a live registry (idempotent) and return it.

    ``reset=True`` additionally clears any series the live registry already
    holds — used by tests and by sweeps that want per-invocation totals.
    """
    global _active
    if not _active.enabled:
        _active = MetricsRegistry()
    elif reset:
        _active.reset()
    return _active


def disable_metrics() -> None:
    """Restore the no-op singleton (drops the live registry, if any)."""
    global _active
    _active = NULL_METRICS


def _truthy_env(value: str | None) -> bool:
    return bool(value) and value.strip().lower() not in ("", "0", "false", "no", "off")


if _truthy_env(os.environ.get("REPRO_METRICS")):  # pragma: no cover - import-time
    enable_metrics()
