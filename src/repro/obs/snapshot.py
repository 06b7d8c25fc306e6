"""Picklable metric snapshots — the unit of cross-process telemetry transfer.

A :class:`MetricsSnapshot` is a frozen-in-time, plain-dict view of a
:class:`repro.obs.metrics.MetricsRegistry`.  It exists so telemetry can cross
the executor's process boundary: workers snapshot their registry before and
after a chunk, ship the :meth:`MetricsSnapshot.diff` back as part of the chunk
return value, and the parent folds the deltas together with
:meth:`MetricsSnapshot.merge`.

``merge`` is **associative and commutative** (counters add, gauges keep the
max, histogram moments add with min/max folded), so the parent may fold worker
deltas in any completion order — and may fold a resumed sweep's delta into the
``.metrics.json`` sidecar left by the previous run — and always reach the same
total.  ``tests/test_obs.py`` pins the associativity property.

Metric keys are flat strings of the form ``name{label=value,...}`` with labels
sorted, e.g. ``memo.hits{table=compiled}``; :func:`metric_key` builds them and
:func:`split_metric_key` parses them back for reporting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping


def metric_key(name: str, labels: Mapping[str, Any]) -> str:
    """Flatten ``name`` + ``labels`` into the canonical ``name{k=v,...}`` key.

    Labels are sorted by name so the same logical series always lands on the
    same key regardless of call-site keyword order.  A label-free metric keys
    on its bare name (no ``{}`` suffix).
    """
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def split_metric_key(key: str) -> tuple[str, dict[str, str]]:
    """Invert :func:`metric_key`: ``"a{b=c}"`` → ``("a", {"b": "c"})``."""
    if "{" not in key:
        return key, {}
    name, _, rest = key.partition("{")
    labels: dict[str, str] = {}
    for pair in rest.rstrip("}").split(","):
        if not pair:
            continue
        label, _, value = pair.partition("=")
        labels[label] = value
    return name, labels


def _merge_histogram(left: dict[str, float], right: dict[str, float]) -> dict[str, float]:
    return {
        "count": left["count"] + right["count"],
        "sum": left["sum"] + right["sum"],
        "min": min(left["min"], right["min"]),
        "max": max(left["max"], right["max"]),
    }


@dataclass
class MetricsSnapshot:
    """A picklable point-in-time copy of a metrics registry.

    Three flat mappings keyed by ``name{label=value,...}`` strings:

    * ``counters`` — monotonically increasing integer totals;
    * ``gauges`` — last-set floats (merged by ``max``, the only associative
      fold that never understates a high-water mark);
    * ``histograms`` — summary moments ``{count, sum, min, max}``.

    Instances are plain data (dicts of str/int/float), hence picklable and
    JSON-serialisable via :meth:`to_dict` — the executor ships them across
    the process boundary and the result store persists them as the
    ``.metrics.json`` sidecar.
    """

    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, dict[str, float]] = field(default_factory=dict)

    def __bool__(self) -> bool:
        """Truthy when any series was recorded — empty deltas are skipped."""
        return bool(self.counters or self.gauges or self.histograms)

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Fold ``other`` into a **new** snapshot (neither operand mutated).

        Counters add, gauges keep the maximum, histogram moments combine
        exactly (count/sum add, min/max fold).  Associative and commutative,
        so chunk deltas may be folded in any completion order.
        """
        counters = dict(self.counters)
        for key, value in other.counters.items():
            counters[key] = counters.get(key, 0) + value
        gauges = dict(self.gauges)
        for key, value in other.gauges.items():
            gauges[key] = max(gauges.get(key, value), value)
        histograms = {key: dict(value) for key, value in self.histograms.items()}
        for key, value in other.histograms.items():
            if key in histograms:
                histograms[key] = _merge_histogram(histograms[key], value)
            else:
                histograms[key] = dict(value)
        return MetricsSnapshot(counters=counters, gauges=gauges, histograms=histograms)

    def diff(self, baseline: "MetricsSnapshot") -> "MetricsSnapshot":
        """The delta accumulated since ``baseline`` was taken.

        Counters and histogram count/sum subtract; series whose counter delta
        is zero are dropped so an idle chunk ships an empty snapshot.  Gauges
        and histogram min/max are point-in-time observations, not flows — the
        delta keeps the *current* value (``baseline.merge(delta)`` then
        restores the current counters exactly and never understates a gauge).
        """
        counters = {}
        for key, value in self.counters.items():
            delta = value - baseline.counters.get(key, 0)
            if delta:
                counters[key] = delta
        gauges = dict(self.gauges)
        histograms = {}
        for key, value in self.histograms.items():
            base = baseline.histograms.get(key)
            if base is None:
                histograms[key] = dict(value)
                continue
            count = value["count"] - base["count"]
            if count:
                histograms[key] = {
                    "count": count,
                    "sum": value["sum"] - base["sum"],
                    "min": value["min"],
                    "max": value["max"],
                }
        return MetricsSnapshot(counters=counters, gauges=gauges, histograms=histograms)

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form for JSON serialisation (sidecars, chunk returns)."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {key: dict(value) for key, value in self.histograms.items()},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any] | None) -> "MetricsSnapshot":
        """Rebuild a snapshot from :meth:`to_dict` output (``None`` → empty)."""
        if not data:
            return cls()
        return cls(
            counters={str(k): int(v) for k, v in data.get("counters", {}).items()},
            gauges={str(k): float(v) for k, v in data.get("gauges", {}).items()},
            histograms={
                str(k): {m: float(x) for m, x in v.items()}
                for k, v in data.get("histograms", {}).items()
            },
        )


def load_metrics(path: str | Path) -> MetricsSnapshot:
    """The merged snapshot from a ``.metrics.json`` sidecar (empty if absent).

    The one loader of the sidecar: ``repro stats`` reads it through
    :func:`repro.obs.report.fold_stats`, and
    :meth:`~repro.experiments.store.ResultStore.write_metrics` merges into
    it.  A file that holds no snapshot — truncated JSON, a non-object
    payload, a non-numeric value — raises :class:`ValueError` naming it.
    """
    path = Path(path)
    if not path.exists():
        return MetricsSnapshot()
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ValueError(f"a JSON {type(data).__name__}, not an object")
        return MetricsSnapshot.from_dict(data)
    except (ValueError, TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: not a metrics snapshot ({exc})") from exc
