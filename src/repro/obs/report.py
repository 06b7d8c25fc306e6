"""Fold result records + telemetry sidecars into the ``repro stats`` report.

Given a result store's ``<name>-<key>.jsonl`` file, :func:`fold_stats` also
looks for the two telemetry sidecars the sweep executor writes next to it —
``<name>-<key>.trace.jsonl`` (span/event records, see
:mod:`repro.obs.tracing`) and ``<name>-<key>.metrics.json`` (a merged
:class:`~repro.obs.snapshot.MetricsSnapshot`) — and folds everything into one
stats dict:

* ``records`` — totals by status, from the result JSONL itself;
* ``throughput`` — p50/p95 steps-per-second over successful records (the
  batched-dispatch path attributes wall time per record proportionally to
  steps, so the two dispatch paths are comparable here);
* ``dispatch`` — per-rung ``run_many``/chunk dispatch counts, zero-filled
  over all four rungs so consumers can rely on the keys being present;
* ``engines`` — runs/steps/silent-steps-skipped per engine;
* ``caches`` — memo/view-table hits, misses, evictions and hit rate per
  table (``hit_rate`` is ``None``, never a ZeroDivisionError, when a table
  saw no lookups);
* ``phases`` — time-in-phase totals per span name from the trace sidecar;
* ``events`` — counts per event name (e.g. ``batch-fallback``), with
  fallback reasons broken out;
* ``executor`` — the fault-tolerance ledger: in-session retries by reason,
  pool respawns after worker deaths, quarantined poison tasks, and the
  chunk ids crash/quarantine records were attributed to (see
  ``docs/robustness.md``).

:func:`format_stats` renders the dict as the human-readable report;
``python -m repro stats --json`` emits it verbatim.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.obs.snapshot import load_jsonl, load_metrics, split_metric_key

#: The three rungs of the ``run_many`` dispatch ladder, fastest first; the
#: ``dispatch.rungs`` section is zero-filled over these so every consumer
#: (the CI smoke assertion included) can rely on the keys existing.
RUNGS = ("vector-batch", "vector-pernode", "sequential")


def sidecar_paths(results_path: str | Path) -> tuple[Path, Path]:
    """``(trace_path, metrics_path)`` next to a ``*.jsonl`` results file."""
    path = Path(results_path)
    stem = path.name[: -len(".jsonl")] if path.name.endswith(".jsonl") else path.name
    return path.with_name(stem + ".trace.jsonl"), path.with_name(stem + ".metrics.json")


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    index = (len(ordered) - 1) * q
    low = int(index)
    high = min(low + 1, len(ordered) - 1)
    fraction = index - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


def _labelled(counters: dict[str, int], name: str, label: str) -> dict[str, int]:
    """``{label value: total}`` over every counter series named ``name``."""
    out: dict[str, int] = {}
    for key, value in counters.items():
        series, labels = split_metric_key(key)
        if series == name and label in labels:
            out[labels[label]] = out.get(labels[label], 0) + value
    return out


def fold_stats(results_path: str | Path) -> dict[str, Any]:
    """Fold a results file and its telemetry sidecars into one stats dict."""
    results_path = Path(results_path)
    records = load_jsonl(results_path)
    trace_path, metrics_path = sidecar_paths(results_path)
    trace = load_jsonl(trace_path)
    snapshot = load_metrics(metrics_path)
    counters = snapshot.counters

    by_status: dict[str, int] = {}
    for record in records:
        status = record.get("status", "unknown")
        by_status[status] = by_status.get(status, 0) + 1
    ok_records = [r for r in records if r.get("status") == "ok"]

    throughputs = [
        r["steps"] / r["wall_time"]
        for r in ok_records
        if r.get("wall_time") and r.get("steps")
    ]
    throughput = {
        "runs": len(ok_records),
        "p50_steps_per_s": round(_percentile(throughputs, 0.50), 1) if throughputs else None,
        "p95_steps_per_s": round(_percentile(throughputs, 0.95), 1) if throughputs else None,
    }

    rung_calls = _labelled(counters, "dispatch.rung", "rung")
    rung_runs = _labelled(counters, "dispatch.runs", "rung")
    dispatch = {
        "rungs": {rung: rung_calls.get(rung, 0) for rung in RUNGS},
        "rung_runs": {rung: rung_runs.get(rung, 0) for rung in RUNGS},
        "fallbacks": _labelled(counters, "dispatch.fallback", "reason"),
    }

    engines: dict[str, dict[str, int]] = {}
    for metric, field in (
        ("engine.runs", "runs"),
        ("engine.steps", "steps"),
        ("engine.silent_steps_skipped", "silent_steps_skipped"),
    ):
        for engine, value in _labelled(counters, metric, "engine").items():
            engines.setdefault(engine, {})[field] = value

    caches: dict[str, dict[str, Any]] = {}
    for metric, field in (
        ("memo.hits", "hits"),
        ("memo.misses", "misses"),
        ("memo.evictions", "evictions"),
    ):
        for table, value in _labelled(counters, metric, "table").items():
            caches.setdefault(table, {"hits": 0, "misses": 0, "evictions": 0})[field] = value
    for table_stats in caches.values():
        lookups = table_stats["hits"] + table_stats["misses"]
        table_stats["hit_rate"] = (
            round(table_stats["hits"] / lookups, 4) if lookups else None
        )

    retired = _labelled(counters, "batch.rows_retired", "reason")

    crash_chunks: dict[str, int] = {}
    for record in records:
        if record.get("status") in ("crashed", "quarantined"):
            chunk = str(record.get("chunk", "unknown"))
            crash_chunks[chunk] = crash_chunks.get(chunk, 0) + 1
    executor = {
        "retries": _labelled(counters, "executor.retries", "reason"),
        "pool_respawns": counters.get("executor.pool_respawns", 0),
        "quarantined": _labelled(counters, "executor.quarantined", "reason"),
        "crash_chunks": crash_chunks,
    }

    phases: dict[str, dict[str, float]] = {}
    events: dict[str, int] = {}
    for entry in trace:
        if entry.get("type") == "span":
            phase = phases.setdefault(
                entry["name"], {"count": 0, "wall": 0.0, "cpu": 0.0}
            )
            phase["count"] += 1
            phase["wall"] = round(phase["wall"] + entry.get("wall", 0.0), 6)
            phase["cpu"] = round(phase["cpu"] + entry.get("cpu", 0.0), 6)
        elif entry.get("type") == "event":
            events[entry["name"]] = events.get(entry["name"], 0) + 1

    return {
        "results": str(results_path),
        "records": {"total": len(records), "by_status": by_status},
        "throughput": throughput,
        "dispatch": dispatch,
        "engines": engines,
        "caches": caches,
        "rows_retired": retired,
        "executor": executor,
        "phases": phases,
        "events": events,
        "sidecars": {
            "trace": str(trace_path) if trace else None,
            "metrics": str(metrics_path) if snapshot else None,
        },
    }


def _aligned_rows(rows: list[tuple[str, str]], indent: str = "  ") -> list[str]:
    if not rows:
        return []
    width = max(len(label) for label, _ in rows)
    return [f"{indent}{label.ljust(width)}  {value}" for label, value in rows]


def format_stats(stats: dict[str, Any]) -> str:
    """Render :func:`fold_stats` output as the human-readable report."""
    lines: list[str] = [f"stats for {stats['results']}"]

    records = stats["records"]
    status = ", ".join(f"{count} {name}" for name, count in sorted(records["by_status"].items()))
    lines.append(f"  records: {records['total']} ({status or 'none'})")

    throughput = stats["throughput"]
    if throughput["p50_steps_per_s"] is not None:
        lines.append(
            f"  throughput: p50 {throughput['p50_steps_per_s']:.0f} steps/s, "
            f"p95 {throughput['p95_steps_per_s']:.0f} steps/s "
            f"over {throughput['runs']} runs"
        )

    lines.append("dispatch rungs (calls / runs):")
    lines.extend(
        _aligned_rows(
            [
                (rung, f"{stats['dispatch']['rungs'][rung]} / {stats['dispatch']['rung_runs'][rung]}")
                for rung in RUNGS
            ]
        )
    )
    if stats["dispatch"]["fallbacks"]:
        fallback = ", ".join(
            f"{reason}={count}"
            for reason, count in sorted(stats["dispatch"]["fallbacks"].items())
        )
        lines.append(f"  fallback reasons: {fallback}")

    if stats["engines"]:
        lines.append("engines (runs / steps / silent skipped):")
        lines.extend(
            _aligned_rows(
                [
                    (
                        engine,
                        f"{data.get('runs', 0)} / {data.get('steps', 0)} / "
                        f"{data.get('silent_steps_skipped', 0)}",
                    )
                    for engine, data in sorted(stats["engines"].items())
                ]
            )
        )

    if stats["caches"]:
        lines.append("caches (hits / misses / evictions / hit rate):")
        lines.extend(
            _aligned_rows(
                [
                    (
                        table,
                        f"{data['hits']} / {data['misses']} / {data['evictions']} / "
                        + (f"{data['hit_rate']:.1%}" if data["hit_rate"] is not None else "n/a"),
                    )
                    for table, data in sorted(stats["caches"].items())
                ]
            )
        )

    if stats["rows_retired"]:
        retired = ", ".join(
            f"{reason}={count}" for reason, count in sorted(stats["rows_retired"].items())
        )
        lines.append(f"  batch rows retired: {retired}")

    executor = stats.get("executor", {})
    retries = executor.get("retries", {})
    quarantined = executor.get("quarantined", {})
    if retries or executor.get("pool_respawns") or quarantined:
        parts = []
        if retries:
            detail = ", ".join(
                f"{reason}={count}" for reason, count in sorted(retries.items())
            )
            parts.append(f"{sum(retries.values())} retries ({detail})")
        parts.append(f"{executor.get('pool_respawns', 0)} pool respawns")
        if quarantined:
            parts.append(f"{sum(quarantined.values())} quarantined")
        lines.append(f"  fault tolerance: {', '.join(parts)}")
        if executor.get("crash_chunks"):
            chunks = ", ".join(
                f"{chunk}={count}"
                for chunk, count in sorted(executor["crash_chunks"].items())
            )
            lines.append(f"  crash records by chunk: {chunks}")

    if stats["phases"]:
        lines.append("time in phase (count / wall s / cpu s):")
        lines.extend(
            _aligned_rows(
                [
                    (name, f"{data['count']} / {data['wall']:.3f} / {data['cpu']:.3f}")
                    for name, data in sorted(stats["phases"].items())
                ]
            )
        )

    if stats["events"]:
        events = ", ".join(f"{name}={count}" for name, count in sorted(stats["events"].items()))
        lines.append(f"  events: {events}")

    if not stats["caches"] and not stats["engines"]:
        lines.append(
            "  (no metrics sidecar — run the sweep with REPRO_METRICS=1 to collect telemetry)"
        )
    return "\n".join(lines)
