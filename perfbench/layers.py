"""Per-layer traces taken from outside the program.

:func:`install` wraps the public functions each layer exposes (module
attributes and class methods) with timing shims and returns a
:class:`Tracer`; :func:`uninstall` puts the originals back.  Nothing under
``src/`` is edited.  Each wrapped call is a span; a span's *self* time is
its duration minus that of the wrapped calls it made, so nested layers are
never counted twice.

Pool workers inherit the wrappers through ``fork``.  A worker resets the
inherited state on its first span and, when it exits normally, writes its
totals to ``worker-<pid>.json`` in the tracer's directory; the parent folds
those files in after it has joined the workers (:meth:`Tracer.collect`).
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import pickle
import time
from collections import defaultdict
from pathlib import Path

#: Engine rungs, named as ``dispatch.rung`` names them.
RUNGS = ("vector-pernode", "vector-batch", "sequential")


class _Frame:
    __slots__ = ("layer", "start", "children", "counted")

    def __init__(self, layer: str, start: float, counted: bool):
        self.layer = layer
        self.start = start
        self.children = 0.0
        self.counted = counted


class Tracer:
    """Self-time totals, call counts and counters, per process."""

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self.pid = os.getpid()
        self._reset()

    def _reset(self) -> None:
        self.stack: list[_Frame] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.overhead_s = 0.0  # the tracer's own extra work, kept out of every layer
        self.compiled: dict[int, object] = {}  # id -> CompiledMachine seen since the last snapshot

    # -- spans ---------------------------------------------------------- #
    def _adopt_fork(self) -> None:
        """First span in a forked worker: drop the parent's state, dump at exit."""
        self.pid = os.getpid()
        self._reset()
        multiprocessing.util.Finalize(self, self.dump, exitpriority=100)

    def enter(self, layer: str) -> _Frame:
        """Open a span.  A span directly inside one of the same layer (a
        ``Workload.run`` calling a per-run backend) is not counted again."""
        if os.getpid() != self.pid:
            self._adopt_fork()
        counted = not (self.stack and self.stack[-1].layer == layer)
        frame = _Frame(layer, time.perf_counter(), counted)
        self.stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> float:
        """Close ``frame``; returns its full duration."""
        duration = time.perf_counter() - frame.start
        self.stack.pop()
        self.self_s[frame.layer] += duration - frame.children
        if self.stack:
            self.stack[-1].children += duration
        return duration

    def overhead(self, seconds: float) -> None:
        """Account tracer work done inside a span as nobody's self time."""
        self.overhead_s += seconds
        if self.stack:
            self.stack[-1].children += seconds

    # -- cross-process ------------------------------------------------- #
    def snapshot(self) -> dict:
        self._flush_compiled()
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "overhead_s": self.overhead_s,
        }

    def _flush_compiled(self) -> None:
        """Fold the table sizes of the compiled machines seen so far."""
        for compiled in self.compiled.values():
            self.counters["compile.table_entries"] += compiled.table_size
        self.compiled.clear()

    def dump(self) -> None:
        path = self.directory / f"worker-{os.getpid()}.json"
        path.write_text(json.dumps(self.snapshot()))

    def collect(self) -> dict:
        """This process's totals plus every worker file (which is consumed).

        The parent's own self times are kept apart as well (``parent_self_s``):
        only they overlap the parent's wall clock.
        """
        merged = self.snapshot()
        merged["parent_self_s"] = dict(merged["self_s"])
        merged["parent_overhead_s"] = merged["overhead_s"]
        merged["workers"] = 0
        for path in sorted(self.directory.glob("worker-*.json")):
            data = json.loads(path.read_text())
            path.unlink()
            merged["workers"] += 1
            for key in ("self_s", "calls", "counters"):
                for name, value in data[key].items():
                    merged[key][name] = merged[key].get(name, 0) + value
            merged["overhead_s"] += data["overhead_s"]
        self._reset()
        return merged


# --------------------------------------------------------------------- #
# Wrapping
# --------------------------------------------------------------------- #
class _Patches:
    def __init__(self):
        self.saved: list[tuple[object, str, object]] = []

    def wrap(self, tracer: Tracer, owner, attr: str, layer: str, after=None) -> None:
        """Replace ``owner.attr`` by a span named ``layer``.

        ``after(args, result)`` runs once the span is closed and updates the
        counters, unless :meth:`Tracer.enter` marked the span as not counted.
        An exception still closes the span and reaches ``after`` as the
        result.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        function = raw.__func__ if kind else raw

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            frame = tracer.enter(layer)
            try:
                result = function(*args, **kwargs)
            except BaseException as exc:
                tracer.exit(frame)
                if frame.counted:
                    tracer.calls[layer] += 1
                    if after is not None:
                        after(args, exc)
                raise
            tracer.exit(frame)
            if frame.counted:
                tracer.calls[layer] += 1
                if after is not None:
                    after(args, result)
            return result

        self.saved.append((owner, attr, raw))
        setattr(owner, attr, kind(wrapper) if kind else wrapper)

    def restore(self) -> None:
        for owner, attr, raw in reversed(self.saved):
            setattr(owner, attr, raw)
        self.saved.clear()


_ACTIVE: _Patches | None = None


def install(directory: Path) -> Tracer:
    """Wrap every traced layer; see the module docstring."""
    global _ACTIVE
    from repro.core import backends
    from repro.core.compile import CompiledMachine
    from repro.core.verification import StateSpaceTooLarge
    from repro.core.vector_batch import VectorizedBatchBackend
    from repro.core.vector_pernode import VectorizedPerNodeBatchBackend
    from repro.experiments import executor
    from repro.experiments.spec import ExperimentSpec
    from repro.experiments.store import ResultStore
    from repro.fuzz import oracle, runner
    from repro.obs.snapshot import MetricsSnapshot
    from repro.workloads.machine import CompiledMachineWorkload, MachineWorkload
    from repro.workloads.population import PopulationWorkload

    tracer = Tracer(directory)
    patches = _Patches()

    def count(name: str, amount: float = 1) -> None:
        tracer.counters[name] += amount

    def tasks(args, result):
        if isinstance(result, list):
            count("spec.tasks", len(result))

    def shipped(args, result):
        if result is None or isinstance(result, BaseException):
            return
        start = time.perf_counter()
        size = len(pickle.dumps(result))
        tracer.overhead(time.perf_counter() - start)
        count("ship.workloads", 1)
        count("ship.bytes", size)

    def waited(args, result):
        if not isinstance(result, BaseException) and not result[0]:
            count("executor.empty_waits", 1)

    def rows(rung):
        def after(args, result):
            if isinstance(result, list):
                count(f"engine.{rung}.rows", len(result))
                count(f"engine.{rung}.steps", sum(r.steps for r in result if r is not None))
        return after

    def one_run(args, result):
        if not isinstance(result, BaseException):
            count("engine.sequential.rows", 1)
            count("engine.sequential.steps", result.steps)

    def lookups(args, result):
        compiled, hits, misses = args[0], args[1], args[2]
        count("compile.hits", hits)
        count("compile.misses", misses)
        tracer.compiled[id(compiled)] = compiled

    def decided(args, result):
        if isinstance(result, StateSpaceTooLarge):
            count("verify.too_large", 1)
        elif not isinstance(result, BaseException):
            count("verify.configs", result.configuration_count)

    patches.wrap(tracer, ExperimentSpec, "expand", "spec", tasks)
    patches.wrap(tracer, executor, "run_spec", "executor")
    patches.wrap(tracer, executor, "wait", "executor.wait", waited)
    patches.wrap(tracer, executor, "build_workload", "workloads.build")
    patches.wrap(tracer, MachineWorkload, "shippable", "workloads.shippable", shipped)
    patches.wrap(tracer, VectorizedPerNodeBatchBackend, "run_rows", "engine.vector-pernode",
                 rows("vector-pernode"))
    patches.wrap(tracer, VectorizedBatchBackend, "run_rows", "engine.vector-batch",
                 rows("vector-batch"))
    for cls in (MachineWorkload, CompiledMachineWorkload, PopulationWorkload):
        patches.wrap(tracer, cls, "run", "engine.sequential", one_run)
    for cls in (backends.PerNodeBackend, backends.CompiledPerNodeBackend,
                backends.CountBasedBackend):
        patches.wrap(tracer, cls, "run", "engine.sequential", one_run)
    patches.wrap(tracer, CompiledMachine, "record_lookups", "compile", lookups)
    patches.wrap(tracer, oracle, "decide_pseudo_stochastic", "verify", decided)
    patches.wrap(tracer, ResultStore, "append", "store.append")
    patches.wrap(tracer, ResultStore, "write_spec", "store.sidecar")
    patches.wrap(tracer, ResultStore, "write_metrics", "store.sidecar")
    patches.wrap(tracer, MetricsSnapshot, "from_dict", "obs.merge")
    patches.wrap(tracer, MetricsSnapshot, "merge", "obs.merge")
    patches.wrap(tracer, runner, "sample_triple", "fuzz.sample")
    patches.wrap(tracer, runner, "check_triple", "fuzz.check")
    patches.wrap(tracer, runner, "shrink_triple", "fuzz.shrink")
    _ACTIVE = patches
    return tracer


def uninstall() -> None:
    """Restore every wrapped attribute."""
    global _ACTIVE
    if _ACTIVE is not None:
        _ACTIVE.restore()
        _ACTIVE = None


# --------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------- #
def accumulate(totals: dict, batch: dict) -> None:
    """Add one :meth:`Tracer.collect` result into running ``totals``."""
    for key, value in batch.items():
        if isinstance(value, dict):
            merged = totals.setdefault(key, {})
            for name, amount in value.items():
                merged[name] = merged.get(name, 0) + amount
        else:
            totals[key] = totals.get(key, 0) + value


def layer_metrics(totals: dict, passes: int, traced_wall: float, untraced_best: float,
                  traced_best: float, extra: dict) -> dict[str, float]:
    """Per-pass layer metrics from the merged tracer totals.

    ``totals`` sums ``passes`` traced passes over the workload's units; time
    and count metrics are divided by ``passes`` so they read per pass.
    ``traced_wall`` is the mean wall time of a traced pass; ``untraced_best``
    and ``traced_best`` sum the fastest repetition of each unit without and
    with tracing.  ``extra`` carries what the calls measured themselves
    (first-chunk latency, parent CPU, store files, ...), already per pass.
    """
    self_s = totals["self_s"]
    calls = totals["calls"]
    counters = totals["counters"]

    def per(value: float) -> float:
        return value / passes

    def seconds(*layers: str) -> float:
        return per(sum(self_s.get(layer, 0.0) for layer in layers))

    out: dict[str, float] = {}
    out["spec.expand_s"] = seconds("spec")
    out["spec.tasks"] = per(counters.get("spec.tasks", 0))
    out["executor.first_chunk_s"] = extra.get("first_chunk_s", 0.0)
    out["executor.chunks"] = extra.get("chunks", 0)
    out["executor.parent_cpu_s"] = extra.get("parent_cpu_s", 0.0)
    out["executor.wait_s"] = seconds("executor.wait")
    out["executor.wait_calls"] = per(calls.get("executor.wait", 0))
    out["executor.empty_waits"] = per(counters.get("executor.empty_waits", 0))
    out["executor.retries"] = extra.get("retries", 0)
    out["executor.pool_respawns"] = extra.get("pool_respawns", 0)
    out["executor.unattributed_s"] = seconds("executor")
    out["ship.workloads"] = per(counters.get("ship.workloads", 0))
    out["ship.bytes"] = per(counters.get("ship.bytes", 0))
    out["workloads.build_s"] = seconds("workloads.build")
    out["workloads.builds"] = per(calls.get("workloads.build", 0))
    points = extra.get("points", 0)
    out["workloads.builds_per_point"] = out["workloads.builds"] / points if points else 0.0
    out["workloads.shippable_s"] = seconds("workloads.shippable")
    engine_s = 0.0
    for rung in RUNGS:
        layer = f"engine.{rung}"
        rung_s = seconds(layer)
        engine_s += rung_s
        rung_calls = per(calls.get(layer, 0))
        rung_rows = per(counters.get(f"{layer}.rows", 0))
        rung_steps = per(counters.get(f"{layer}.steps", 0))
        out[f"{layer}.s"] = rung_s
        out[f"{layer}.calls"] = rung_calls
        out[f"{layer}.rows"] = rung_rows
        out[f"{layer}.steps"] = rung_steps
        out[f"{layer}.steps_per_s"] = rung_steps / rung_s if rung_s else 0.0
        out[f"{layer}.mean_batch"] = rung_rows / rung_calls if rung_calls else 0.0
    out["engine.s"] = engine_s
    out["engine.share"] = engine_s / traced_wall if traced_wall else 0.0
    lookups = counters.get("compile.hits", 0) + counters.get("compile.misses", 0)
    out["compile.table_entries"] = per(counters.get("compile.table_entries", 0))
    out["compile.hit_rate"] = counters.get("compile.hits", 0) / lookups if lookups else 0.0
    out["verify.s"] = seconds("verify")
    out["verify.calls"] = per(calls.get("verify", 0))
    out["verify.configs"] = per(counters.get("verify.configs", 0))
    out["verify.configs_per_s"] = out["verify.configs"] / out["verify.s"] if out["verify.s"] else 0.0
    out["verify.too_large"] = per(counters.get("verify.too_large", 0))
    out["store.append_s"] = seconds("store.append")
    out["store.appends"] = per(calls.get("store.append", 0))
    out["store.bytes"] = extra.get("store_bytes", 0)
    out["store.sidecar_s"] = seconds("store.sidecar")
    out["store.trace_bytes"] = extra.get("trace_bytes", 0)
    out["obs.merge_s"] = seconds("obs.merge")
    out["obs.metrics_sidecar_bytes"] = extra.get("metrics_sidecar_bytes", 0)
    out["fuzz.sample_s"] = seconds("fuzz.sample")
    out["fuzz.check_s"] = seconds("fuzz.check")
    out["fuzz.engine_s"] = engine_s if calls.get("fuzz.check") else 0.0
    out["fuzz.shrink_s"] = seconds("fuzz.shrink")
    parent_self = sum(totals["parent_self_s"].values())
    out["traced_wall_s"] = traced_wall
    out["unattributed_s"] = max(0.0, traced_wall - per(parent_self + totals["parent_overhead_s"]))
    out["unattributed_frac"] = out["unattributed_s"] / traced_wall if traced_wall else 0.0
    out["trace_overhead_frac"] = traced_best / untraced_best - 1.0 if untraced_best else 0.0
    out["failed_frac"] = extra.get("failed_frac", 0.0)
    out["bit_identity_failures"] = extra.get("bit_identity_failures", 0)
    out["workers_traced"] = extra.get("workers_traced", 0)
    return out
