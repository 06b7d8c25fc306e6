"""Observability layer: null-object guarantees, snapshots, tracing, stats.

Pins the contracts ``docs/observability.md`` documents:

* the disabled registry/tracer hand out **one shared** no-op instrument —
  identity is the zero-allocation guarantee;
* :meth:`MetricsSnapshot.merge` is associative and commutative, and
  ``baseline.merge(current.diff(baseline))`` restores the counters exactly
  (the property the executor's cross-process folding relies on);
* instrumentation is observational only: every batch result is bit-identical
  with metrics and tracing on;
* the sweep executor writes both sidecars, aggregates worker deltas, and the
  ``repro stats`` CLI folds everything back into the report.
"""

from __future__ import annotations

import json

import pytest

from repro.core.compile import compile_machine
from repro.core.graphs import line_graph
from repro.core.labels import Alphabet
from repro.core.machine import DistributedMachine
from repro.experiments.cli import main as cli_main
from repro.experiments.executor import _run_group, run_spec
from repro.experiments.spec import ExperimentSpec
from repro.experiments.store import ResultStore
from repro.obs import (
    MetricsSnapshot,
    Tracer,
    disable_metrics,
    enable_if,
    enable_metrics,
    get_metrics,
    get_tracer,
    metrics_enabled,
    set_tracer,
    span,
    trace_to,
    traced,
)
from repro.obs.metrics import NULL_METRICS
from repro.obs.report import RUNGS, fold_stats, format_stats, sidecar_paths
from repro.obs.snapshot import load_metrics, metric_key, split_metric_key
from repro.obs.tracing import NULL_TRACER
from repro.workloads import EngineOptions, InstanceSpec, MachineWorkload, build_workload


@pytest.fixture(autouse=True)
def observability_off():
    """Every test starts and ends on the no-op singletons (global state)."""
    disable_metrics()
    set_tracer(None)
    yield
    disable_metrics()
    set_tracer(None)


def _workload(name, params, **engine):
    return build_workload(InstanceSpec(name, dict(params), EngineOptions(**engine)))


def small_spec(**overrides) -> ExperimentSpec:
    data = {
        "name": "obs-test",
        "sweeps": [
            {"scenario": "clique-majority", "grid": {"a": [6], "b": [3]}},
            {"scenario": "exists-label", "grid": {"a": [1], "b": [4], "graph": ["cycle"]}},
            {"scenario": "population-parity", "grid": {"a": [3], "b": [2]}},
        ],
        "runs": 3,
        "base_seed": 11,
        "max_steps": 20_000,
        "stability_window": 100,
    }
    data.update(overrides)
    return ExperimentSpec.from_dict(data)


# --------------------------------------------------------------------------- #
# Null objects: disabled means one shared instrument, no allocation
# --------------------------------------------------------------------------- #
class TestNullObjects:
    def test_disabled_registry_hands_out_one_shared_instrument(self):
        registry = get_metrics()
        assert registry is NULL_METRICS
        assert not metrics_enabled()
        assert registry.counter("a") is registry.counter("b", engine="x")
        assert registry.gauge("a") is registry.gauge("b", pool="y")
        assert registry.histogram("a") is registry.histogram("b", t="z")
        registry.counter("a").inc(100)
        registry.gauge("a").set(5.0)
        registry.histogram("a").observe(1.0)
        assert not registry.snapshot()

    def test_disabled_tracer_spans_share_one_object(self):
        assert get_tracer() is NULL_TRACER
        assert span("compile") is span("run", engine="count")
        with span("outer"):
            with span("inner"):
                pass
        assert NULL_TRACER.records == []

    def test_enable_disable_round_trip(self):
        registry = enable_metrics()
        assert metrics_enabled() and get_metrics() is registry
        assert registry.counter("a") is registry.counter("a")
        assert registry.counter("a") is not registry.counter("a", x=1)
        registry.counter("steps", engine="count").inc(7)
        assert registry.snapshot().counters["steps{engine=count}"] == 7
        disable_metrics()
        assert get_metrics() is NULL_METRICS

    def test_enable_if_is_sticky(self):
        enable_if(False)
        assert not metrics_enabled()
        enable_if(True)
        assert metrics_enabled()
        enable_if(False)  # never disables
        assert metrics_enabled()


# --------------------------------------------------------------------------- #
# Snapshots: keys, merge algebra, diff/merge inverse
# --------------------------------------------------------------------------- #
class TestSnapshot:
    def test_metric_key_round_trip_and_label_order(self):
        assert metric_key("memo.hits", {}) == "memo.hits"
        key = metric_key("memo.hits", {"table": "compiled", "a": 1})
        assert key == "memo.hits{a=1,table=compiled}"
        assert key == metric_key("memo.hits", {"a": 1, "table": "compiled"})
        assert split_metric_key(key) == ("memo.hits", {"a": "1", "table": "compiled"})
        assert split_metric_key("bare") == ("bare", {})

    def _snapshots(self):
        a = MetricsSnapshot(
            counters={"c{x=1}": 3, "d": 1},
            gauges={"g": 2.0},
            histograms={"h": {"count": 2, "sum": 3.0, "min": 1.0, "max": 2.0}},
        )
        b = MetricsSnapshot(
            counters={"c{x=1}": 4},
            gauges={"g": 5.0, "g2": 1.0},
            histograms={"h": {"count": 1, "sum": 9.0, "min": 9.0, "max": 9.0}},
        )
        c = MetricsSnapshot(
            counters={"d": 10, "e": 2},
            histograms={"h2": {"count": 1, "sum": 0.5, "min": 0.5, "max": 0.5}},
        )
        return a, b, c

    def test_merge_is_associative_and_commutative(self):
        a, b, c = self._snapshots()
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        swapped = c.merge(b).merge(a)
        for combined in (right, swapped):
            assert combined.counters == left.counters
            assert combined.gauges == left.gauges
            assert combined.histograms == left.histograms

    def test_merge_semantics(self):
        a, b, _ = self._snapshots()
        merged = a.merge(b)
        assert merged.counters == {"c{x=1}": 7, "d": 1}
        assert merged.gauges == {"g": 5.0, "g2": 1.0}  # max wins
        assert merged.histograms["h"] == {"count": 3, "sum": 12.0, "min": 1.0, "max": 9.0}
        # Neither operand is mutated.
        assert a.counters["c{x=1}"] == 3 and b.counters["c{x=1}"] == 4

    def test_diff_then_merge_restores_counters(self):
        registry = enable_metrics(reset=True)
        registry.counter("c").inc(2)
        baseline = registry.snapshot()
        registry.counter("c").inc(5)
        registry.counter("d", x=1).inc(1)
        current = registry.snapshot()
        delta = current.diff(baseline)
        assert delta.counters == {"c": 5, "d{x=1}": 1}
        assert baseline.merge(delta).counters == current.counters
        # Idle diff ships an empty (falsy) snapshot.
        assert not current.diff(current)

    def test_round_trips_through_dict_form(self):
        a, b, _ = self._snapshots()
        merged = a.merge(b)
        rebuilt = MetricsSnapshot.from_dict(json.loads(json.dumps(merged.to_dict())))
        assert rebuilt.counters == merged.counters
        assert rebuilt.gauges == merged.gauges
        assert rebuilt.histograms == merged.histograms
        assert not MetricsSnapshot.from_dict(None)


# --------------------------------------------------------------------------- #
# Bit-identity: telemetry observes, never perturbs
# --------------------------------------------------------------------------- #
BIT_IDENTITY = [
    ("clique-majority", {"a": 6, "b": 3}, {}),  # vector-batch rung
    ("exists-label", {"a": 1, "b": 4, "graph": "cycle"}, {}),  # vector-pernode
    ("population-parity", {"a": 3, "b": 2}, {}),  # population engines
    ("exists-label", {"a": 1, "b": 4, "graph": "cycle"}, {"backend": "per-node"}),
]


class TestBitIdentity:
    @pytest.mark.parametrize(
        "name,params,engine", BIT_IDENTITY, ids=[f"{n}[{e}]" for n, p, e in BIT_IDENTITY]
    )
    def test_run_many_identical_with_telemetry_on(self, name, params, engine):
        disable_metrics()
        baseline = _workload(name, params, **engine).run_many(6, base_seed=17)
        enable_metrics(reset=True)
        set_tracer(Tracer())
        observed = _workload(name, params, **engine).run_many(6, base_seed=17)
        assert observed.verdicts == baseline.verdicts
        assert observed.steps == baseline.steps
        assert observed.stopped_early == baseline.stopped_early

    def test_quorum_truncation_identical_with_telemetry_on(self):
        disable_metrics()
        baseline = _workload("clique-majority", {"a": 8, "b": 2}).run_many(
            12, base_seed=3, quorum=0.5
        )
        enable_metrics(reset=True)
        observed = _workload("clique-majority", {"a": 8, "b": 2}).run_many(
            12, base_seed=3, quorum=0.5
        )
        assert observed.verdicts == baseline.verdicts
        assert observed.steps == baseline.steps
        assert observed.stopped_early == baseline.stopped_early


# --------------------------------------------------------------------------- #
# Satellite: CompiledMachine.stats() is a thin snapshot view
# --------------------------------------------------------------------------- #
class TestCompiledStats:
    def test_zero_lookup_hit_rate_is_none(self):
        machine = _workload("exists-label", {"a": 1, "b": 4, "graph": "cycle"}).machine
        compiled = compile_machine(machine)
        stats = compiled.stats()
        assert stats["hits"] == 0 and stats["misses"] == 0
        assert stats["hit_rate"] is None  # explicit None, never ZeroDivisionError

    def test_counters_mirror_into_registry(self):
        registry = enable_metrics(reset=True)
        workload = _workload("exists-label", {"a": 1, "b": 4, "graph": "cycle"})
        workload.run(seed=5)
        counters = registry.snapshot().counters
        # A seeded random-exclusive run is a batch of one on the row engine,
        # which still flushes its lookups into the shared compiled table.
        assert counters.get("engine.runs{engine=vector-pernode}", 0) == 1
        assert counters.get("engine.runs{engine=compiled}", 0) == 0
        lookups = counters.get("memo.hits{table=compiled}", 0) + counters.get(
            "memo.misses{table=compiled}", 0
        )
        assert lookups > 0


    @pytest.mark.parametrize(
        "name, params, engine, expected",
        [
            ("exists-label", {"a": 1, "b": 4, "graph": "cycle"}, {}, "vector-pernode"),
            ("clique-majority", {"a": 6, "b": 3}, {}, "vector-batch"),
            (
                "clique-majority",
                {"a": 6, "b": 3},
                {"schedule": "synchronous"},
                "vector-batch",
            ),
            ("population-threshold", {"a": 3, "b": 4, "k": 3}, {}, "vector-batch"),
            (
                "population-threshold",
                {"a": 3, "b": 4, "k": 3},
                {"backend": "agents"},
                "population-agents",
            ),
            (
                "exists-label",
                {"a": 1, "b": 4, "graph": "cycle"},
                {"schedule": "synchronous"},
                "vector-pernode",
            ),
            (
                "exists-label",
                {"a": 1, "b": 4, "graph": "cycle"},
                {"record_trace": True},
                "per-node",
            ),
        ],
    )
    def test_single_run_counts_under_the_engine_that_ran_it(
        self, name, params, engine, expected
    ):
        registry = enable_metrics(reset=True)
        tracer = Tracer()
        set_tracer(tracer)
        _workload(name, params, **engine).run(seed=5)
        counters = registry.snapshot().counters
        runs = {k: v for k, v in counters.items() if k.startswith("engine.runs")}
        assert runs == {f"engine.runs{{engine={expected}}}": 1}
        (run_span,) = [r for r in tracer.records if r.get("name") == "run"]
        assert run_span["engine"] == expected
        retired = sum(
            v for k, v in counters.items() if k.startswith("batch.rows_retired")
        )
        assert retired == (1 if expected.startswith("vector-") else 0)

    def test_reference_dead_stop_counts_its_skipped_steps(self):
        """A configuration dead from the start is quiet for one window, then
        the reference loop reports the rest of the budget as skipped."""
        registry = enable_metrics(reset=True)
        ab = Alphabet.of("a", "b")
        frozen = DistributedMachine(
            alphabet=ab,
            beta=1,
            init=lambda label: label,
            delta=lambda state, neighborhood: state,
            accepting={"a"},
            rejecting={"b"},
            name="frozen",
        )
        options = EngineOptions(backend="per-node", max_steps=500, stability_window=20)
        result = MachineWorkload(frozen, line_graph(ab, ["a", "b", "b"]), options).run(3)
        assert result.steps == 500
        counters = registry.snapshot().counters
        assert counters["engine.silent_steps_skipped{engine=per-node}"] == 500 - 20
        assert counters["engine.steps{engine=per-node}"] == 500


# --------------------------------------------------------------------------- #
# Tracing: nesting, decorator, sidecar append
# --------------------------------------------------------------------------- #
class TestTracing:
    def test_span_nesting_records_parent_and_depth(self):
        tracer = Tracer()
        set_tracer(tracer)
        with span("outer", engine="count"):
            with span("inner"):
                pass
        inner, outer = tracer.records  # inner completes (and records) first
        assert inner["name"] == "inner" and inner["parent"] == "outer"
        assert inner["depth"] == 1 and outer["depth"] == 0
        assert outer["name"] == "outer" and outer["parent"] is None
        assert outer["engine"] == "count"
        assert outer["wall"] >= inner["wall"] >= 0

    def test_traced_decorator_resolves_tracer_at_call_time(self):
        @traced("phase", kind="test")
        def work():
            return 42

        assert work() == 42  # no tracer installed: still a no-op
        tracer = Tracer()
        set_tracer(tracer)
        assert work() == 42
        assert [r["name"] for r in tracer.records] == ["phase"]
        assert tracer.records[0]["kind"] == "test"

    def test_events_are_one_line_records(self):
        tracer = Tracer()
        set_tracer(tracer)
        tracer.event("batch-fallback", reason="record-trace")
        (record,) = tracer.records
        assert record["type"] == "event" and record["reason"] == "record-trace"

    def test_timestamps_derive_monotonically_from_one_epoch(self, monkeypatch):
        from repro.obs import tracing as tracing_module

        tracer = Tracer()
        set_tracer(tracer)
        # Simulate an NTP step: the wall clock jumps far backwards after the
        # tracer captured its epoch.  Derived stamps must not follow it.
        monkeypatch.setattr(
            tracing_module.time, "time", lambda: tracer._epoch_wall - 3600.0
        )
        tracer.event("first")
        with span("phase"):
            pass
        tracer.event("second")
        event_one, phase, event_two = tracer.records
        assert event_one["time"] >= tracer._epoch_wall
        assert phase["start"] >= event_one["time"]
        assert event_two["time"] >= phase["start"]

    def test_trace_to_appends_and_restores(self, tmp_path):
        path = tmp_path / "out.trace.jsonl"
        before = get_tracer()
        with trace_to(path):
            with span("first"):
                pass
        assert get_tracer() is before
        with trace_to(path):  # a second session appends, never truncates
            with span("second"):
                pass
        names = [json.loads(line)["name"] for line in path.read_text().splitlines()]
        assert names == ["first", "second"]


# --------------------------------------------------------------------------- #
# Dispatch rungs and the sequential-fallback event
# --------------------------------------------------------------------------- #
class TestDispatch:
    def _rungs(self, registry):
        counters = registry.snapshot().counters
        return {
            rung: counters.get(f"dispatch.rung{{rung={rung}}}", 0) for rung in RUNGS
        }

    def test_replicate_rung(self):
        registry = enable_metrics(reset=True)
        _workload(
            "exists-label", {"a": 1, "b": 4, "graph": "cycle"}, schedule="synchronous"
        ).run_many(5, base_seed=0)
        assert self._rungs(registry)["replicate"] == 1
        assert registry.snapshot().counters["dispatch.runs{rung=replicate}"] == 5

    def test_vector_rungs(self):
        registry = enable_metrics(reset=True)
        _workload("clique-majority", {"a": 6, "b": 3}).run_many(4, base_seed=0)
        _workload("exists-label", {"a": 1, "b": 4, "graph": "cycle"}).run_many(
            4, base_seed=0
        )
        rungs = self._rungs(registry)
        assert rungs["vector-batch"] == 1 and rungs["vector-pernode"] == 1

    def test_sequential_fallback_emits_event_and_reason(self):
        registry = enable_metrics(reset=True)
        tracer = Tracer()
        set_tracer(tracer)
        _workload(
            "exists-label", {"a": 1, "b": 4, "graph": "cycle"}, record_trace=True
        ).run_many(3, base_seed=0)
        assert self._rungs(registry)["sequential"] == 1
        counters = registry.snapshot().counters
        assert counters["dispatch.fallback{reason=record-trace}"] == 1
        events = [r for r in tracer.records if r.get("type") == "event"]
        assert any(
            e["name"] == "batch-fallback" and e["reason"] == "record-trace"
            for e in events
        )


# --------------------------------------------------------------------------- #
# Executor: proportional wall time, worker deltas, sidecars, stats CLI
# --------------------------------------------------------------------------- #
class TestExecutorTelemetry:
    def test_batched_wall_time_is_proportional_to_steps(self):
        spec = small_spec(
            sweeps=[{"scenario": "clique-majority", "grid": {"a": [6], "b": [3]}}],
            runs=6,
        )
        tasks = [task.to_dict() for task in spec.expand()]
        records = _run_group(tasks, cache={})
        assert records is not None and len(records) == 6
        assert all(record["wall_time"] > 0 for record in records)
        # wall_i / steps_i is one shared constant up to the 1e-6 rounding of
        # each record: cross-multiplied, the slack is bounded per pair.
        for left in records:
            for right in records:
                slack = 1e-6 * (left["steps"] + right["steps"])
                assert abs(
                    left["wall_time"] * right["steps"]
                    - right["wall_time"] * left["steps"]
                ) <= slack

    def test_sweep_writes_both_sidecars_and_summary_metrics(self, tmp_path):
        enable_metrics(reset=True)
        spec = small_spec()
        store = ResultStore(tmp_path / "store")
        summary = run_spec(spec, store, workers=1)
        assert summary.ok == summary.total_tasks
        assert summary.metrics and summary.metrics.counters
        assert store.trace_path(spec).exists()
        assert store.metrics_path(spec).exists()
        trace_path, metrics_path = sidecar_paths(store.results_path(spec))
        assert trace_path == store.trace_path(spec)
        assert metrics_path == store.metrics_path(spec)
        records = [json.loads(line) for line in trace_path.read_text().splitlines()]

        def named(name):
            return [r for r in records if r["type"] == "span" and r["name"] == name]

        assert [r["parent"] for r in named("sweep")] == [None]
        assert named("prepare-shipped") == []
        chunks = named("chunk")
        # No retries here: one chunk span per chunk, each appended once.
        assert {r["parent"] for r in chunks} == {"sweep"}
        assert len(chunks) == len(named("store-append"))
        assert sum(r["tasks"] for r in chunks) == summary.executed

    def test_disabled_metrics_leave_no_sidecars(self, tmp_path):
        spec = small_spec()
        store = ResultStore(tmp_path / "store")
        summary = run_spec(spec, store, workers=1)
        assert summary.metrics is None
        assert not store.trace_path(spec).exists()
        assert not store.metrics_path(spec).exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_parallel_sweep_merges_worker_deltas(self, tmp_path, workers):
        enable_metrics(reset=True)
        spec = small_spec()
        store = ResultStore(tmp_path / "store")
        summary = run_spec(spec, store, workers=workers)
        assert summary.ok == summary.total_tasks
        counters = summary.metrics.counters
        # On the pool, engine counters only increment inside workers — their
        # presence proves the snapshot crossed the process boundary.  Every
        # run counted exactly once also proves the serial path adds no delta
        # on top of the parent's own registry.
        assert any(key.startswith("engine.runs") for key in counters)
        runs_counted = sum(
            value
            for key, value in counters.items()
            if key.startswith("dispatch.runs")
        )
        assert runs_counted == summary.executed

    def test_trace_sidecar_appends_across_sweeps(self, tmp_path):
        enable_metrics(reset=True)
        spec = small_spec()
        store = ResultStore(tmp_path / "store")
        run_spec(spec, store, workers=1)
        first = len(store.trace_path(spec).read_text().splitlines())
        assert first > 0
        run_spec(spec, store, workers=1, resume=False)
        second = len(store.trace_path(spec).read_text().splitlines())
        assert second > first  # append, never truncate

    def test_metrics_sidecar_accumulates_on_rerun(self, tmp_path):
        enable_metrics(reset=True)
        spec = small_spec()
        store = ResultStore(tmp_path / "store")
        # A chunk size covering the whole grid so same-point runs group into
        # the vectorized dispatch path (the serial default is tiny here).
        run_spec(spec, store, workers=1, chunk_size=9)
        first = load_metrics(store.metrics_path(spec)).counters
        run_spec(spec, store, workers=1, chunk_size=9, resume=False)
        second = load_metrics(store.metrics_path(spec)).counters
        key = "dispatch.runs{rung=vector-batch}"
        assert second[key] == 2 * first[key]


class TestStatsCli:
    def _sweep(self, tmp_path):
        enable_metrics(reset=True)
        spec = small_spec()
        store = ResultStore(tmp_path / "store")
        run_spec(spec, store, workers=1)
        return spec, store

    def test_stats_json_reports_rungs_and_hit_rates(self, tmp_path, capsys):
        spec, store = self._sweep(tmp_path)
        spec_file = tmp_path / "spec.json"
        spec.save(spec_file)
        rc = cli_main(
            ["stats", str(spec_file), "--store", str(store.root), "--json"]
        )
        assert rc == 0
        stats = json.loads(capsys.readouterr().out)
        assert set(stats["dispatch"]["rungs"]) == set(RUNGS)
        assert sum(stats["dispatch"]["rung_runs"].values()) > 0
        hit_rates = [
            table["hit_rate"]
            for table in stats["caches"].values()
            if table["hit_rate"] is not None
        ]
        assert hit_rates and max(hit_rates) > 0
        assert stats["phases"]["sweep"]["count"] == 1

    def test_stats_human_report_via_results_path(self, tmp_path, capsys):
        spec, store = self._sweep(tmp_path)
        rc = cli_main(["stats", str(store.results_path(spec))])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dispatch rungs" in out and "caches" in out

    def test_stats_without_sidecars_prints_hint(self, tmp_path, capsys):
        results = tmp_path / "bare.jsonl"
        results.write_text(
            json.dumps({"task_id": "t:0:0", "status": "ok", "steps": 10, "wall_time": 0.1})
            + "\n"
        )
        rc = cli_main(["stats", str(results)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "REPRO_METRICS=1" in out
        stats = fold_stats(results)
        assert stats["dispatch"]["rungs"] == {rung: 0 for rung in RUNGS}
        assert "stats for" in format_stats(stats)

    def test_stats_missing_results_errors(self, tmp_path, capsys):
        rc = cli_main(["stats", str(tmp_path / "absent.jsonl")])
        assert rc == 1
        assert "no results file" in capsys.readouterr().err

    def test_stats_on_a_directory_errors(self, tmp_path):
        # SystemExit with a message: stderr gets the line, the exit code is 1.
        with pytest.raises(SystemExit, match=r"^error: .* is a directory"):
            cli_main(["stats", str(tmp_path)])
