"""Executor determinism (serial vs parallel), resume, and failure isolation."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest

from repro.core.results import Verdict
from repro.experiments.executor import run_spec
from repro.experiments.report import agreement_reports, summarise
from repro.experiments.spec import ExperimentSpec
from repro.experiments.store import ResultStore
from repro.workloads import (
    CompiledMachineWorkload,
    EngineOptions,
    InstanceSpec,
    build_workload,
)


def small_spec(**overrides) -> ExperimentSpec:
    data = {
        "name": "executor-test",
        "sweeps": [
            {"scenario": "exists-label", "grid": {"a": [0, 1], "b": [4]}},
            {"scenario": "population-parity", "grid": {"a": [2, 3], "b": [2]}},
        ],
        "runs": 2,
        "base_seed": 21,
        "max_steps": 20_000,
        "stability_window": 100,
    }
    data.update(overrides)
    return ExperimentSpec.from_dict(data)


def stored_outcomes(records: list[dict]) -> list[tuple]:
    """The determinism-relevant projection of stored records."""
    return sorted(
        (r["task_id"], r.get("status"), r.get("verdict"), r.get("steps"), r["seed"])
        for r in records
    )


class TestDeterminism:
    def test_serial_and_parallel_store_identical_results(self, tmp_path):
        spec = small_spec()
        serial_store = ResultStore(tmp_path / "serial")
        parallel_store = ResultStore(tmp_path / "parallel")
        serial = run_spec(spec, serial_store, workers=1)
        parallel = run_spec(spec, parallel_store, workers=2)
        assert serial.ok == parallel.ok == serial.total_tasks
        assert stored_outcomes(serial_store.load(spec)) == stored_outcomes(
            parallel_store.load(spec)
        )

    def test_serial_sweep_never_builds_a_process_pool(self, monkeypatch):
        import repro.experiments.executor as executor_module

        def refuse(*args, **kwargs):
            raise AssertionError("a workers=1 sweep built a process pool")

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", refuse)
        summary = run_spec(small_spec(), workers=1)
        assert summary.ok == summary.total_tasks
        assert summary.pool_respawns == 0

    def test_rerun_with_same_seed_is_identical(self, tmp_path):
        spec = small_spec()
        first = run_spec(spec, ResultStore(tmp_path / "a"), workers=1)
        second = run_spec(spec, ResultStore(tmp_path / "b"), workers=1)
        assert stored_outcomes(first.records) == stored_outcomes(second.records)

    def test_different_base_seed_changes_run_seeds(self, tmp_path):
        first = run_spec(small_spec(), workers=1)
        second = run_spec(small_spec(base_seed=22), workers=1)
        assert {r["seed"] for r in first.records}.isdisjoint(
            r["seed"] for r in second.records
        )


class TestResume:
    def test_completed_tasks_are_not_rerun(self, tmp_path):
        spec = small_spec()
        store = ResultStore(tmp_path)
        first = run_spec(spec, store, workers=1)
        assert first.executed == first.total_tasks == 8
        second = run_spec(spec, store, workers=2)
        assert second.executed == 0
        assert second.skipped == second.total_tasks
        assert second.complete

    def test_partial_store_resumes_remaining_tasks(self, tmp_path):
        spec = small_spec()
        store = ResultStore(tmp_path)
        full = run_spec(spec, ResultStore(tmp_path / "reference"), workers=1)
        # Seed the store with only half the records (an interrupted sweep).
        reference = sorted(full.records, key=lambda r: r["task_id"])
        store.write_spec(spec)
        store.append(spec, reference[:4])
        resumed = run_spec(spec, store, workers=2)
        assert resumed.skipped == 4
        assert resumed.executed == 4
        # The resumed store converges to the same results as the full run.
        assert stored_outcomes(store.load(spec)) == stored_outcomes(full.records)

    def test_truncated_jsonl_tail_is_tolerated(self, tmp_path):
        spec = small_spec()
        store = ResultStore(tmp_path)
        run_spec(spec, store, workers=1)
        path = store.results_path(spec)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"task_id": "exists-label:0:0", "status": "o')  # killed mid-write
        records = store.load(spec)
        assert len(records) == 8
        assert store.completed_ids(spec) == {t.task_id for t in spec.expand()}

    def test_failed_records_are_retried(self, tmp_path):
        spec = small_spec()
        store = ResultStore(tmp_path)
        task = spec.expand()[0]
        store.append(
            spec,
            [
                {
                    "task_id": task.task_id,
                    "point_index": task.point_index,
                    "scenario": task.scenario,
                    "params": task.params,
                    "run_index": task.run_index,
                    "seed": task.seed,
                    "status": "failed",
                    "error": "synthetic",
                    "wall_time": 0.0,
                }
            ],
        )
        summary = run_spec(spec, store, workers=1)
        assert summary.skipped == 0  # the failed record does not count
        assert summary.ok == summary.total_tasks

    def test_no_resume_reruns_everything(self, tmp_path):
        spec = small_spec()
        store = ResultStore(tmp_path)
        run_spec(spec, store, workers=1)
        again = run_spec(spec, store, workers=1, resume=False)
        assert again.executed == again.total_tasks


class TestChunkSize:
    @pytest.mark.parametrize(
        ("options", "message"),
        [
            *(
                (
                    {"workers": workers, "chunk_size": chunk_size},
                    "chunk_size must be at least 1",
                )
                for chunk_size in (0, -2)
                for workers in (1, 2)
            ),
            ({"workers": 0}, "workers must be at least 1"),
            ({"workers": -2}, "workers must be at least 1"),
            ({"task_timeout": 0}, "task_timeout must be positive"),
            ({"task_timeout": -1}, "task_timeout must be positive"),
        ],
        ids=lambda value: (
            ",".join(f"{key}={v}" for key, v in value.items())
            if isinstance(value, dict)
            else value.split()[0]
        ),
    )
    def test_chunk_size_below_one_is_refused_before_the_store(
        self, tmp_path, options, message
    ):
        spec = small_spec()
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError, match=message):
            run_spec(spec, store, **options)
        assert not store.spec_path(spec).exists()
        assert not store.results_path(spec).exists()



    @pytest.mark.parametrize(
        ("runs", "chunk_size", "lengths", "pieces"),
        [
            # 3 runs per point against chunks of 2: the chunk finishes the
            # point rather than leave one run of it behind.
            (3, 2, [3, 3, 3, 3], 1),
            # 5 runs per point: the point is cut, and its last piece grown
            # to three runs rather than leave one.
            (5, 2, [2, 3] * 4, 2),
        ],
    )
    def test_pool_chunks_split_only_points_with_many_runs(
        self, tmp_path, monkeypatch, runs, chunk_size, lengths, pieces
    ):
        import repro.experiments.executor as executor_module

        chunks = []
        supervise = executor_module._run_supervised

        def spying(jobs, **kwargs):
            chunks.extend(jobs)
            return supervise(jobs, **kwargs)

        monkeypatch.setattr(executor_module, "_run_supervised", spying)
        spec = small_spec(runs=runs)
        pooled = run_spec(spec, ResultStore(tmp_path), workers=2, chunk_size=chunk_size)
        assert pooled.ok == pooled.total_tasks == 4 * runs
        assert [len(chunk) for chunk in chunks] == lengths
        spans = {}
        for number, chunk in enumerate(chunks):
            for task in chunk:
                spans.setdefault(task["point_index"], set()).add(number)
        assert [len(numbers) for numbers in spans.values()] == [pieces] * 4
        serial = run_spec(spec, workers=1)

        def without_wall_time(records):
            return sorted(
                ({k: v for k, v in r.items() if k != "wall_time"} for r in records),
                key=lambda record: record["task_id"],
            )

        assert without_wall_time(pooled.records) == without_wall_time(serial.records)

    @pytest.mark.parametrize(
        ("points", "runs", "size", "lengths"),
        [
            # One point of many runs keeps pieces of about ``size``.
            (1, 1000, 16, [16] * 61 + [24]),
            (1, 1000, 125, [125] * 8),
            (1, 5, 1, [1] * 5),
            # Many small points: a chunk only grows to finish its last point.
            (56, 3, 16, [18] * 9 + [6]),
            (2, 20, 16, [20, 20]),
            (1, 40, 16, [16, 24]),
        ],
    )
    def test_point_chunks_sizes(self, points, runs, size, lengths):
        from repro.experiments.executor import _point_chunks

        tasks = [
            {"point_index": point, "run": run}
            for point in range(points)
            for run in range(runs)
        ]
        chunks = _point_chunks(tasks, size)
        assert [len(chunk) for chunk in chunks] == lengths
        assert [task for chunk in chunks for task in chunk] == tasks


class TestFailureIsolation:
    def test_invalid_point_fails_without_sinking_the_sweep(self):
        spec = ExperimentSpec.from_dict(
            {
                "name": "isolation",
                "runs": 1,
                "sweeps": [
                    {
                        "scenario": "exists-label",
                        "grid": {"a": [1], "b": [4], "graph": ["cycle", "bogus-family"]},
                    }
                ],
            }
        )
        summary = run_spec(spec, workers=2)
        assert summary.ok == 1
        assert summary.failed == 1
        failed = [r for r in summary.records if r["status"] == "failed"]
        assert "bogus-family" in failed[0]["error"]

    def test_unknown_scenario_fails_cleanly(self):
        spec = ExperimentSpec.from_dict(
            {
                "name": "unknown",
                "runs": 1,
                "sweeps": [{"scenario": "no-such-scenario", "grid": {}}],
            }
        )
        summary = run_spec(spec, workers=1)
        assert summary.failed == 1
        assert "registered scenarios" in summary.records[0]["error"]


class TestAggregation:
    def test_summaries_rebuild_batches_and_agreements(self, tmp_path):
        spec = small_spec()
        store = ResultStore(tmp_path)
        run_spec(spec, store, workers=2)
        summaries = summarise(spec, store.load(spec))
        assert len(summaries) == 4
        by_params = {
            (s.scenario, s.params["a"]): s.consensus for s in summaries
        }
        assert by_params[("exists-label", 0)] is Verdict.REJECT
        assert by_params[("exists-label", 1)] is Verdict.ACCEPT
        assert by_params[("population-parity", 2)] is Verdict.REJECT
        assert by_params[("population-parity", 3)] is Verdict.ACCEPT
        for summary in summaries:
            assert summary.batch.runs_executed == 2
            assert summary.matches_expected is True
        reports = agreement_reports(summaries)
        assert [r.automaton_name for r in reports] == [
            "exists-label",
            "population-parity",
        ]
        assert all(r.all_agree for r in reports)

    def test_store_is_self_describing(self, tmp_path):
        spec = small_spec()
        store = ResultStore(tmp_path)
        run_spec(spec, store, workers=1)
        sidecar = store.spec_path(spec)
        assert sidecar.exists()
        assert ExperimentSpec.from_json(sidecar.read_text()) == spec
        line = store.results_path(spec).read_text().splitlines()[0]
        record = json.loads(line)
        assert {"task_id", "scenario", "params", "seed", "status"} <= set(record)


class TestCompiledShipping:
    """The executor ships every task as an instance spec and each chunk builds
    its workloads from it; a machine workload's pre-compiled ``shippable()``
    stand-in stays picklable and agrees with the registry instance."""

    _counter = 0

    @classmethod
    def task(cls, scenario, params, backend="auto"):
        cls._counter += 1
        return {
            "task_id": f"{scenario}:{cls._counter}:0",
            "point_index": cls._counter,
            "scenario": scenario,
            "params": params,
            "run_index": 0,
            "seed": 11,
            "backend": backend,
            "max_steps": 2_000,
            "stability_window": 100,
        }

    def test_every_workload_kind_ships_as_a_spec(self):
        """The worker-side route is uniform: every kind's task dict round-trips
        through InstanceSpec -> build_workload inside the chunk."""
        from repro.experiments.executor import _run_chunk

        tasks = []
        for index, (scenario, params) in enumerate(
            [
                ("exists-label", {"a": 1, "b": 4}),  # detection-machine
                ("threshold-broadcast", {"a": 2, "b": 2, "k": 2}),  # broadcast
                ("absence-probe", {"a": 1, "b": 2}),  # absence
                ("rendezvous-parity", {"a": 3, "b": 4}),  # rendezvous
                ("population-parity", {"a": 3, "b": 2}),  # population
            ]
        ):
            task = self.task(scenario, params)
            task.update(
                task_id=f"{scenario}:{index}:0",
                point_index=index,
                run_index=0,
                seed=11,
                max_steps=20_000,
                stability_window=2_000,
            )
            tasks.append(task)
        records = _run_chunk(tasks, task_timeout=None)
        assert [r["status"] for r in records] == ["ok"] * len(tasks)

    def test_shipped_instance_agrees_with_registry_instance(self):
        params = {"a": 1, "b": 5, "graph": "cycle"}
        options = EngineOptions(max_steps=5_000, stability_window=60)
        registry = build_workload(InstanceSpec("exists-label", params, options))
        shipped = registry.shippable()
        assert isinstance(shipped, CompiledMachineWorkload)
        assert shipped.expected == registry.expected
        for seed in (3, 99, 2024):
            a = shipped.run(seed)
            b = registry.run(seed)
            assert (a.verdict, a.steps) == (b.verdict, b.steps)

    def test_shipped_instance_survives_pickling_and_rebinds_in_place(self):
        import pickle

        options = EngineOptions(max_steps=5_000, stability_window=60)
        spec = InstanceSpec("exists-label", {"a": 1, "b": 4}, options)
        shipped = build_workload(spec).shippable()
        clone = pickle.loads(pickle.dumps(shipped))
        assert not clone.compiled.bound
        outcome = clone.run(7)
        fresh = shipped.run(7)
        assert (outcome.verdict, outcome.steps) == (fresh.verdict, fresh.steps)
        assert clone.compiled.bound  # the registry loader re-attached δ

    def test_serial_and_parallel_records_byte_identical_across_kinds(self, tmp_path):
        """Beyond verdict/steps equality: the stored record dicts must be
        identical field for field (wall_time aside) across worker counts,
        for a spec covering every workload kind — compiled per-node machines,
        count-backend cliques and populations alike."""
        spec = ExperimentSpec.from_dict(
            {
                "name": "shipping-regression",
                "sweeps": [
                    {
                        "scenario": "exists-label",
                        "grid": {"a": [0, 1], "b": [4], "graph": ["cycle", "star"]},
                    },
                    {"scenario": "clique-majority", "grid": {"a": [6], "b": [3]}},
                    {"scenario": "threshold-broadcast", "grid": {"a": [2], "b": [2], "k": [2]}},
                    {"scenario": "absence-probe", "grid": {"a": [1], "b": [2]}},
                    {
                        "scenario": "rendezvous-parity",
                        "grid": {"a": [3], "b": [3]},
                        "stability_window": 2000,
                    },
                    {"scenario": "population-parity", "grid": {"a": [3], "b": [2]}},
                ],
                "runs": 2,
                "base_seed": 5,
                "max_steps": 20_000,
                "stability_window": 100,
            }
        )
        serial_store = ResultStore(tmp_path / "serial")
        parallel_store = ResultStore(tmp_path / "parallel")
        serial = run_spec(spec, serial_store, workers=1)
        parallel = run_spec(spec, parallel_store, workers=3)
        assert serial.ok == parallel.ok == serial.total_tasks

        def stripped(records):
            cleaned = []
            for record in records:
                record = dict(record)
                record.pop("wall_time")
                cleaned.append(record)
            return sorted(cleaned, key=lambda r: r["task_id"])

        assert stripped(serial_store.load(spec)) == stripped(parallel_store.load(spec))


class TestBatchDispatch:
    """The vectorized chunk dispatch must be invisible in the stored records."""

    def batch_spec(self) -> ExperimentSpec:
        return ExperimentSpec.from_dict(
            {
                "name": "batch-dispatch-regression",
                "sweeps": [
                    {"scenario": "clique-majority", "grid": {"a": [8, 5], "b": [4]}},
                    {"scenario": "population-threshold", "grid": {"a": [4], "b": [3], "k": [3]}},
                    # Non-clique point: stays on the per-task path inside the
                    # same chunks, exercising the mixed grouping.
                    {"scenario": "exists-label", "grid": {"a": [1], "b": [4]}},
                ],
                "runs": 5,
                "base_seed": 17,
                "max_steps": 20_000,
                "stability_window": 100,
            }
        )

    def stripped(self, records):
        cleaned = []
        for record in records:
            record = dict(record)
            record.pop("wall_time")
            cleaned.append(record)
        return sorted(cleaned, key=lambda r: r["task_id"])

    def test_batched_records_identical_to_per_task(self, tmp_path):
        from repro.experiments.executor import _run_task

        spec = self.batch_spec()
        store = ResultStore(tmp_path)
        batched = run_spec(spec, store, workers=1, chunk_size=10)
        per_task = [_run_task(task.to_dict(), None, {}) for task in spec.expand()]
        assert batched.ok == len(per_task)
        assert self.stripped(store.load(spec)) == self.stripped(per_task)

    def test_parallel_batched_matches_serial(self, tmp_path):
        spec = self.batch_spec()
        serial_store = ResultStore(tmp_path / "serial")
        parallel_store = ResultStore(tmp_path / "parallel")
        serial = run_spec(spec, serial_store, workers=1)
        parallel = run_spec(spec, parallel_store, workers=3)
        assert serial.ok == parallel.ok == len(spec.expand())
        assert self.stripped(serial_store.load(spec)) == self.stripped(
            parallel_store.load(spec)
        )

    def test_task_timeout_keeps_batched_dispatch(self, tmp_path, monkeypatch):
        """A timeout no longer kicks eligible groups off the vectorized path:
        the budget is enforced at chunk granularity (scaled by group size)
        and the stored records stay identical to the untimed run."""
        import repro.experiments.executor as executor_module

        calls = []
        real = executor_module._run_group

        def spy(tasks, cache, task_timeout=None):
            records = real(tasks, cache, task_timeout)
            calls.append((task_timeout, records is not None))
            return records

        monkeypatch.setattr(executor_module, "_run_group", spy)
        spec = self.batch_spec()
        timed_store = ResultStore(tmp_path / "timed")
        timed = run_spec(spec, timed_store, workers=1, task_timeout=60.0)
        assert any(ok and timeout == 60.0 for timeout, ok in calls), (
            "no same-point group took the vectorized path under task_timeout"
        )
        plain_store = ResultStore(tmp_path / "plain")
        plain = run_spec(spec, plain_store, workers=1)
        assert timed.ok == plain.ok == len(spec.expand())
        assert self.stripped(timed_store.load(spec)) == self.stripped(
            plain_store.load(spec)
        )

    @pytest.mark.skipif(
        not hasattr(__import__("signal"), "SIGALRM"),
        reason="chunk budget needs SIGALRM",
    )
    def test_chunk_timeout_falls_back_to_per_task(self, monkeypatch):
        """A group that blows its scaled chunk budget is abandoned (returns
        ``None``) and the per-task fallback re-runs every task under its own
        individual alarm, so no result is lost."""
        import time as time_module

        import repro.core.vector_batch as vector_batch_module
        import repro.experiments.executor as executor_module

        class StalledBackend:
            def run_rows(self, runner, seeds, **kwargs):
                time_module.sleep(600)  # interrupted by the chunk alarm

        monkeypatch.setattr(
            vector_batch_module,
            "resolve_batch_backend",
            lambda workload: StalledBackend(),
        )
        tasks = [
            {
                "task_id": f"clique-majority:0:{run}",
                "point_index": 0,
                "scenario": "clique-majority",
                "params": {"a": 8, "b": 4},
                "run_index": run,
                "seed": 100 + run,
                "backend": "auto",
                "max_steps": 2_000,
                "stability_window": 100,
            }
            for run in range(4)
        ]
        start = time_module.perf_counter()
        records = executor_module._run_chunk(tasks, task_timeout=0.1)
        elapsed = time_module.perf_counter() - start
        assert [r["status"] for r in records] == ["ok"] * len(tasks)
        # The stalled batch was cut off at the scaled budget (0.1s x 4), not
        # after the full 600s sleep.
        assert elapsed < 60


class TestAlarmPlatformSupport:
    """``_Alarm`` must degrade, not crash, where SIGALRM does not exist."""

    def test_missing_sigalrm_degrades_with_one_shot_warning(self, monkeypatch):
        import repro.experiments.executor as executor_module

        monkeypatch.delattr(executor_module.signal, "SIGALRM", raising=False)
        monkeypatch.setattr(executor_module, "_ALARM_UNSUPPORTED_WARNED", False)
        with pytest.warns(RuntimeWarning, match="no signal.SIGALRM"):
            alarm = executor_module._Alarm(5.0)
        assert not alarm.active
        with alarm:
            pass  # enters and exits without touching signal APIs
        # The warning is one-shot per process, not once per task.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = executor_module._Alarm(5.0)
        assert not again.active

    def test_no_timeout_requested_never_warns(self, monkeypatch):
        import repro.experiments.executor as executor_module

        monkeypatch.delattr(executor_module.signal, "SIGALRM", raising=False)
        monkeypatch.setattr(executor_module, "_ALARM_UNSUPPORTED_WARNED", False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alarm = executor_module._Alarm(None)
        assert not alarm.active


class TestWorkerImports:
    """Forked pool workers inherit every module a chunk needs."""

    def test_forked_chunk_imports_no_repro_module(self):
        # A fresh interpreter, so what this test process has imported already
        # cannot hide a lazy import.  The wrapper around _run_chunk reaches
        # the forked workers and tags each record with the repro modules the
        # chunk imported.
        script = textwrap.dedent(
            """
            import json, multiprocessing, sys
            from repro.experiments import executor
            from repro.experiments.spec import ExperimentSpec

            if multiprocessing.get_start_method() != "fork":
                print(json.dumps("no-fork"))
                raise SystemExit(0)

            run_chunk = executor._run_chunk

            def tagged(*args):
                before = set(sys.modules)
                records = run_chunk(*args)
                gained = sorted(
                    name for name in set(sys.modules) - before
                    if name.split(".")[0] == "repro"
                )
                return [dict(record, gained=gained) for record in records]

            executor._run_chunk = tagged
            spec = ExperimentSpec.from_dict({
                "name": "worker-imports",
                "sweeps": [
                    {"scenario": "exists-label", "grid": {"a": [1], "b": [4]}},
                    {"scenario": "exists-label",
                     "grid": {"a": [1], "b": [4], "graph": ["implicit-clique"]}},
                    {"scenario": "threshold-broadcast",
                     "grid": {"a": [2], "b": [2], "k": [2], "graph": ["random-regular"]}},
                    {"scenario": "absence-probe", "grid": {"a": [1], "b": [2]}},
                    {"scenario": "rendezvous-parity", "grid": {"a": [3], "b": [3]},
                     "stability_window": 2000},
                    {"scenario": "population-parity", "grid": {"a": [3], "b": [2]}},
                ],
                "runs": 2,
                "base_seed": 5,
                "max_steps": 20000,
                "stability_window": 100,
            })
            tasks = len(spec.expand())
            summary = executor.run_spec(spec, workers=2, chunk_size=tasks)
            print(json.dumps([
                [r["scenario"], r["status"], r.get("gained")] for r in summary.records
            ]))
            """
        )
        src = Path(__file__).resolve().parents[1] / "src"
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        outcome = json.loads(completed.stdout.splitlines()[-1])
        if outcome == "no-fork":
            pytest.skip("the default start method does not fork")
        assert len(outcome) == 12
        assert [status for _, status, _ in outcome] == ["ok"] * 12
        assert [(name, gained) for name, _, gained in outcome if gained] == []
