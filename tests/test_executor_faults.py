"""Fault tolerance: retry policy, pool supervision, quarantine, chaos harness.

These tests drive the executor through the deterministic fault-injection
module (:mod:`repro.experiments.faults`): real worker deaths via ``os._exit``
inside pool workers, in-process crash/exception/timeout degradation on the
serial path, sidecar write atomicity under torn writes, and corrupt result
file recovery.
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro.experiments.executor import RetryPolicy, run_spec
from repro.experiments.faults import (
    ENV_VAR,
    FaultPlan,
    FaultRule,
    InjectedFault,
    clear_plan,
    get_plan,
    hash01,
    install_plan,
)
from repro.experiments.spec import ExperimentSpec
from repro.experiments.store import ResultStore
from repro.obs.snapshot import MetricsSnapshot, load_metrics


def small_spec(**overrides) -> ExperimentSpec:
    data = {
        "name": "faults-test",
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


@pytest.fixture
def faults(monkeypatch):
    """Install a fault plan for the test (env set too, for spawned workers)."""

    def _install(spec: str) -> FaultPlan:
        plan = FaultPlan.parse(spec)
        install_plan(plan)
        monkeypatch.setenv(ENV_VAR, spec)
        return plan

    yield _install
    clear_plan()


class TestFaultPlanParsing:
    def test_parse_multi_clause_spec(self):
        plan = FaultPlan.parse(
            "crash:tasks=exists-label:0:*,attempts=1;exception:rate=0.25,seed=7"
        )
        assert len(plan.rules) == 2
        assert plan.rules[0] == FaultRule(
            kind="crash", tasks="exists-label:0:*", attempts="1"
        )
        assert plan.rules[1] == FaultRule(kind="exception", rate=0.25, seed=7)

    def test_empty_and_blank_clauses_are_skipped(self):
        assert not FaultPlan.parse("")
        assert not FaultPlan.parse(" ; ;")
        assert bool(FaultPlan.parse("timeout"))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.parse("segfault")

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown fault clause field"):
            FaultPlan.parse("crash:when=later")

    def test_non_key_value_field_rejected(self):
        with pytest.raises(ValueError, match="not key=value"):
            FaultPlan.parse("crash:always")

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="rate must be within"):
            FaultPlan.parse("crash:rate=1.5")

    def test_bad_attempt_matcher_rejected_eagerly(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("crash:attempts=sometimes")

    def test_attempt_matchers(self):
        cases = {
            "*": [1, 2, 3, 9],
            "2": [2],
            "1-3": [1, 2, 3],
            "<=2": [1, 2],
            ">=3": [3, 9],
            "<2": [1],
            ">2": [3, 9],
        }
        for spec, expected in cases.items():
            rule = FaultRule(kind="exception", attempts=spec)
            hits = [a for a in (1, 2, 3, 9) if rule.matches_task("t", a)]
            assert hits == expected, spec

    def test_task_glob_filters(self):
        rule = FaultRule(kind="crash", tasks="exists-label:0:*")
        assert rule.matches_task("exists-label:0:1", 1)
        assert not rule.matches_task("exists-label:1:0", 1)
        assert not rule.matches_write("exists-label:0:1")

    def test_rate_draw_is_deterministic_and_roughly_calibrated(self):
        rule = FaultRule(kind="exception", rate=0.3, seed=11)
        draws = [rule.matches_task(f"task:{i}", 1) for i in range(400)]
        assert draws == [rule.matches_task(f"task:{i}", 1) for i in range(400)]
        assert 0.2 < sum(draws) / len(draws) < 0.4

    def test_hash01_range_and_determinism(self):
        values = [hash01(3, "x", i) for i in range(100)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert values == [hash01(3, "x", i) for i in range(100)]
        assert values != [hash01(4, "x", i) for i in range(100)]

    def test_install_and_clear_plan(self):
        assert get_plan() is None
        previous = install_plan(FaultPlan.parse("timeout"))
        assert previous is None
        assert get_plan() is not None
        clear_plan()
        assert get_plan() is None


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-1.0)

    def test_delay_is_deterministic_bounded_and_growing(self):
        policy = RetryPolicy(max_attempts=5, backoff_base=0.1, backoff_cap=1.0)
        delays = [policy.delay("t", attempt) for attempt in range(2, 7)]
        assert delays == [policy.delay("t", attempt) for attempt in range(2, 7)]
        for index, delay in enumerate(delays):
            raw = min(1.0, 0.1 * 2.0**index)
            assert raw / 2 <= delay <= raw
        assert max(delays) <= 1.0

    def test_zero_base_disables_backoff(self):
        assert RetryPolicy(backoff_base=0.0).delay("t", 5) == 0.0

    def test_crash_limit_floor(self):
        assert RetryPolicy(max_attempts=1).crash_limit == 2
        assert RetryPolicy(max_attempts=5).crash_limit == 5

    def test_round_trip(self):
        policy = RetryPolicy(max_attempts=4, backoff_base=0.2, jitter_seed=9)
        assert RetryPolicy.from_dict(policy.to_dict()) == policy


class TestSerialFaults:
    def test_crash_fault_degrades_and_retries_to_ok(self, tmp_path, faults):
        faults("crash:tasks=exists-label:0:0,attempts=1")
        spec = small_spec()
        store = ResultStore(tmp_path)
        summary = run_spec(
            spec, store, workers=1, retry=RetryPolicy(max_attempts=3, backoff_base=0.01)
        )
        assert summary.ok == summary.total_tasks
        assert summary.retried == 1
        by_id = {r["task_id"]: r for r in store.load(spec)}
        assert by_id["exists-label:0:0"]["attempt"] == 2
        assert all(
            r["attempt"] == 1 for r in by_id.values() if r["task_id"] != "exists-label:0:0"
        )

    def test_timeout_fault_retries_to_ok(self, tmp_path, faults):
        faults("timeout:tasks=population-parity:*:1,attempts=1")
        summary = run_spec(
            small_spec(),
            ResultStore(tmp_path),
            workers=1,
            retry=RetryPolicy(max_attempts=2, backoff_base=0.01),
        )
        assert summary.ok == summary.total_tasks
        assert summary.timeouts == 0
        assert summary.retried == 2  # two population-parity points, run 1 each

    def test_exception_fault_exhausts_attempts(self, tmp_path, faults):
        faults("exception:tasks=exists-label:1:1")
        store = ResultStore(tmp_path)
        spec = small_spec()
        summary = run_spec(
            spec, store, workers=1, retry=RetryPolicy(max_attempts=2, backoff_base=0.01)
        )
        assert summary.failed == 1
        assert summary.ok == summary.total_tasks - 1
        assert summary.retried == 1
        failed = [r for r in store.load(spec) if r["status"] == "failed"]
        assert len(failed) == 1
        assert failed[0]["task_id"] == "exists-label:1:1"
        assert failed[0]["attempt"] == 2
        assert "injected exception" in failed[0]["error"]

    def test_disabled_retries_record_first_failure(self, tmp_path, faults):
        faults("exception:tasks=exists-label:0:0")
        summary = run_spec(
            small_spec(),
            ResultStore(tmp_path),
            workers=1,
            retry=RetryPolicy(max_attempts=1),
        )
        assert summary.failed == 1
        assert summary.retried == 0

    def test_no_fault_path_matches_reference_minus_wall_time(self, tmp_path):
        assert get_plan() is None
        spec = small_spec()
        serial_store = ResultStore(tmp_path / "serial")
        parallel_store = ResultStore(tmp_path / "parallel")
        run_spec(spec, serial_store, workers=1)
        run_spec(spec, parallel_store, workers=2)
        strip = lambda r: {k: v for k, v in r.items() if k != "wall_time"}
        serial = sorted(
            (strip(r) for r in serial_store.load(spec)), key=lambda r: r["task_id"]
        )
        parallel = sorted(
            (strip(r) for r in parallel_store.load(spec)), key=lambda r: r["task_id"]
        )
        assert serial == parallel
        assert all(r["attempt"] == 1 for r in serial)


class TestPoolSupervision:
    def test_worker_death_respawns_pool_and_completes(self, tmp_path, faults):
        faults("crash:tasks=exists-label:0:0,attempts=1")
        spec = small_spec()
        store = ResultStore(tmp_path)
        summary = run_spec(
            spec,
            store,
            workers=2,
            chunk_size=2,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.01),
        )
        assert summary.ok == summary.total_tasks
        assert summary.complete
        assert summary.pool_respawns == 1
        records = store.load(spec)
        assert {r["status"] for r in records} == {"ok"}
        assert any(r["attempt"] > 1 for r in records)
        # The supervised run converges to the exact serial reference results.
        clear_plan()
        reference = run_spec(spec, workers=1)
        assert stored_outcomes(records) == stored_outcomes(reference.records)

    def test_crash_looping_task_is_quarantined(self, tmp_path, faults):
        faults("crash:tasks=exists-label:0:0")
        spec = small_spec()
        store = ResultStore(tmp_path)
        summary = run_spec(
            spec,
            store,
            workers=2,
            chunk_size=2,
            retry=RetryPolicy(max_attempts=2, backoff_base=0.01),
        )
        assert summary.quarantined == 1
        assert summary.ok == summary.total_tasks - 1
        assert summary.pool_respawns >= 2
        records = store.load(spec)
        poisoned = [r for r in records if r["status"] == "quarantined"]
        assert len(poisoned) == 1
        record = poisoned[0]
        assert record["task_id"] == "exists-label:0:0"
        assert "quarantined after 2 worker crashes" in record["error"]
        assert record["crashes"] == 2
        assert record["crash_signature"]
        assert record["chunk"]
        # Every other task still completed despite the poison neighbour.
        assert {
            r["status"] for r in records if r["task_id"] != "exists-label:0:0"
        } == {"ok"}

    def test_supervised_run_is_deterministic(self, tmp_path, faults):
        faults("crash:tasks=population-parity:2:0,attempts=1")
        spec = small_spec()
        policy = RetryPolicy(max_attempts=3, backoff_base=0.01)
        first = run_spec(
            spec, ResultStore(tmp_path / "a"), workers=2, chunk_size=2, retry=policy
        )
        second = run_spec(
            spec, ResultStore(tmp_path / "b"), workers=2, chunk_size=2, retry=policy
        )
        assert first.ok == second.ok == first.total_tasks
        assert first.pool_respawns == second.pool_respawns == 1
        assert stored_outcomes(first.records) == stored_outcomes(second.records)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "plan",
        ["crash:tasks=exists-label:0:0", "crash:tasks=exists-label:0:0,attempts=1-2"],
    )
    def test_every_resubmission_is_one_attempt_and_one_retry(
        self, tmp_path, faults, plan, workers
    ):
        faults(plan)
        summary = run_spec(
            small_spec(),
            ResultStore(tmp_path),
            workers=workers,
            chunk_size=2,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.01),
        )
        assert summary.retried == sum(r["attempt"] - 1 for r in summary.records)
        if workers == 2 and "attempts" not in plan:
            # Every respawn was one submission of the poison task.
            (poisoned,) = [r for r in summary.records if r["status"] == "quarantined"]
            assert poisoned["attempt"] == summary.pool_respawns


class TestSidecarAtomicity:
    def test_partial_write_leaves_durable_metrics_intact(self, tmp_path, faults):
        spec = small_spec()
        store = ResultStore(tmp_path)
        first = MetricsSnapshot(counters={"engine.steps{engine=test}": 7})
        store.write_metrics(spec, first)
        faults("partial-write:tasks=*.metrics.json")
        with pytest.raises(InjectedFault, match="partial-write"):
            store.write_metrics(
                spec, MetricsSnapshot(counters={"engine.steps{engine=test}": 5})
            )
        clear_plan()
        assert load_metrics(store.metrics_path(spec)).counters == first.counters
        assert not list(tmp_path.glob("*.tmp-*"))

    def test_partial_write_leaves_spec_sidecar_absent_not_torn(self, tmp_path, faults):
        spec = small_spec()
        store = ResultStore(tmp_path)
        faults("partial-write:tasks=*.spec.json")
        with pytest.raises(InjectedFault, match="partial-write"):
            store.write_spec(spec)
        clear_plan()
        assert not store.spec_path(spec).exists()
        assert not list(tmp_path.glob("*.tmp-*"))
        # The retry after the torn write succeeds and round-trips.
        store.write_spec(spec)
        assert ExperimentSpec.load(store.spec_path(spec)).key() == spec.key()

    def test_spec_sidecar_written_atomically_is_valid_json(self, tmp_path):
        spec = small_spec()
        store = ResultStore(tmp_path)
        store.write_spec(spec)
        data = json.loads(store.spec_path(spec).read_text(encoding="utf-8"))
        assert data["name"] == spec.name


class TestCorruptResultFiles:
    def _seed_store(self, tmp_path) -> tuple[ExperimentSpec, ResultStore]:
        spec = small_spec()
        store = ResultStore(tmp_path)
        summary = run_spec(spec, store, workers=1)
        assert summary.ok == summary.total_tasks == 8
        return spec, store

    def test_mid_file_corruption_warns_and_keeps_the_rest(self, tmp_path):
        spec, store = self._seed_store(tmp_path)
        path = store.results_path(spec)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[3] = lines[3][: len(lines[3]) // 2]  # torn by an external writer
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="skipped 1 undecodable"):
            records = store.load(spec)
        assert len(records) == 7
        with pytest.warns(RuntimeWarning):
            assert len(store.completed_ids(spec)) == 7

    def test_truncated_tail_stays_silent(self, tmp_path):
        spec, store = self._seed_store(tmp_path)
        path = store.results_path(spec)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"task_id": "exists-label:0:0", "status": "o')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = store.load(spec)
        assert len(records) == 8

    @pytest.mark.parametrize("line", ["[1, 2]", '"ok"', "3", "null"])
    @pytest.mark.parametrize("position", ["first", "mid", "last"])
    def test_non_object_lines_warn_and_keep_the_rest(self, tmp_path, line, position):
        # Such a line decodes, so it is never a truncated tail: skipped with
        # the warning wherever it sits, before completed_ids reads task ids.
        spec, store = self._seed_store(tmp_path)
        path = store.results_path(spec)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines.insert({"first": 0, "mid": 4, "last": len(lines)}[position], line)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="skipped 1 undecodable or non-object"):
            assert len(store.load(spec)) == 8
        with pytest.warns(RuntimeWarning):
            assert len(store.completed_ids(spec)) == 8

    def test_stats_loader_mirrors_corruption_recovery(self, tmp_path):
        from repro.obs.report import fold_stats

        spec, store = self._seed_store(tmp_path)
        path = store.results_path(spec)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[0] = "{broken"
        lines[5] = "[1, 2]"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="skipped 2 undecodable"):
            stats = fold_stats(path)
        assert stats["records"] == {"total": 6, "by_status": {"ok": 6}}


class TestStatsFold:
    def test_fold_stats_reports_executor_section(self, tmp_path, faults, monkeypatch):
        from repro.obs.metrics import enable_metrics
        from repro.obs.report import fold_stats

        monkeypatch.setenv("REPRO_METRICS", "1")
        enable_metrics(reset=True)
        faults("crash:tasks=exists-label:0:0,attempts=1")
        spec = small_spec()
        store = ResultStore(tmp_path)
        summary = run_spec(
            spec,
            store,
            workers=2,
            chunk_size=2,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.01),
        )
        assert summary.ok == summary.total_tasks
        stats = fold_stats(store.results_path(spec))
        executor = stats["executor"]
        assert executor["pool_respawns"] >= 1
        assert sum(executor["retries"].values()) >= 1
        assert executor["quarantined"] == {}
        assert stats["records"]["by_status"] == {"ok": 8}

    def test_format_stats_renders_fault_tolerance_line(self):
        from repro.obs.report import format_stats

        stats = {
            "results": "r.jsonl",
            "records": {"total": 2, "by_status": {"ok": 1, "quarantined": 1}},
            "throughput": {"runs": 1, "p50_steps_per_s": None, "p95_steps_per_s": None},
            "dispatch": {
                "rungs": dict.fromkeys(
                    ("replicate", "vector-batch", "vector-pernode", "sequential"), 0
                ),
                "rung_runs": dict.fromkeys(
                    ("replicate", "vector-batch", "vector-pernode", "sequential"), 0
                ),
                "fallbacks": {},
            },
            "engines": {},
            "caches": {},
            "rows_retired": {},
            "executor": {
                "retries": {"crashed": 3, "failed": 1},
                "pool_respawns": 2,
                "quarantined": {"crash-loop": 1},
                "crash_chunks": {"c1.0": 1},
            },
            "phases": {},
            "events": {},
            "sidecars": {"trace": None, "metrics": None},
        }
        rendered = format_stats(stats)
        assert "fault tolerance: 4 retries (crashed=3, failed=1)" in rendered
        assert "2 pool respawns" in rendered
        assert "1 quarantined" in rendered
        assert "crash records by chunk: c1.0=1" in rendered
