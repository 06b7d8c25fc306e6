"""CLI smoke tests for ``python -m repro`` (in-process via cli.main)."""

from __future__ import annotations

import json
import re

import pytest

from repro.experiments.cli import bench_spec, main
from repro.experiments.executor import run_spec
from repro.experiments.report import summarise
from repro.experiments.spec import ExperimentSpec
from repro.experiments.store import ResultStore
from repro.obs.metrics import disable_metrics, enable_metrics
from repro.obs.snapshot import load_metrics


@pytest.fixture
def spec_path(tmp_path):
    spec = ExperimentSpec.from_dict(
        {
            "name": "cli-test",
            "sweeps": [
                {"scenario": "exists-label", "grid": {"a": [0, 1], "b": [4]}},
                {"scenario": "population-threshold", "grid": {"a": [3], "b": [4], "k": [3]}},
            ],
            "runs": 2,
            "base_seed": 5,
            "max_steps": 20_000,
            "stability_window": 100,
        }
    )
    path = tmp_path / "spec.json"
    spec.save(path)
    return path


class TestListScenarios:
    def test_plain_listing(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("exists-label", "absence-probe", "rendezvous-parity"):
            assert name in out

    def test_json_listing(self, capsys):
        assert main(["list-scenarios", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        names = {entry["name"] for entry in data}
        kinds = {entry["kind"] for entry in data}
        assert {"exists-label", "threshold-broadcast", "population-majority"} <= names
        assert {"detection-machine", "broadcast", "absence", "rendezvous", "population"} <= kinds
        assert all("defaults" in entry for entry in data)


class TestRunAndReport:
    def test_run_then_resume_then_report(self, spec_path, tmp_path, capsys):
        store = str(tmp_path / "results")
        assert main(["run", str(spec_path), "--store", store, "--workers", "2", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "6 tasks" in out and "6 executed" in out

        # Second run resumes: nothing executed.
        assert main(["run", str(spec_path), "--store", store, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "6 already stored, 0 executed" in out

        assert main(["report", str(spec_path), "--store", store]) == 0
        out = capsys.readouterr().out
        assert "exists-label" in out
        assert "declared ground truth" in out

    def test_report_json(self, spec_path, tmp_path, capsys):
        store = str(tmp_path / "results")
        main(["run", str(spec_path), "--store", store, "--quiet"])
        capsys.readouterr()
        assert main(["report", str(spec_path), "--store", store, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 3
        assert all(row["matches_expected"] for row in rows)

    def test_report_without_results(self, spec_path, tmp_path, capsys):
        assert main(["report", str(spec_path), "--store", str(tmp_path / "empty")]) == 1
        assert "no results" in capsys.readouterr().out

    @pytest.mark.parametrize(
        ("command", "stream", "message"),
        [
            ("report", "out", "no results for spec cli-test"),
            ("stats", "err", "error: no results file at"),
        ],
    )
    def test_read_only_commands_create_no_store(
        self, spec_path, tmp_path, capsys, command, stream, message
    ):
        missing = tmp_path / "missing" / "store"
        assert main([command, str(spec_path), "--store", str(missing)]) == 1
        assert message in getattr(capsys.readouterr(), stream)
        assert not (tmp_path / "missing").exists()

    def test_non_object_record_line_is_skipped(self, spec_path, tmp_path, capsys):
        # A results line that decodes to a non-object is skipped with the
        # corruption warning by stats, report and a resuming run alike.
        store = tmp_path / "results"
        assert main(["run", str(spec_path), "--store", str(store), "--quiet"]) == 0
        path = ResultStore(store).results_path(ExperimentSpec.load(spec_path))
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join([*lines[:2], "[1, 2]", *lines[2:]]) + "\n")
        capsys.readouterr()
        argv = ["--store", str(store)]
        with pytest.warns(RuntimeWarning, match="skipped 1 undecodable or non-object"):
            assert main(["stats", str(spec_path), *argv, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["records"]["total"] == 6
        with pytest.warns(RuntimeWarning, match="non-object"):
            assert main(["report", str(spec_path), *argv]) == 0
        assert "6 stored records" in capsys.readouterr().out
        with pytest.warns(RuntimeWarning, match="non-object"):
            assert main(["run", str(spec_path), *argv, "--quiet"]) == 0
        assert "6 already stored, 0 executed" in capsys.readouterr().out

    def test_missing_spec_file(self, tmp_path):
        with pytest.raises(SystemExit, match="not found"):
            main(["run", str(tmp_path / "nope.json")])

    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (["--chunk-size", "0"], "chunk_size must be at least 1"),
            (["--chunk-size", "-2"], "chunk_size must be at least 1"),
            (["--workers", "-2"], "workers must be at least 1"),
            (["--task-timeout", "0"], "task_timeout must be positive"),
            (["--task-timeout", "-1"], "task_timeout must be positive"),
        ],
        ids=lambda v: "=".join(v) if isinstance(v, list) else v.split()[0],
    )
    def test_chunk_size_below_one_is_an_error(
        self, spec_path, tmp_path, flags, message
    ):
        store = tmp_path / "results"
        argv = ["run", str(spec_path), "--store", str(store), *flags]
        with pytest.raises(SystemExit, match=f"error: {message}"):
            main(argv + ["--quiet"])
        assert not list(store.glob("*.jsonl")) and not list(store.glob("*.spec.json"))

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "{spec}", "--store", "{blocked}", "--quiet"],
            ["report", "{spec}", "--store", "{blocked}"],
            ["stats", "{spec}", "--store", "{blocked}"],
            ["bench", "--quick", "--out", "{blocked}"],
        ],
        ids=["run", "report", "stats", "bench"],
    )
    def test_directory_under_a_file_is_an_error(self, spec_path, tmp_path, argv):
        blocker = tmp_path / "file"
        blocker.touch()
        blocked = str(blocker / "dir")
        argv = [arg.format(spec=spec_path, blocked=blocked) for arg in argv]
        message = f"^error: cannot use {re.escape(blocked)} as .*: Not a directory$"
        with pytest.raises(SystemExit, match=message):
            main(argv)

    def test_replay_dir_that_is_a_file_is_an_error_before_the_campaign(
        self, tmp_path, monkeypatch
    ):
        import repro.fuzz

        def campaign(**kwargs):
            raise AssertionError("the campaign ran before the directory check")

        monkeypatch.setattr(repro.fuzz, "fuzz_run", campaign)
        blocker = tmp_path / "file"
        blocker.touch()
        message = f"^error: cannot use {re.escape(str(blocker))} as a replay directory: "
        with pytest.raises(SystemExit, match=message):
            main(["fuzz", "--budget", "1", "--replay-dir", str(blocker)])

    def test_invalid_spec_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x", "sweeps": [], "wat": 1}')
        with pytest.raises(SystemExit, match="invalid spec"):
            main(["run", str(path)])

    MALFORMED = {
        "string-document": '"hello"',
        "list-document": "[1, 2]",
        "sweeps-int": '{"name": "x", "sweeps": 5}',
        "sweep-int": '{"name": "x", "sweeps": [7]}',
        "grid-int": '{"name": "x", "sweeps": [{"scenario": "exists-label", "grid": 5}]}',
        "runs-string": '{"name": "x", "sweeps": [{"scenario": "exists-label"}], "runs": "3"}',
        "sweep-runs-string": (
            '{"name": "x", "sweeps": [{"scenario": "exists-label", "runs": "3"}]}'
        ),
        "runs-bool": '{"name": "x", "sweeps": [{"scenario": "exists-label"}], "runs": true}',
        "max-steps-null": (
            '{"name": "x", "sweeps": [{"scenario": "exists-label"}], "max_steps": null}'
        ),
    }

    @pytest.mark.parametrize("command", ["run", "report", "stats"])
    @pytest.mark.parametrize("document", MALFORMED.values(), ids=MALFORMED)
    def test_malformed_spec_types_are_errors(self, tmp_path, command, document):
        path = tmp_path / "bad.json"
        path.write_text(document)
        store = str(tmp_path / "results")
        with pytest.raises(SystemExit, match=r"^error: invalid spec .* must be "):
            main([command, str(path), "--store", store])


class TestQuickBenchSweep:
    """The sweep ``repro bench --quick`` runs, held to its ground truths."""

    @pytest.mark.parametrize("base_seed", range(4))
    def test_every_point_matches_its_ground_truth(self, base_seed):
        spec = bench_spec(quick=True, base_seed=base_seed)
        assert (spec.runs, spec.max_steps, spec.stability_window) == (2, 20_000, 600)
        summary = run_spec(spec, None, workers=1)
        assert summary.failed == 0
        mismatched = [
            (s.scenario, s.params)
            for s in summarise(spec, summary.records)
            if s.matches_expected is False
        ]
        assert mismatched == []


@pytest.fixture
def metrics_on():
    enable_metrics(reset=True)
    yield
    disable_metrics()


class TestMalformedMetricsSidecar:
    """A ``.metrics.json`` that holds no snapshot ends no CLI path in a traceback."""

    PAYLOADS = {
        "truncated": '{"counters": {"engine.runs{engine=x}": 3',
        "list": "[1, 2]",
        "non-numeric": '{"counters": {"engine.runs{engine=x}": "many"}}',
        "counters-list": '{"counters": [1, 2]}',
    }

    def _sidecar(self, spec_path, store_dir, payload):
        spec = ExperimentSpec.load(spec_path)
        path = ResultStore(store_dir).metrics_path(spec)
        path.write_text(payload)
        return spec, path

    @pytest.mark.parametrize("payload", PAYLOADS.values(), ids=PAYLOADS)
    def test_stats_reports_an_error(
        self, spec_path, tmp_path, capsys, metrics_on, payload
    ):
        store = tmp_path / "results"
        assert main(["run", str(spec_path), "--store", str(store), "--quiet"]) == 0
        _, path = self._sidecar(spec_path, store, payload)
        capsys.readouterr()
        for json_flag in ([], ["--json"]):
            argv = ["stats", str(spec_path), "--store", str(store), *json_flag]
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: {path}: not a metrics snapshot")

    @pytest.mark.parametrize("payload", PAYLOADS.values(), ids=PAYLOADS)
    def test_run_rewrites_the_sidecar_from_this_session(
        self, spec_path, tmp_path, capsys, metrics_on, payload
    ):
        store = tmp_path / "results"
        assert main(["run", str(spec_path), "--store", str(store), "--quiet"]) == 0
        spec, path = self._sidecar(spec_path, store, payload)
        enable_metrics(reset=True)
        argv = ["run", str(spec_path), "--store", str(store), "--quiet", "--no-resume"]
        with pytest.warns(RuntimeWarning, match=re.escape(f"{path}: not a metrics")):
            assert main(argv) == 0
        assert "6 executed" in capsys.readouterr().out
        records = ResultStore(store).load(spec)
        assert len(records) == 12
        # The rewritten sidecar counts this session's runs only.
        counters = load_metrics(path).counters
        runs = sum(v for k, v in counters.items() if k.startswith("dispatch.runs"))
        assert runs == 6
