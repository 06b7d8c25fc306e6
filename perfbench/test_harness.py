"""Tests of the benchmark harness itself: names, declared metrics, the gate, the tracer.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import suite  # noqa: E402
from repro.core.results import Verdict  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(kind: str) -> list[str]:
    return [entry["name"] for entry in DECLARED[kind]]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_every_metric_name_is_well_formed_and_unique():
    names = _names("end_to_end") + _names("per_layer")
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))


def test_declared_workloads_are_ones_the_harness_runs():
    declared = [entry["name"] for entry in DECLARED["workloads"]]
    assert list(suite.WORKLOADS) == list(run.WORKLOADS)
    assert set(declared) <= set(suite.WORKLOADS) == set(suite.SEEDS)
    for default, held_out in suite.SEEDS.values():
        assert default != held_out


def test_layer_metrics_produce_exactly_the_declared_per_layer_names():
    empty = {"self_s": {}, "calls": {}, "counters": {}, "parent_self_s": {},
             "parent_overhead_s": 0.0}
    produced = layers.layer_metrics(empty, 1, 1.0, 1.0, 1.0, {})
    assert set(produced) == set(_names("per_layer"))


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    ("workload", "trace", "kind"),
    [
        ("sweep-serial", "0", "end_to_end"),
        ("sweep-serial", "1", "per_layer"),
        ("sweep-pool", "1", "per_layer"),
    ],
)
def test_a_run_prints_every_declared_name_with_its_unit(workload, trace, kind):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = _last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {entry["name"]: entry["unit"] for entry in DECLARED[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    env = json.loads(done.stdout.strip().splitlines()[-2])["env"]
    assert env["seed"] == 3 and env["traced"] == (trace == "1")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if trace == "1":
        assert metrics["unattributed_frac"] < 0.10
    if workload == "sweep-serial" and trace == "1":
        # The pool's 16-task chunks may split a point; the serial ones never do.
        for rung in ("vector-pernode", "vector-batch"):
            assert metrics[f"engine.{rung}.mean_batch"] == suite.RUNS_PER_POINT
    if workload == "sweep-pool":
        assert metrics["workers_traced"] >= 1
        assert metrics["executor.wait_calls"] >= metrics["executor.empty_waits"] > 0


def test_run_without_program_source_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "batch-deep", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def _record(**overrides) -> dict:
    record = {"status": "ok", "verdict": "accept", "expected": True}
    record.update(overrides)
    return record


def test_sweep_gate_flags_failed_wrong_missing_and_undeclared_records():
    assert suite.sweep_failures([_record(), _record(verdict="reject", expected=False)], 2) == 0
    assert suite.sweep_failures([_record(status="failed")], 1) == 1
    assert suite.sweep_failures([_record(verdict="reject")], 1) == 1
    assert suite.sweep_failures([_record(verdict="undecided")], 1) == 1
    assert suite.sweep_failures([_record(expected=None)], 1) == 1
    assert suite.sweep_failures([_record()], 3) == 2


def test_batch_gate_flags_wrong_and_undecided_rows():
    workload = SimpleNamespace(expected=True)
    rows = [Verdict.ACCEPT, Verdict.REJECT, Verdict.UNDECIDED, Verdict.ACCEPT]
    assert suite.batch_failures(workload, rows) == 2
    assert suite.batch_failures(SimpleNamespace(expected=None), [Verdict.ACCEPT]) == 1


def test_self_time_excludes_children_and_same_layer_nesting_counts_once(tmp_path):
    tracer = layers.Tracer(tmp_path)
    outer = tracer.enter("executor")
    time.sleep(0.02)
    inner = tracer.enter("engine.sequential")
    nested = tracer.enter("engine.sequential")
    time.sleep(0.05)
    tracer.exit(nested)
    tracer.exit(inner)
    tracer.exit(outer)
    assert inner.counted and not nested.counted
    assert tracer.self_s["engine.sequential"] >= 0.05
    assert 0.02 <= tracer.self_s["executor"] < 0.05
