"""The four benchmark workloads: their inputs, the timed calls, and the correctness gate.

Each workload is built from the ``--seed`` alone (same seed, same inputs)
and splits its inputs into short *units*, each a complete call into the
program of about 0.05 to 0.8 seconds: ``run_unit(i)`` times unit ``i`` once
and returns a :class:`Rep`.  ``single_process`` says whether the calls stay
in this process, so that ``run.py`` may pin them to one CPU.  ``run.py`` repeats the whole
set of units and keeps, per unit, the fastest repetition (see there for
why).  ``run_unit`` never raises on a wrong answer: the gate in
:func:`sweep_failures` / :func:`batch_failures` counts it, and the counts
feed ``failed`` and ``ok_frac``.

Every grid point below was chosen so that no seed can fail it, either by
construction (the wrong verdict is unreachable) or by a 1,500-seed scan
(see ``KNOWN_ISSUES.md`` for the regimes kept out, each with a reproducer).
"""

from __future__ import annotations

import multiprocessing
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.batch import derive_seed
from repro.core.results import Verdict
from repro.experiments import executor
from repro.experiments.spec import ExperimentSpec
from repro.experiments.store import ResultStore
from repro.workloads.base import build_workload

#: Name -> (default seed, held-out seed).  Tune on the default seed; check a
#: claimed gain again on the held-out one, which was not used while tuning.
SEEDS = {
    "sweep-serial": (0, 7919),
    "sweep-pool": (0, 7919),
    "batch-deep": (0, 104729),
    "fuzz-exact": (0, 1299709),
}

#: Runs per grid point, as in the shipped specs.  Every sweep point uses the
#: same count and the spec has a multiple of 8 points, so the serial
#: executor's chunks (``len(tasks) // 8``) never split a point: each
#: lockstep batch then holds exactly this many rows.
RUNS_PER_POINT = 3

BOUNDED_FAMILIES = ["cycle", "line", "random-regular", "watts-strogatz", "barabasi-albert"]


@dataclass
class Rep:
    """What one timed call did."""

    wall_s: float
    cpu_s: float
    runs: int  # Monte-Carlo runs completed
    cases: int  # instances whose verdicts were checked
    attempted: int  # operations the gate checked
    failed: int  # operations the gate rejected
    detail: dict = field(default_factory=dict)


def _self_cpu() -> float:
    """CPU seconds of this process alone."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    return own.ru_utime + own.ru_stime


def _cpu_now() -> float:
    """CPU seconds of this process plus every child it has reaped."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return _self_cpu() + kids.ru_utime + kids.ru_stime


def reap_children(timeout: float = 60.0) -> None:
    """Join every child process so its rusage is counted (and none outlives us).

    ``run_spec`` shuts its pool down with ``wait=False``; until the workers
    are joined, ``RUSAGE_CHILDREN`` reads zero for them.
    """
    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()


# --------------------------------------------------------------------- #
# Sweeps
# --------------------------------------------------------------------- #
def sweep_groups(seed: int) -> list[list[dict]]:
    """A bounded-degree research sweep of 164 points, as 21 groups of sweep entries.

    It covers all five workload kinds and the families ``cycle``, ``line``,
    ``random-regular``, ``watts-strogatz``, ``barabasi-albert`` and
    ``implicit-clique``.  The seed sets the random-graph seeds.  Every
    group has a multiple of 8 points, so the serial executor's chunks
    (``len(tasks) // 8``) never split a point of a group's spec.
    """
    graph_seeds = [derive_seed(seed, 1000 + i) % 100_000 for i in range(2)]
    rendezvous = {"stability_window": 2000}  # the handshake needs the wide window
    # Flooding cannot accept without an 'a' and cannot reject once one
    # exists, so every seed agrees.  8 points per (b, family).
    groups = [
        [{"scenario": "exists-label", "grid": {
            "a": [0, 1, 2, 3], "b": [b], "graph": [graph], "graph_seed": graph_seeds}}]
        for b in (12, 30, 60)
        for graph in BOUNDED_FAMILIES + ["implicit-clique"]
    ]
    groups += [
        # Weak broadcast: a >= k anywhere; a < k only on lines (a cycle
        # of length >= 4 lets a wave recirculate).
        [{"scenario": "threshold-broadcast", "grid": {
            "a": [2, 3], "b": [2, 6], "k": [2], "graph": ["cycle", "line"]}}],
        [
            {"scenario": "rendezvous-majority", "grid": {
                "a": [4, 6], "b": [1], "graph": ["cycle", "random-regular"],
                "graph_seed": graph_seeds[:1]}, **rendezvous},
            {"scenario": "rendezvous-majority", "grid": {
                "a": [1], "b": [3], "graph": ["cycle"]}, **rendezvous},
            {"scenario": "rendezvous-parity", "grid": {
                "a": [1, 2, 3], "b": [2], "graph": ["cycle"]}, **rendezvous},
        ],
        [
            {"scenario": "rendezvous-majority", "grid": {
                "a": [1], "b": [4], "graph": ["line"]}, **rendezvous},
            {"scenario": "rendezvous-parity", "grid": {
                "a": [1], "b": [2], "graph": ["line"]}, **rendezvous},
            {"scenario": "threshold-broadcast", "grid": {
                "a": [1], "b": [2, 4, 6], "k": [2], "graph": ["line"]}},
            # Absence detection: one probe when markers exist, >= 3 nodes.
            {"scenario": "absence-probe", "grid": {
                "a": [1], "b": [2, 6], "graph": ["cycle", "line"]}},
            {"scenario": "absence-probe", "grid": {
                "a": [3, 4], "b": [0], "graph": ["cycle", "line"]}},
            # Margin >= 2 keeps the initial majority invariant.
            {"scenario": "clique-majority", "grid": {
                "a": [2, 3, 4, 5, 6, 12, 13, 14, 15, 16], "b": [9]}},
            # Population protocols: small populations, clear margins (the
            # counts engine's fixed 10*n window misfires on larger ones).
            {"scenario": "population-majority", "grid": {"a": [1, 2], "b": [4, 6]}},
            {"scenario": "population-majority", "grid": {"a": [5, 7], "b": [1, 2]}},
            {"scenario": "population-threshold", "grid": {"a": [1, 2], "b": [4, 8], "k": [3]}},
            {"scenario": "population-threshold", "grid": {"a": [6, 8], "b": [2], "k": [3]}},
            {"scenario": "population-parity", "grid": {"a": [1, 2, 3], "b": [2]}},
        ],
    ]
    return groups


def sweep_specs(seed: int, merge: int = 1) -> list[ExperimentSpec]:
    """One spec per ``merge`` consecutive groups of :func:`sweep_groups`.

    The seed also sets every spec's base seed (every run's schedule).
    """
    groups = sweep_groups(seed)
    return [
        ExperimentSpec.from_dict({
            "name": f"perfbench-sweep-{index // merge}",
            "sweeps": [entry for group in groups[index : index + merge] for entry in group],
            "runs": RUNS_PER_POINT,
            "base_seed": seed,
            "max_steps": 40_000,
            "stability_window": 600,
            "backend": "auto",
        })
        for index in range(0, len(groups), merge)
    ]


def sweep_failures(records: list[dict], expected_tasks: int) -> int:
    """Records that are not ``ok`` or disagree with declared ground truth.

    A task with no record at all counts as failed too.
    """
    failed = max(0, expected_tasks - len(records))
    for record in records:
        if record.get("status") != "ok":
            failed += 1
        elif record.get("expected") is None or record.get("verdict") not in ("accept", "reject"):
            failed += 1
        elif (record["verdict"] == "accept") != record["expected"]:
            failed += 1
    return failed


class SweepWorkload:
    """``run_spec`` over each spec of :func:`sweep_specs` into a fresh temp store.

    One unit per spec.  Short units let a run's fastest repetition of each
    find a quiet moment of the host; the pool merges three groups per spec
    so that its start-up does not dominate a unit.
    """

    def __init__(self, seed: int, workers: int, scratch: Path, merge: int = 1):
        self.workers = workers
        self.single_process = workers == 1
        self.scratch = scratch
        self.specs = sweep_specs(seed, merge)
        self.tasks = [len(spec.expand()) for spec in self.specs]
        self.points = [len(spec.points()) for spec in self.specs]
        self.progress_calls: list[float] = []

    @property
    def units(self) -> int:
        return len(self.specs)

    def _progress(self, message: str) -> None:
        self.progress_calls.append(time.perf_counter())

    def run_unit(self, index: int) -> Rep:
        root = Path(tempfile.mkdtemp(prefix="store-", dir=self.scratch))
        store = ResultStore(root)
        self.progress_calls = []
        cpu0 = _cpu_now()
        parent_cpu0 = _self_cpu()
        start = time.perf_counter()
        # Through the module attribute, so a traced pass sees the call.
        summary = executor.run_spec(
            self.specs[index], store, workers=self.workers, progress=self._progress
        )
        wall = time.perf_counter() - start
        parent_cpu = _self_cpu() - parent_cpu0
        reap_children()
        cpu = _cpu_now() - cpu0
        detail = {
            "first_chunk_s": self.progress_calls[0] - start if self.progress_calls else 0.0,
            "parent_cpu_s": parent_cpu,
            "chunks": len(self.progress_calls),
            "retries": summary.retried,
            "pool_respawns": summary.pool_respawns,
            "points": self.points[index],
            **_store_files(root),
        }
        shutil.rmtree(root, ignore_errors=True)
        return Rep(
            wall_s=wall,
            cpu_s=cpu,
            runs=len(summary.records),
            cases=self.points[index],
            attempted=self.tasks[index],
            failed=sweep_failures(summary.records, self.tasks[index]),
            detail=detail,
        )


def _file_bytes(root: Path, suffix: str) -> int:
    return sum(path.stat().st_size for path in root.glob(f"*{suffix}"))


def _store_files(root: Path) -> dict[str, int]:
    """Sizes of the results file and the observability sidecars of one sweep."""
    traces = _file_bytes(root, ".trace.jsonl")
    return {
        "store_bytes": _file_bytes(root, ".jsonl") - traces,
        "trace_bytes": traces,
        "metrics_sidecar_bytes": _file_bytes(root, ".metrics.json"),
    }


# --------------------------------------------------------------------- #
# Deep batches
# --------------------------------------------------------------------- #
#: One unit per instance: (scenario, params, engine options, batch size).
#: All have a margin wide enough that no row can stabilise on the wrong
#: verdict.
BATCH_INSTANCES = (
    ("rendezvous-majority", {"a": 7, "b": 1, "graph": "random-regular"},
     {"max_steps": 40_000, "stability_window": 2000}, 128),
    ("exists-label", {"a": 3, "b": 997, "graph": "random-regular"},
     {"max_steps": 400_000, "stability_window": 600}, 32),
    ("clique-majority", {"a": 2600, "b": 2400},
     {"max_steps": 400_000, "stability_window": 600}, 48),
    ("population-threshold", {"a": 60, "b": 300, "k": 3},
     {"max_steps": 400_000}, 64),
)


def batch_failures(workload, verdicts) -> int:
    """Rows whose verdict is undecided or disagrees with declared ground truth."""
    return sum(
        1
        for verdict in verdicts
        if workload.expected is None
        or verdict not in (Verdict.ACCEPT, Verdict.REJECT)
        or verdict.as_bool() != workload.expected
    )


class BatchWorkload:
    """``Workload.run_many`` at large B, one unit per lockstep-rung instance."""

    single_process = True

    def __init__(self, seed: int):
        graph_seed = derive_seed(seed, 2000) % 100_000
        self.base_seed = seed
        self.instances = []
        for scenario, params, engine, runs in BATCH_INSTANCES:
            params = dict(params)
            if "graph" in params:
                params["graph_seed"] = graph_seed
            self.instances.append((build_workload(scenario, params, **engine), runs))

    @property
    def units(self) -> int:
        return len(self.instances)

    def run_unit(self, index: int) -> Rep:
        workload, runs = self.instances[index]
        cpu0 = _cpu_now()
        start = time.perf_counter()
        result = workload.run_many(runs, base_seed=self.base_seed)
        wall = time.perf_counter() - start
        cpu = _cpu_now() - cpu0
        return Rep(
            wall_s=wall,
            cpu_s=cpu,
            runs=len(result.verdicts),
            cases=1,
            attempted=len(result.verdicts),
            failed=batch_failures(workload, result.verdicts),
        )

    def bit_identity_failures(self, prefix: int = 4) -> int:
        """Instances whose ``run_many`` differs from ``run_many_sequential``.

        Checked on the first ``prefix`` rows only, which keeps the rule that
        the lockstep engines are bit-identical to the per-run loop visible
        to every performance change.
        """
        failures = 0
        for workload, _ in self.instances:
            batch = workload.run_many(prefix, base_seed=self.base_seed)
            loop = workload.run_many_sequential(prefix, base_seed=self.base_seed)
            if batch.verdicts != loop.verdicts or batch.steps != loop.steps:
                failures += 1
        return failures


# --------------------------------------------------------------------- #
# Fuzzing against the exact decision procedure
# --------------------------------------------------------------------- #
#: The fuzz corpus, one unit per single-case campaign ``fuzz_run(1, seed)``.
#: Per-case cost spans 1 ms to 2.5 s, so a seed-dependent corpus of the
#: size that fits in one run would move ``cases_per_s`` by ~30% from seed to
#: seed.  The corpus is therefore fixed, and the seed only rotates its
#: order.  It holds the campaign seeds below 48 whose case took 0.05-0.9 s
#: on a 2-vCPU VM; over half of its time is in the exact decision procedure.
#: The seven cases of 1-2.6 s are left out to keep every unit short.
FUZZ_CAMPAIGNS = (0, 1, 2, 6, 9, 17, 18, 20, 24, 28, 30, 34, 38, 39, 40, 47)
FUZZ_BUDGET = 1


class FuzzWorkload:
    """``fuzz_run(1, campaign)`` with shrinking on, one unit per campaign."""

    single_process = True

    def __init__(self, seed: int):
        from repro.fuzz import runner

        self.runner = runner
        offset = seed % len(FUZZ_CAMPAIGNS)
        self.campaigns = FUZZ_CAMPAIGNS[offset:] + FUZZ_CAMPAIGNS[:offset]
        self.batch_runs = runner.OracleConfig().batch_runs

    @property
    def units(self) -> int:
        return len(self.campaigns)

    def run_unit(self, index: int) -> Rep:
        cpu0 = _cpu_now()
        start = time.perf_counter()
        report = self.runner.fuzz_run(FUZZ_BUDGET, self.campaigns[index], shrink=True)
        wall = time.perf_counter() - start
        cpu = _cpu_now() - cpu0
        cases = report.counters["cases"]
        # The oracle's engine runs: the reference and each rung, plus
        # run_many and run_many_sequential over batch_runs seeds.
        runs = sum(
            value for counter, value in report.counters.items() if counter.startswith("runs:")
        ) + cases * 2 * self.batch_runs
        return Rep(
            wall_s=wall,
            cpu_s=cpu,
            runs=runs,
            cases=cases,
            attempted=cases,
            failed=len(report.findings),
        )


WORKLOADS = ("sweep-serial", "sweep-pool", "batch-deep", "fuzz-exact")


def build(name: str, seed: int, scratch: Path):
    """The workload object for ``name`` (all set-up happens here)."""
    if name == "sweep-serial":
        return SweepWorkload(seed, workers=1, scratch=scratch)
    if name == "sweep-pool":
        return SweepWorkload(seed, workers=2, scratch=scratch, merge=3)
    if name == "batch-deep":
        return BatchWorkload(seed)
    if name == "fuzz-exact":
        return FuzzWorkload(seed)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
