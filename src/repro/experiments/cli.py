"""The ``python -m repro`` command line.

Eight subcommands drive the experiment subsystem end to end:

``list-scenarios``
    Print the scenario registry (``--json`` for machine-readable output).
``run SPEC.json``
    Execute a sweep spec on a worker pool, appending to the JSONL result
    store; re-running the same spec resumes from the stored results.
``report SPEC.json``
    Aggregate the stored results of a spec into the per-point table and the
    per-scenario agreement reports.
``stats RESULTS.jsonl | SPEC.json``
    Fold a result file and its observability sidecars (``.trace.jsonl``
    spans, ``.metrics.json`` counters — written when a sweep runs with
    ``REPRO_METRICS=1``) into a performance report: per-rung run counts,
    step throughput percentiles, cache hit rates, time in phase.
``bench``
    Regenerate the Figure-1-style sweep tables through the executor and
    write machine-readable perf artifacts (``BENCH_experiments.json`` and
    ``BENCH_backends.json``).
``docs``
    Regenerate ``docs/scenarios.md`` from the workloads registry,
    ``docs/figure1.md`` from the Figure 1 table and the metric-catalog block
    of ``docs/observability.md`` from ``repro.obs.catalog`` (``--check``
    verifies the committed files instead — the CI drift gate).
``lint``
    Run the repro-lint static invariant checkers over ``src/`` (``--json``
    for the machine-readable report; see ``docs/static-analysis.md``).
``fuzz``
    Differentially fuzz random (machine, graph, property) triples against
    every eligible engine rung and the exact decide procedure, shrinking
    any disagreement to a replayable counterexample (see
    ``docs/fuzzing.md``); exits non-zero on findings — the CI fuzz-smoke
    gate.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import stat
import sys
import time
from pathlib import Path

from repro.experiments.report import agreement_reports, summarise, sweep_table
from repro.experiments.spec import ExperimentSpec
from repro.experiments.store import ResultStore
from repro.workloads import list_scenarios

#: The built-in spec ``python -m repro bench`` sweeps: one grid per scenario
#: family, covering every workload kind the registry distinguishes — the
#: sweep-level counterpart of the Figure 1 table rows.
BENCH_SWEEPS = [
    {"scenario": "exists-label", "grid": {"a": [0, 1], "b": [4], "graph": ["cycle", "line", "star"]}},
    {"scenario": "threshold-broadcast", "grid": {"a": [1, 2], "b": [2], "k": [2], "graph": ["cycle"]}},
    {"scenario": "clique-majority", "grid": {"a": [60], "b": [40]}},
    {"scenario": "absence-probe", "grid": {"a": [1], "b": [2], "graph": ["cycle"]}},
    {"scenario": "absence-probe", "grid": {"a": [3], "b": [0], "graph": ["cycle"]}},
    {"scenario": "absence-probe", "grid": {"a": [2], "b": [1], "graph": ["cycle"]}},
    # The handshake's transient consensus stretches outlast a 600-step window
    # on unlucky seeds; the wider per-sweep window keeps the verdict exact.
    {"scenario": "rendezvous-parity", "grid": {"a": [2, 3], "b": [3], "graph": ["cycle"]},
     "stability_window": 2000},
    {"scenario": "population-majority", "grid": {"a": [6, 3], "b": [3]}},
    {"scenario": "population-threshold", "grid": {"a": [2, 3], "b": [4], "k": [3]}},
    {"scenario": "population-parity", "grid": {"a": [2, 3], "b": [2]}},
]


def bench_spec(quick: bool, base_seed: int = 0) -> ExperimentSpec:
    """The spec ``python -m repro bench`` sweeps (``--quick``: CI scale)."""
    return ExperimentSpec(
        name="bench-figure1-sweep",
        sweeps=tuple(dict(sweep) for sweep in BENCH_SWEEPS),
        runs=2 if quick else 5,
        base_seed=base_seed,
        max_steps=20_000 if quick else 60_000,
        # The rendez-vous handshake has long transient consensus stretches; a
        # 300-step window can declare them stabilised (the heuristic's
        # documented failure mode), so the bench uses the wider window the
        # repo's own rendez-vous tests use.
        stability_window=600,
    )


def _load_spec(path: str) -> ExperimentSpec:
    try:
        return ExperimentSpec.load(path)
    except FileNotFoundError:
        raise SystemExit(f"error: spec file not found: {path}")
    except IsADirectoryError:
        raise SystemExit(f"error: {path} is a directory, not a spec file")
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: invalid spec {path}: {exc}")


def _directory(path: str, role: str, create: bool = True) -> Path:
    """``path`` as a directory, ``error: …`` if it cannot be one.

    A missing directory is created, unless ``create`` is false: read-only
    commands leave nothing behind and read a missing store as empty.
    """
    directory = Path(path)
    try:
        if create:
            directory.mkdir(parents=True, exist_ok=True)
        elif not stat.S_ISDIR(directory.stat().st_mode):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
    except OSError as exc:
        if create or not isinstance(exc, FileNotFoundError):
            raise SystemExit(
                f"error: cannot use {path} as {role}: {exc.strerror or exc}"
            )
    return directory


def _open_store(path: str, create: bool = True) -> ResultStore:
    return ResultStore(_directory(path, "a result store", create))


def _cmd_list_scenarios(args: argparse.Namespace) -> int:
    scenarios = list_scenarios()
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "name": s.name,
                        "kind": s.kind,
                        "description": s.description,
                        "defaults": s.defaults,
                    }
                    for s in scenarios
                ],
                indent=2,
            )
        )
        return 0
    width = max(len(s.name) for s in scenarios)
    kind_width = max(len(s.kind) for s in scenarios)
    for s in scenarios:
        print(f"{s.name:<{width}}  {s.kind:<{kind_width}}  {s.description}")
    print(f"\n{len(scenarios)} scenarios; defaults via `list-scenarios --json`")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.executor import RetryPolicy, run_spec

    spec = _load_spec(args.spec)
    store = _open_store(args.store)
    progress = None if args.quiet else lambda line: print(line, end="\r", file=sys.stderr)
    try:
        retry = RetryPolicy(
            max_attempts=args.retries,
            backoff_base=args.backoff,
            backoff_cap=args.backoff_cap,
        )
    except ValueError as exc:
        raise SystemExit(f"error: invalid retry settings: {exc}")
    try:
        summary = run_spec(
            spec,
            store,
            workers=args.workers,
            chunk_size=args.chunk_size,
            task_timeout=args.task_timeout,
            resume=not args.no_resume,
            retry=retry,
            progress=progress,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    if not args.quiet:
        print(file=sys.stderr)
    print(summary.summary())
    print(f"results: {store.results_path(spec)}")
    unsuccessful = (
        summary.failed + summary.timeouts + summary.crashed + summary.quarantined
    )
    if unsuccessful:
        detail = (
            f"{summary.failed} failed, {summary.timeouts} timed-out, "
            f"{summary.crashed} crashed and {summary.quarantined} quarantined"
        )
        print(
            f"warning: {detail} tasks will be retried on the next run",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    store = _open_store(args.store, create=False)
    records = store.load(spec)
    if not records:
        print(
            f"no results for spec {spec.name} ({spec.key()}) in {store.root}; "
            f"run `python -m repro run {args.spec}` first"
        )
        return 1
    summaries = summarise(spec, records)
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "scenario": s.scenario,
                        "params": s.params,
                        "consensus": s.consensus.value,
                        "runs_executed": s.batch.runs_executed,
                        "planned_runs": s.point.runs,
                        "mean_steps": s.batch.mean_steps() if s.batch.steps else None,
                        "expected": s.expected,
                        "matches_expected": s.matches_expected,
                        "failures": s.failures,
                        "timeouts": s.timeouts,
                    }
                    for s in summaries
                ],
                indent=2,
            )
        )
        return 0
    print(f"spec {spec.name} ({spec.key()}): {len(records)} stored records\n")
    print(sweep_table(summaries))
    reports = agreement_reports(summaries)
    if reports:
        print()
        for report in reports:
            print(report.summary())
    mismatches = sum(1 for s in summaries if s.matches_expected is False)
    return 1 if mismatches else 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs.report import fold_stats, format_stats

    target = Path(args.target)
    if target.suffix == ".jsonl":
        # A results file directly; the sidecars are found next to it.
        results_path = target
    else:
        # A spec document: resolve its results file inside the store, exactly
        # like `run` and `report` do — this form never collides with the
        # `.trace.jsonl` sidecars a shell glob over the store would match.
        spec = _load_spec(args.target)
        results_path = _open_store(args.store, create=False).results_path(spec)
    if not results_path.exists():
        print(f"error: no results file at {results_path}", file=sys.stderr)
        return 1
    try:
        stats = fold_stats(results_path)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print(format_stats(stats))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.experiments.backends_bench import backend_scaling_entries
    from repro.experiments.benchjson import write_bench_json
    from repro.experiments.executor import run_spec

    out = _directory(args.out, "the output directory")
    spec = bench_spec(args.quick, args.base_seed)
    store = _open_store(args.store) if args.store else None
    started = time.perf_counter()
    try:
        summary = run_spec(spec, store, workers=args.workers)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    sweep_wall = time.perf_counter() - started
    # Aggregate over the stored records (not just the newly executed ones) so
    # a resumed bench keeps the per-point wall times of the original run.
    records = store.load(spec) if store is not None else summary.records
    summaries = summarise(spec, records)
    print(sweep_table(summaries))
    print()
    for report in agreement_reports(summaries):
        print(report.summary())

    entries = [
        {
            "name": f"{s.scenario}[{s.params_text()}]",
            "scenario": s.scenario,
            "params": s.params,
            "consensus": s.consensus.value,
            "runs": s.batch.runs_executed,
            "mean_steps": s.batch.mean_steps() if s.batch.steps else None,
            "wall_time": sum(
                r.get("wall_time", 0.0)
                for r in records
                if r["point_index"] == s.point.index
            ),
            "matches_expected": s.matches_expected,
        }
        for s in summaries
    ]
    experiments_path = write_bench_json(
        out / "BENCH_experiments.json",
        "experiments",
        entries,
        meta={
            "spec_key": spec.key(),
            "workers": args.workers,
            "quick": args.quick,
            "sweep_wall_time": sweep_wall,
            "tasks": summary.total_tasks,
        },
    )
    print(f"\nwrote {experiments_path}")

    backends_path = write_bench_json(
        out / "BENCH_backends.json",
        "backends",
        backend_scaling_entries(quick=args.quick),
        meta={"quick": args.quick},
    )
    print(f"wrote {backends_path}")
    mismatches = sum(1 for s in summaries if s.matches_expected is False)
    if summary.failed or mismatches:
        print(
            f"warning: {summary.failed} failed tasks, {mismatches} ground-truth "
            f"mismatches",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_docs(args: argparse.Namespace) -> int:
    from repro.experiments.docs import sync_generated_markdown

    paths, problems = sync_generated_markdown(args.dir, check=args.check)
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    if problems:
        return 1
    for path in paths:
        print(f"{path} is up to date with its source" if args.check else f"wrote {path}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import run_lint

    return run_lint(args.paths, as_json=args.json)


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import fuzz_run, render_json, render_text, write_replay

    if args.budget < 1:
        print("error: --budget must be at least 1", file=sys.stderr)
        return 2
    if args.replay_dir:
        replay_dir = _directory(args.replay_dir, "a replay directory")
    report = fuzz_run(budget=args.budget, seed=args.seed, shrink=not args.no_shrink)
    print(render_json(report) if args.json else render_text(report))
    if args.replay_dir:
        for index, document in enumerate(report.findings):
            path = write_replay(replay_dir / f"finding-{index:03d}.json", document)
            print(f"wrote {path}", file=sys.stderr)
    return 0 if report.clean else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run experiment sweeps over the paper's scenario registry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list-scenarios", help="print the scenario registry")
    p_list.add_argument("--json", action="store_true", help="machine-readable output")
    p_list.set_defaults(func=_cmd_list_scenarios)

    p_run = sub.add_parser("run", help="execute a sweep spec")
    p_run.add_argument("spec", help="path to an ExperimentSpec JSON file")
    p_run.add_argument("--store", default="experiment-results", help="result store directory")
    p_run.add_argument("--workers", type=int, default=1, help="worker processes (1 = in-process)")
    p_run.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="tasks per dispatch chunk; a chunk grows to finish a grid point "
        "with fewer runs than this left",
    )
    p_run.add_argument(
        "--task-timeout", type=float, default=None, help="per-task wall-clock budget (seconds)"
    )
    p_run.add_argument(
        "--no-resume", action="store_true", help="re-run tasks even if already stored"
    )
    p_run.add_argument(
        "--retries",
        type=int,
        default=3,
        metavar="N",
        help="in-session attempts per task for transient failures (1 disables)",
    )
    p_run.add_argument(
        "--backoff",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="base retry backoff, doubling per attempt (seeded jitter applies)",
    )
    p_run.add_argument(
        "--backoff-cap",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="upper bound on a single retry backoff delay",
    )
    p_run.add_argument("--quiet", action="store_true", help="suppress progress output")
    p_run.set_defaults(func=_cmd_run)

    p_report = sub.add_parser("report", help="aggregate stored results of a spec")
    p_report.add_argument("spec", help="path to an ExperimentSpec JSON file")
    p_report.add_argument("--store", default="experiment-results", help="result store directory")
    p_report.add_argument("--json", action="store_true", help="machine-readable output")
    p_report.set_defaults(func=_cmd_report)

    p_stats = sub.add_parser(
        "stats", help="fold a result file's observability sidecars into a report"
    )
    p_stats.add_argument(
        "target",
        help="a results .jsonl file, or a sweep spec .json resolved via --store",
    )
    p_stats.add_argument(
        "--store", default="experiment-results", help="result store directory (spec form)"
    )
    p_stats.add_argument("--json", action="store_true", help="machine-readable output")
    p_stats.set_defaults(func=_cmd_stats)

    p_bench = sub.add_parser(
        "bench", help="regenerate the sweep tables and write BENCH_*.json artifacts"
    )
    p_bench.add_argument("--out", default=".", help="directory for BENCH_*.json artifacts")
    p_bench.add_argument(
        "--store", default=None, help="optional result store (enables resume for the sweep)"
    )
    p_bench.add_argument("--workers", type=int, default=2, help="worker processes")
    p_bench.add_argument("--base-seed", type=int, default=0)
    p_bench.add_argument(
        "--quick", action="store_true", help="smaller instances (CI smoke scale)"
    )
    p_bench.set_defaults(func=_cmd_bench)

    p_docs = sub.add_parser(
        "docs", help="regenerate the generated files under docs/ from their sources"
    )
    p_docs.add_argument("--dir", default="docs", help="documentation directory")
    p_docs.add_argument(
        "--check",
        action="store_true",
        help="verify the committed files instead of writing (exit 1 on drift)",
    )
    p_docs.set_defaults(func=_cmd_docs)

    p_lint = sub.add_parser(
        "lint",
        help="run the repro-lint static invariant checkers "
        "(see docs/static-analysis.md)",
    )
    p_lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    p_lint.add_argument(
        "--json", action="store_true", help="emit the machine-readable report"
    )
    p_lint.set_defaults(func=_cmd_lint)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differentially fuzz random (machine, graph, property) triples "
        "against every engine rung and the exact decide procedure",
    )
    p_fuzz.add_argument(
        "--budget", type=int, default=200, help="number of triples to sample"
    )
    p_fuzz.add_argument("--seed", type=int, default=0, help="campaign base seed")
    p_fuzz.add_argument("--json", action="store_true", help="machine-readable output")
    p_fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="report findings unshrunk (faster triage loop)",
    )
    p_fuzz.add_argument(
        "--replay-dir",
        default=None,
        help="write one replay JSON per finding into this directory",
    )
    p_fuzz.set_defaults(func=_cmd_fuzz)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Piping into `head` closes stdout early; exit quietly instead of
        # tracebacking (and detach stdout so interpreter shutdown does not
        # raise a second time).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
