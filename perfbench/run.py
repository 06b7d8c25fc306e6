"""End-to-end benchmark of sweeps, deep batches and exact-decision fuzzing.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-pool --seed 0 --seconds 55 --trace 0

Each workload splits its inputs into short units (``suite.py``).  A run
times every unit once per *pass* and makes passes until ``--seconds`` have
passed, and keeps, per unit, the fastest of its repetitions.  Noise from
other tenants of the host only ever adds time, and it comes in bursts: on
the 2-vCPU VM this was written on, a fixed pure-Python loop's 10-second
means moved by ±15% while its minima moved by ±7%, and the two vCPUs' slow
periods were uncorrelated.  Single-process workloads therefore pin each
pass to the next CPU in turn.  The host's speed also moved by 1.3-1.8x for
minutes at a time, on both vCPUs, so every pass is bracketed by a reading
of a fixed reference mix (:func:`reference_seconds`), and the end-to-end
timings are scaled to what they would read where the mix takes
``REFERENCE_S``; the unscaled figures are printed on the ``env`` line.
Comparing runs is left to medians over runs.

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
first makes passes untraced for half the time, then wraps every layer (see
``layers.py``) and makes passes for the other half, and reports the
per-layer metrics.  Metric names and units come from ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
stamps the environment.  The exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import mmap
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep-serial", "sweep-pool", "batch-deep", "fuzz-exact")

#: Fresh processes timed from launch to the end of set-up; the median is ``setup_s``.
SETUP_PROBES = 7
#: Passes a run makes at least, even when they outlast ``--seconds``
#: (each half of a traced run makes ``MIN_TRACED_PASSES``).
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
#: The reference mix's fastest time on a quiet host (a 2-vCPU Intel Xeon
#: VM); end-to-end timings are reported as they would read at that speed.
REFERENCE_S = 0.013
#: Timings of the reference mix per reading; the fastest is kept.
REFERENCE_REPS = 8


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """The checked-out commit, read from ``.git`` (``unknown`` outside a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int, traced: bool, seconds: float, passes: int) -> dict:
    import numpy

    from suite import SEEDS

    default_seed, held_out_seed = SEEDS[workload]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
        "default_seed": default_seed,
        "held_out_seed": held_out_seed,
        "traced": traced,
        "seconds": seconds,
        "passes": passes,
    }


#: A 16 MiB table, larger than a core's caches, for the reference mix's
#: scattered lookups.  Filled on the first reading, before any timed call,
#: and resident from then on, so ``peak_rss_mb`` leaves out ``_TABLE_KIB``.
#: Pool workers do not inherit it.
_TABLE_KIB = 1 << 14
_TABLE = mmap.mmap(-1, _TABLE_KIB * 1024)
_TABLE.madvise(mmap.MADV_DONTFORK)
_table_filled = False


def _reference_once() -> None:
    """A fixed mix of the work the program does.

    Integer loops, small dicts, small numpy ops, and lookups scattered over
    a large table, which slow down with other tenants' cache use as the
    exact decision procedure's configuration sets do.
    """
    import numpy

    total = 0
    for i in range(20_000):
        total += i * i % 7
    counts: dict[int, int] = {}
    for i in range(3_000):
        counts[i % 97] = counts.get(i % 97, 0) + 1
    values = numpy.arange(20_000, dtype=numpy.int64)
    for _ in range(20):
        values = (values * 3 + 1) % 1000
    mask = len(_TABLE) - 1
    for i in range(40_000):
        total += _TABLE[i * 40_503 & mask]


def reference_seconds() -> float:
    """The fastest of ``REFERENCE_REPS`` timings of the reference mix: the host's speed now."""
    global _table_filled
    if not _table_filled:
        block = bytes(range(256)) * 4
        for offset in range(0, len(_TABLE), len(block)):
            _TABLE[offset : offset + len(block)] = block
        _table_filled = True
    best = float("inf")
    for _ in range(REFERENCE_REPS):
        start = time.perf_counter()
        _reference_once()
        best = min(best, time.perf_counter() - start)
    return best


def measure(workload, seconds: float, min_passes: int, after_each=None,
            whole_passes: bool = True, references: list | None = None) -> list[list]:
    """Passes over every unit until ``seconds`` have passed and ``min_passes`` are done.

    With ``whole_passes`` false the last pass stops at the first unit that
    starts after ``seconds``, so it may hold only a prefix of the units.
    With a ``references`` list, each pass appends the lesser of the
    :func:`reference_seconds` taken just before and just after it.
    """
    passes = []
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()

    def over() -> bool:
        return len(passes) >= min_passes and time.perf_counter() - start >= seconds

    try:
        while not over():
            if workload.single_process:
                # Each pass on the next CPU, so that every unit's fastest
                # repetition can come from the least contended one.
                os.sched_setaffinity(0, {cpus[len(passes) % len(cpus)]})
            before = reference_seconds() if references is not None else 0.0
            one = []
            for index in range(workload.units):
                if not whole_passes and one and over():
                    break
                one.append(workload.run_unit(index))
                if after_each is not None:
                    after_each(one[-1])
            passes.append(one)
            if references is not None:
                references.append(min(before, reference_seconds()))
    finally:
        os.sched_setaffinity(0, cpus)
    return passes


def columns(passes: list[list]) -> list[list]:
    """Per unit, all its repetitions."""
    return [[one[index] for one in passes if index < len(one)]
            for index in range(len(passes[0]))]


def fastest(passes: list[list]) -> list:
    """Per unit, the repetition with the least wall time."""
    return [min(column, key=lambda rep: rep.wall_s) for column in columns(passes)]


def least_scaled(passes: list[list], scales: list[float], field: str) -> float:
    """Sum over units of the least ``field`` of any repetition, times its pass's scale."""
    return sum(
        min(getattr(one[index], field) * scale
            for one, scale in zip(passes, scales) if index < len(one))
        for index in range(len(passes[0]))
    )


def setup_seconds(args) -> tuple[float, float]:
    """Median set-up time of fresh processes, from launch to the end of set-up.

    Returned with the lesser of the :func:`reference_seconds` taken just
    before and just after the probes.
    """
    command = [
        sys.executable, str(HERE / "run.py"), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    before = reference_seconds()
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - start
            probe.stdout.read()
            if probe.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed: {line!r}")
        samples.append(elapsed)
    return statistics.median(samples), min(before, reference_seconds())


def _result(reps: list, metrics: dict, units: dict, extra_failed: int = 0) -> dict:
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps) + extra_failed
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }


def end_to_end(args, workload, units: dict) -> tuple[dict, int, dict]:
    """The end-to-end metrics, and the same timings unscaled."""
    import suite

    references: list[float] = []
    passes = measure(workload, args.seconds, MIN_PASSES, whole_passes=False,
                     references=references)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    largest_child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    reps = [rep for one in passes for rep in one]
    runs = sum(rep.runs for rep in passes[0])
    cases = sum(rep.cases for rep in passes[0])
    # Per unit, the least time of any repetition, as it would read at the
    # reference speed: 1.0 leaves the timings as measured.
    timings = {}
    for label, scales in (("scaled", [REFERENCE_S / ref for ref in references]),
                          ("unscaled", [1.0] * len(passes))):
        wall = least_scaled(passes, scales, "wall_s")
        timings[label] = {
            "runs_per_s": runs / wall,
            "cases_per_s": cases / wall,
            "cpu_s": least_scaled(passes, scales, "cpu_s"),
        }
    suite.reap_children()
    setup, reference = setup_seconds(args)
    timings["scaled"]["setup_s"] = setup * REFERENCE_S / reference
    timings["unscaled"]["setup_s"] = setup
    timings["unscaled"]["reference_s"] = statistics.median(references + [reference])
    metrics = {
        **timings["scaled"],
        # ru_maxrss is in KiB on Linux; the child figure is the largest
        # reaped child, which only the pool workload has.
        "peak_rss_mb": (own - _TABLE_KIB + largest_child) / 1024.0,
        "ok_frac": 1.0 - sum(rep.failed for rep in reps) / sum(rep.attempted for rep in reps),
    }
    return _result(reps, metrics, units), len(passes), timings["unscaled"]


def traced(args, workload, units: dict, scratch: Path) -> tuple[dict, int]:
    import layers

    half = args.seconds / 2.0
    plain = measure(workload, half, MIN_TRACED_PASSES)

    trace_dir = scratch / "trace"
    trace_dir.mkdir()
    totals: dict = {}
    details: list[dict] = []

    def fold(rep) -> None:
        layers.accumulate(totals, tracer.collect())
        details.append(rep.detail)

    tracer = layers.install(trace_dir)
    try:
        passes = measure(workload, half, MIN_TRACED_PASSES, after_each=fold)
    finally:
        layers.uninstall()

    count = len(passes)
    extra = {
        key: sum(detail.get(key, 0) for detail in details) / count
        for key in set().union(*details)
    }
    latencies = [detail["first_chunk_s"] for detail in details if "first_chunk_s" in detail]
    extra["first_chunk_s"] = statistics.mean(latencies) if latencies else 0.0
    extra["workers_traced"] = totals.get("workers", 0) / count
    identity_failures = 0
    if hasattr(workload, "bit_identity_failures"):
        identity_failures = workload.bit_identity_failures()
    extra["bit_identity_failures"] = identity_failures
    reps = [rep for one in plain + passes for rep in one]
    extra["failed_frac"] = (
        sum(rep.failed for rep in reps) + identity_failures
    ) / sum(rep.attempted for rep in reps)
    metrics = layers.layer_metrics(
        totals,
        count,
        traced_wall=sum(rep.wall_s for one in passes for rep in one) / count,
        untraced_best=sum(rep.wall_s for rep in fastest(plain)),
        traced_best=sum(rep.wall_s for rep in fastest(passes)),
        extra=extra,
    )
    return _result(reps, metrics, units, identity_failures), count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's default seed)")
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="how long the measured passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced pass")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "sweep-pool":
        # Read by repro.obs at import: telemetry and sidecars on, as in CI.
        os.environ["REPRO_METRICS"] = "1"
    sys.path.insert(0, str(SRC))

    scratch = ROOT / ".perfbench-tmp" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        import suite

        if args.seed is None:
            args.seed = suite.SEEDS[args.workload][0]
        workload = suite.build(args.workload, args.seed, scratch)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        kind = "per_layer" if args.trace else "end_to_end"
        units = {entry["name"]: entry["unit"] for entry in _declared()[kind]}
        if args.trace:
            result, passes = traced(args, workload, units, scratch)
            unscaled = None
        else:
            result, passes, unscaled = end_to_end(args, workload, units)
        env = environment(args.workload, args.seed, bool(args.trace), args.seconds, passes)
        print(json.dumps({"env": env, "unscaled": unscaled}))
        print(json.dumps(result))
        return 0
    except Exception:  # noqa: BLE001 - a failed run prints no result, only the traceback
        traceback.print_exc()
        return 1
    finally:
        if "suite" in sys.modules:
            sys.modules["suite"].reap_children()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
