"""Backend-scaling measurements shared by the benchmark driver and the CLI.

The comparison logic used to live inside
``benchmarks/bench_backends_scaling.py``; it moved here so that both the
pytest benchmark (which asserts the ≥ 20× acceptance criterion) and
``python -m repro bench`` (which writes the ``BENCH_backends.json`` artifact)
run the *same* measurement code instead of drifting apart.

Every timed side is the median of :data:`REPEATS` runs, alternated with the
side it is compared against, so a slow moment of a shared host moves one
sample of one side instead of the ratio.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections.abc import Callable

from repro.core import Alphabet, cycle_graph, implicit_clique_graph
from repro.core.labels import LabelCount
from repro.core.machine import DistributedMachine
from repro.obs.metrics import disable_metrics, enable_metrics, get_metrics, metrics_enabled
from repro.workloads import (
    EngineOptions, InstanceSpec, MachineWorkload, PopulationWorkload, build_workload,
)
from repro.workloads.catalog import local_majority_machine

_PERNODE_SKIPPED = "engine.silent_steps_skipped{engine=vector-pernode}"

#: Timed runs per side; the median is reported.
REPEATS = 3


def _alternated_medians(sides: dict[object, Callable[[], object]]) -> tuple[dict, dict]:
    """Median wall time per side over :data:`REPEATS` rounds, and each side's result.

    ``sides`` maps a key to a zero-argument callable; each round runs every
    side once, in order.  A full collection owed by earlier allocations (a
    pytest session's collected items, say) must not land in a millisecond
    timing, so each run starts after ``gc.collect()``.
    """
    samples: dict = {key: [] for key in sides}
    results: dict = {}
    for _ in range(REPEATS):
        for key, run in sides.items():
            gc.collect()
            start = time.perf_counter()
            results[key] = run()
            samples[key].append(time.perf_counter() - start)
    return {key: statistics.median(times) for key, times in samples.items()}, results


def _run_machine(
    machine, graph, backend: str, max_steps: int, stability_window: int, seed: int
):
    """One seeded random-exclusive run of ``machine`` on the named backend."""
    options = EngineOptions(
        max_steps=max_steps, stability_window=stability_window, backend=backend
    )
    return MachineWorkload(machine, graph, options).run(seed)


def _backend_run(machine, graph, backend: str, max_steps: int, window: int, seed: int):
    """A zero-argument :func:`_run_machine` call, for :func:`_alternated_medians`."""
    return lambda: _run_machine(machine, graph, backend, max_steps, window, seed)


def compare_backends(
    ab: Alphabet,
    n: int,
    a_count: int,
    per_node_budget: int,
    count_max_steps: int,
    seed: int = 1,
) -> dict:
    """Time both backends on one clique-majority instance.

    The per-node backend runs a fixed step budget (running it to
    stabilisation at n=10⁴ would take minutes); its per-step cost times the
    count backend's full trajectory length estimates the full per-node run.
    """
    machine = local_majority_machine(ab, n)
    labels = ["a"] * a_count + ["b"] * (n - a_count)
    graph = implicit_clique_graph(ab, labels, name=f"clique-{n}")

    timings, results = _alternated_medians(
        {
            "count": _backend_run(machine, graph, "count", count_max_steps, 200, seed),
            "per-node": _backend_run(machine, graph, "per-node", per_node_budget, 10**9, seed),
        }
    )
    count_run, count_time, per_node_time = results["count"], timings["count"], timings["per-node"]
    per_node_step_cost = per_node_time / per_node_budget
    estimated_full_per_node = per_node_step_cost * count_run.steps
    return {
        "n": n,
        "verdict": count_run.verdict,
        "count_steps": count_run.steps,
        "count_time": count_time,
        "per_node_budget": per_node_budget,
        "per_node_time": per_node_time,
        "speedup": estimated_full_per_node / max(count_time, 1e-9),
    }


def end_to_end_comparison(ab: Alphabet, n: int, a_count: int, seed: int = 2) -> dict:
    """Both backends run the same instance to stabilisation (feasible n)."""
    machine = local_majority_machine(ab, n)
    labels = ["a"] * a_count + ["b"] * (n - a_count)
    graph = implicit_clique_graph(ab, labels, name=f"clique-{n}")
    timings, results = _alternated_medians(
        {
            backend: _backend_run(machine, graph, backend, 200_000, 200, seed)
            for backend in ("count", "per-node")
        }
    )
    return {
        "verdicts": {backend: result.verdict for backend, result in results.items()},
        "timings": timings,
        "speedup": timings["per-node"] / max(timings["count"], 1e-9),
    }


def compare_pernode_backends(
    ab: Alphabet, n: int, a_count: int, steps: int, seed: int = 4
) -> dict:
    """Compiled vs reference per-node engines on one cycle majority instance.

    The two engines consume the same schedule stream, so for the same seed
    they execute the *same trajectory*; running both to an identical fixed
    step budget makes the wall-time ratio a direct per-step speedup (and the
    equal outcomes double as a differential check).
    """
    machine = local_majority_machine(ab, n)
    labels = ["a"] * a_count + ["b"] * (n - a_count)
    graph = cycle_graph(ab, labels, name=f"cycle-{n}")
    timings, results = _alternated_medians(
        {
            backend: _backend_run(machine, graph, backend, steps, 10**9, seed)
            for backend in ("per-node", "compiled")
        }
    )
    outcomes = {
        backend: (result.verdict.value, result.steps, result.stabilised_at)
        for backend, result in results.items()
    }
    return {
        "section": "pernode",
        "graph": "cycle",
        "n": n,
        "steps": steps,
        "identical_runs": outcomes["per-node"] == outcomes["compiled"],
        "timings": timings,
        "reference_us_per_step": timings["per-node"] / steps * 1e6,
        "compiled_us_per_step": timings["compiled"] / steps * 1e6,
        "speedup": timings["per-node"] / max(timings["compiled"], 1e-9),
    }


def _toggle_machine(ab: Alphabet) -> DistributedMachine:
    """Every selected node flips between two states with no output.

    Each step changes the configuration and no run reaches a consensus or
    goes dead, so every engine steps its whole budget.
    """
    return DistributedMachine(
        alphabet=ab,
        beta=1,
        init=lambda _label: 0,
        delta=lambda state, _view: 1 - state,
        name="toggle",
    )


def pernode_step_cost_scaling(
    ab: Alphabet,
    small_n: int,
    large_n: int,
    compiled_steps: int,
    reference_steps: int,
    seed: int = 6,
) -> dict:
    """Per-step cost of both per-node engines at two cycle sizes.

    The reference loop pays O(n) per step (configuration rebuild plus
    consensus rescan), so its per-step cost grows with the population; the
    compiled engine pays O(deg) — constant on a cycle.  The cost *ratios*
    between the two sizes make that machine-readable: reference ≈
    ``large_n / small_n``, compiled ≈ 1.

    Each engine runs :func:`_toggle_machine`, which every step keeps live,
    for half its budget and for the whole budget from the same seed; the
    per-step cost is the difference of the two times over the difference
    of the budgets, so set-up (compilation, row construction) cancels.
    ``compiled_silent_steps_skipped`` counts the steps the compiled rows
    finished without drawing over the measurement — 0 when every step was
    really taken.
    """
    machine = _toggle_machine(ab)
    was_enabled = metrics_enabled()
    counters = enable_metrics().snapshot().counters
    skipped_before = counters.get(_PERNODE_SKIPPED, 0)
    budgets = {"per-node": reference_steps, "compiled": compiled_steps}
    graphs = {n: cycle_graph(ab, ["a"] * n, name=f"cycle-{n}") for n in (small_n, large_n)}
    try:
        timings, _ = _alternated_medians(
            {
                (backend, n, steps): _backend_run(machine, graphs[n], backend, steps, 10**9, seed)
                for backend, budget in budgets.items()
                for n in graphs
                for steps in (budget // 2, budget)
            }
        )
        costs = {
            backend: [
                (timings[backend, n, budget] - timings[backend, n, budget // 2])
                / (budget - budget // 2)
                for n in graphs
            ]
            for backend, budget in budgets.items()
        }
        counters = get_metrics().snapshot().counters
        skipped = counters.get(_PERNODE_SKIPPED, 0) - skipped_before
    finally:
        if not was_enabled:
            disable_metrics()
    return {
        "section": "pernode",
        "graph": "cycle",
        "sizes": [small_n, large_n],
        "reference_us_per_step": [c * 1e6 for c in costs["per-node"]],
        "compiled_us_per_step": [c * 1e6 for c in costs["compiled"]],
        "reference_cost_ratio": costs["per-node"][1] / max(costs["per-node"][0], 1e-12),
        "compiled_cost_ratio": costs["compiled"][1] / max(costs["compiled"][0], 1e-12),
        "compiled_silent_steps_skipped": skipped,
    }


def _batch_entries(
    workload, scenario: str, batch_sizes: tuple[int, ...], base_seed: int, **fields
) -> list[dict]:
    """One entry per ``B``: alternated medians of ``run_many`` vs ``run_many_sequential``."""
    entries: list[dict] = []
    for runs in batch_sizes:
        timings, batches = _alternated_medians(
            {
                "vectorized": lambda: workload.run_many(runs=runs, base_seed=base_seed),
                "sequential": lambda: workload.run_many_sequential(runs=runs, base_seed=base_seed),
            }
        )
        sequential_time, vectorized_time = timings["sequential"], timings["vectorized"]
        entries.append(
            {
                "section": "batch",
                "name": f"batch-{scenario}-B{runs}",
                "scenario": scenario,
                **fields,
                "runs": runs,
                "identical_batches": batches["vectorized"] == batches["sequential"],
                "consensus": batches["vectorized"].consensus.value,
                "sequential_time": sequential_time,
                "vectorized_time": vectorized_time,
                "sequential_runs_per_sec": runs / max(sequential_time, 1e-9),
                "vectorized_runs_per_sec": runs / max(vectorized_time, 1e-9),
                "speedup": sequential_time / max(vectorized_time, 1e-9),
            }
        )
    return entries


def batch_throughput(
    scenario: str,
    params: dict,
    engine: dict,
    batch_sizes: tuple[int, ...],
    base_seed: int = 11,
) -> list[dict]:
    """Sequential vs vectorized ``run_many`` throughput at several batch sizes.

    One entry per batch size ``B``: the same workload runs ``B`` seeds through
    the per-run loop (``run_many_sequential``) and through the count-level
    batch engine (``run_many``, which dispatches to it for count-eligible
    workloads), and the entry records both runs/sec figures plus their ratio
    as ``speedup``.  Each sequential run is itself a batch of one on the
    same row engine, so ``speedup`` is what sharing the memo tables across
    ``B`` rows buys.  The two batches are compared for equality on the way —
    a free batch-size-invariance check riding along with every benchmark run
    (``identical_batches``).
    """
    workload = build_workload(
        InstanceSpec(scenario, dict(params), EngineOptions(**engine))
    )
    return _batch_entries(workload, scenario, batch_sizes, base_seed, params=dict(params))


def pernode_batch_throughput(
    ab: Alphabet,
    n: int,
    a_count: int,
    max_steps: int,
    batch_sizes: tuple[int, ...],
    base_seed: int = 13,
) -> list[dict]:
    """Sequential vs batched per-node ``run_many`` throughput, non-clique.

    The count-level batch engine is ineligible off the clique, so this is
    the per-node batch engine's benchmark: the cycle majority instance of
    the ``pernode`` section (contiguous label blocks freeze immediately, so
    every row runs the full step budget and the wall-time ratio is a clean
    per-step throughput comparison), run as ``B``-seed batches through
    ``run_many`` vs ``run_many_sequential`` (``B`` batches of one on the same
    row engine).  Entry schema matches :func:`batch_throughput`, with the
    equality of the two batches recorded as ``identical_batches`` — the
    batch-size-invariance check riding along with every benchmark run.
    """
    machine = local_majority_machine(ab, n)
    labels = ["a"] * a_count + ["b"] * (n - a_count)
    workload = MachineWorkload(
        machine=machine,
        graph=cycle_graph(ab, labels, name=f"cycle-{n}"),
        options=EngineOptions(max_steps=max_steps, stability_window=10**9),
    )
    return _batch_entries(
        workload, "cycle-majority", batch_sizes, base_seed, graph="cycle", n=n, steps=max_steps
    )


def population_count_engine_stats(ab: Alphabet, agents: int, seed: int = 3) -> dict:
    """The population-protocol count engine on a large threshold instance."""
    from repro.population import threshold_protocol

    protocol = threshold_protocol(ab, "a", 3)
    half = agents // 2
    count = LabelCount.from_mapping(ab, {"a": half, "b": agents - half})
    options = EngineOptions(max_steps=20_000_000, stability_window=1)
    start = time.perf_counter()
    result = PopulationWorkload(protocol, count, options).run(seed)
    return {
        "agents": agents,
        "verdict": result.verdict,
        "steps": result.steps,
        "wall_time": time.perf_counter() - start,
    }


def backend_scaling_entries(quick: bool = False) -> list[dict]:
    """The ``BENCH_backends.json`` entry list; ``quick`` shrinks the sizes."""
    ab = Alphabet.of("a", "b")
    scale = (
        dict(n=2_000, a_count=1_100, per_node_budget=400, count_max_steps=120_000,
             e2e_n=300, e2e_a=170, agents=2_000,
             pn_n=600, pn_a=330, pn_steps=6_000, pn_sizes=(600, 2_400),
             pn_ref_steps=1_500,
             batch_machine={"a": 600, "b": 120},
             batch_population={"a": 60, "b": 40, "k": 3},
             pb_steps=2_000, pb_sizes=(1, 2, 4, 64, 512))
        if quick
        else dict(n=10_000, a_count=5_500, per_node_budget=800, count_max_steps=400_000,
                  e2e_n=600, e2e_a=330, agents=10_000,
                  pn_n=2_000, pn_a=1_100, pn_steps=20_000, pn_sizes=(2_000, 8_000),
                  pn_ref_steps=4_000,
                  batch_machine={"a": 3_000, "b": 600},
                  batch_population={"a": 60, "b": 40, "k": 3},
                  pb_steps=8_000, pb_sizes=(1, 2, 4, 64, 512))
    )
    entries: list[dict] = []
    stats = compare_backends(
        ab, scale["n"], scale["a_count"], scale["per_node_budget"], scale["count_max_steps"]
    )
    entries.append({"name": "count-vs-per-node-estimated", **stats})
    e2e = end_to_end_comparison(ab, scale["e2e_n"], scale["e2e_a"])
    entries.append({"name": "count-vs-per-node-end-to-end", "n": scale["e2e_n"], **e2e})
    entries.append(
        {"name": "population-count-engine", **population_count_engine_stats(ab, scale["agents"])}
    )
    # The "pernode" section: compiled vs reference per-node engines on
    # non-clique instances (the count backend is ineligible there).
    entries.append(
        {
            "name": "pernode-cycle-compiled-vs-reference",
            **compare_pernode_backends(ab, scale["pn_n"], scale["pn_a"], scale["pn_steps"]),
        }
    )
    small, large = scale["pn_sizes"]
    entries.append(
        {
            "name": "pernode-cycle-step-cost-scaling",
            **pernode_step_cost_scaling(
                ab, small, large, scale["pn_steps"], scale["pn_ref_steps"]
            ),
        }
    )
    # The "batch" section: Monte-Carlo sweep throughput of the count-level
    # multi-seed engine vs the sequential per-run loop, on a count-eligible
    # clique machine scenario and a population scenario, from B=1 up (shipped
    # specs run 2-5 seeds per point) to the deep B=2048 batches.
    entries.extend(
        batch_throughput(
            "clique-majority",
            scale["batch_machine"],
            {"max_steps": 200_000, "stability_window": 200},
            (1, 2, 4, 32, 256, 2048),
        )
    )
    entries.extend(
        batch_throughput(
            "population-threshold",
            scale["batch_population"],
            {"max_steps": 200_000},
            (1, 2, 4, 32, 256, 2048),
        )
    )
    # Non-clique series: the per-node batch engine on the n=2000 cycle
    # majority instance (acceptance bar: >= 3x runs/sec at B >= 512), from
    # B=1 up, since shipped specs run 2-5 seeds per point.
    entries.extend(
        pernode_batch_throughput(
            ab, 2_000, 1_100, scale["pb_steps"], scale["pb_sizes"]
        )
    )
    return entries
