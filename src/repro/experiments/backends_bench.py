"""Backend-scaling measurements shared by the benchmark driver and the CLI.

The comparison logic used to live inside
``benchmarks/bench_backends_scaling.py``; it moved here so that both the
pytest benchmark (which asserts the ≥ 20× acceptance criterion) and
``python -m repro bench`` (which writes the ``BENCH_backends.json`` artifact)
run the *same* measurement code instead of drifting apart.
"""

from __future__ import annotations

import gc
import time

from repro.core import Alphabet, cycle_graph, implicit_clique_graph
from repro.core.labels import LabelCount
from repro.workloads import EngineOptions, InstanceSpec, MachineWorkload, build_workload
from repro.workloads.catalog import local_majority_machine


def _run_machine(
    machine, graph, backend: str, max_steps: int, stability_window: int, seed: int
):
    """One seeded random-exclusive run of ``machine`` on the named backend."""
    options = EngineOptions(
        max_steps=max_steps, stability_window=stability_window, backend=backend
    )
    return MachineWorkload(machine, graph, options).run(seed)


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

    # A full collection owed by the caller's earlier allocations (a pytest
    # session's collected items, say) must not land in a millisecond timing.
    gc.collect()
    start = time.perf_counter()
    count_run = _run_machine(machine, graph, "count", count_max_steps, 200, seed)
    count_time = time.perf_counter() - start

    start = time.perf_counter()
    _run_machine(machine, graph, "per-node", per_node_budget, 10**9, seed)
    per_node_time = time.perf_counter() - start

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
    timings = {}
    verdicts = {}
    for backend in ("count", "per-node"):
        gc.collect()  # as in compare_backends
        start = time.perf_counter()
        result = _run_machine(machine, graph, backend, 200_000, 200, seed)
        timings[backend] = time.perf_counter() - start
        verdicts[backend] = result.verdict
    return {
        "verdicts": verdicts,
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
    timings: dict[str, float] = {}
    outcomes: dict[str, tuple] = {}
    for backend in ("per-node", "compiled"):
        start = time.perf_counter()
        result = _run_machine(machine, graph, backend, steps, 10**9, seed)
        timings[backend] = time.perf_counter() - start
        outcomes[backend] = (result.verdict.value, result.steps, result.stabilised_at)
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
    """
    costs: dict[str, list[float]] = {}
    for backend, budget in (("per-node", reference_steps), ("compiled", compiled_steps)):
        per_step: list[float] = []
        for n in (small_n, large_n):
            machine = local_majority_machine(ab, n)
            a_count = n // 2 + n // 10
            labels = ["a"] * a_count + ["b"] * (n - a_count)
            graph = cycle_graph(ab, labels, name=f"cycle-{n}")
            start = time.perf_counter()
            _run_machine(machine, graph, backend, budget, 10**9, seed)
            per_step.append((time.perf_counter() - start) / budget)
        costs[backend] = per_step
    return {
        "section": "pernode",
        "graph": "cycle",
        "sizes": [small_n, large_n],
        "reference_us_per_step": [c * 1e6 for c in costs["per-node"]],
        "compiled_us_per_step": [c * 1e6 for c in costs["compiled"]],
        "reference_cost_ratio": costs["per-node"][1] / max(costs["per-node"][0], 1e-12),
        "compiled_cost_ratio": costs["compiled"][1] / max(costs["compiled"][0], 1e-12),
    }


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
    entries: list[dict] = []
    for runs in batch_sizes:
        start = time.perf_counter()
        vectorized = workload.run_many(runs=runs, base_seed=base_seed)
        vectorized_time = time.perf_counter() - start
        start = time.perf_counter()
        sequential = workload.run_many_sequential(runs=runs, base_seed=base_seed)
        sequential_time = time.perf_counter() - start
        entries.append(
            {
                "section": "batch",
                "name": f"batch-{scenario}-B{runs}",
                "scenario": scenario,
                "params": dict(params),
                "runs": runs,
                "identical_batches": vectorized == sequential,
                "consensus": vectorized.consensus.value,
                "sequential_time": sequential_time,
                "vectorized_time": vectorized_time,
                "sequential_runs_per_sec": runs / max(sequential_time, 1e-9),
                "vectorized_runs_per_sec": runs / max(vectorized_time, 1e-9),
                "speedup": sequential_time / max(vectorized_time, 1e-9),
            }
        )
    return entries


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
    entries: list[dict] = []
    for runs in batch_sizes:
        start = time.perf_counter()
        vectorized = workload.run_many(runs=runs, base_seed=base_seed)
        vectorized_time = time.perf_counter() - start
        start = time.perf_counter()
        sequential = workload.run_many_sequential(runs=runs, base_seed=base_seed)
        sequential_time = time.perf_counter() - start
        entries.append(
            {
                "section": "batch",
                "name": f"batch-cycle-majority-B{runs}",
                "scenario": "cycle-majority",
                "graph": "cycle",
                "n": n,
                "steps": max_steps,
                "runs": runs,
                "identical_batches": vectorized == sequential,
                "consensus": vectorized.consensus.value,
                "sequential_time": sequential_time,
                "vectorized_time": vectorized_time,
                "sequential_runs_per_sec": runs / max(sequential_time, 1e-9),
                "vectorized_runs_per_sec": runs / max(vectorized_time, 1e-9),
                "speedup": sequential_time / max(vectorized_time, 1e-9),
            }
        )
    return entries


def population_count_engine_stats(ab: Alphabet, agents: int, seed: int = 3) -> dict:
    """The population-protocol count engine on a large threshold instance."""
    from repro.population import threshold_protocol

    protocol = threshold_protocol(ab, "a", 3)
    half = agents // 2
    count = LabelCount.from_mapping(ab, {"a": half, "b": agents - half})
    start = time.perf_counter()
    verdict, steps = protocol.simulate(
        count, max_steps=20_000_000, seed=seed, method="counts"
    )
    return {
        "agents": agents,
        "verdict": verdict,
        "steps": steps,
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
