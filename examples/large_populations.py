"""Large populations: the count-based backend and the batched runner.

The per-node simulation engine tops out around a few thousand nodes (every
step on an ``n``-clique costs O(n), and an explicit clique graph materialises
n(n-1)/2 edges).  On cliques the count-based backend removes both walls:

* :func:`repro.core.implicit_clique_graph` represents the clique without
  edges, so populations of 10⁴–10⁶ agents fit in memory;
* the count-based backend simulates in O(|Q|) per step and fast-forwards
  silent stretches, so those populations finish in seconds;
* ``Workload.run_many`` aggregates a batch of runs with derived per-run
  seeds, quorum early-stopping and step percentiles.

Run with:  python examples/large_populations.py
"""

from __future__ import annotations

import time

from repro.core import Alphabet, implicit_clique_graph
from repro.core.labels import LabelCount
from repro.constructions import exists_label_machine
from repro.population import threshold_protocol
from repro.workloads import EngineOptions, MachineWorkload, PopulationWorkload


def main() -> None:
    alphabet = Alphabet.of("a", "b")
    machine = exists_label_machine(alphabet, "a")

    print("-- count-based backend: flooding on growing cliques --")
    for n in (1_000, 10_000, 100_000):
        graph = implicit_clique_graph(alphabet, ["a"] + ["b"] * (n - 1))
        options = EngineOptions(max_steps=50 * n, stability_window=200, backend="count")
        start = time.perf_counter()
        result = MachineWorkload(machine, graph, options).run(seed=1)
        elapsed = time.perf_counter() - start
        print(
            f"n={n:>7,}: {result.verdict.value:<7} after {result.steps:>9,} steps "
            f"in {elapsed:6.3f}s"
        )

    print("\n-- batched Monte-Carlo with quorum early-stop (n=5,000) --")
    graph = implicit_clique_graph(alphabet, ["a"] * 5 + ["b"] * 4_995)
    options = EngineOptions(max_steps=500_000, stability_window=200)
    workload = MachineWorkload(machine, graph, options)
    batch = workload.run_many(runs=20, base_seed=0, quorum=0.5)
    print(batch.summary())

    print("\n-- population protocol, count engine, 100,000 agents --")
    protocol = threshold_protocol(alphabet, "a", 3)
    count = LabelCount.from_mapping(alphabet, {"a": 50_000, "b": 50_000})
    options = EngineOptions(max_steps=50_000_000, stability_window=1)
    start = time.perf_counter()
    result = PopulationWorkload(protocol, count, options).run(seed=3)
    elapsed = time.perf_counter() - start
    print(
        f"threshold(a≥3) on 100,000 agents: {result.verdict.value} after "
        f"{result.steps:,} interactions in {elapsed:.2f}s"
    )


if __name__ == "__main__":
    main()
