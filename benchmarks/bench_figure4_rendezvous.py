"""Figure 4 / Lemma 4.10: the rendez-vous handshake simulation by DAF-automata.

Measures the cost of the five-status handshake: exact verdicts of the
compiled automaton on small graphs (who wins), and the steps the compiled
machine takes to stabilise on the exact verdict of a larger cycle.
"""

from __future__ import annotations

import statistics

from repro.core import Verdict, automaton, cycle_graph, decide, line_graph
from repro.extensions.rendezvous import majority_with_movement, parity_protocol
from repro.extensions.rendezvous_sim import compile_rendezvous
from repro.workloads import EngineOptions, MachineWorkload


def test_compiled_majority_exact(benchmark, ab):
    """The compiled DAF automaton reproduces the majority verdicts exactly."""
    auto = automaton(compile_rendezvous(majority_with_movement(ab)), "DAF")
    cases = [
        (cycle_graph(ab, ["a", "a", "b"]), Verdict.ACCEPT),
        (line_graph(ab, ["b", "a", "b"]), Verdict.REJECT),
        (line_graph(ab, ["a", "b", "a"]), Verdict.ACCEPT),
    ]

    def run():
        return [decide(auto, graph, max_configurations=500_000).verdict for graph, _ in cases]

    verdicts = benchmark(run)
    assert verdicts == [expected for _, expected in cases]
    print(f"\n[Figure 4] compiled rendez-vous majority: {len(cases)}/{len(cases)} exact verdicts correct")


def test_handshake_step_overhead(benchmark, ab):
    """Steps the compiled handshake needs to stabilise, over several seeds."""
    protocol = parity_protocol(ab, "a")
    graph = cycle_graph(ab, ["a", "b", "a", "b", "a", "b", "b", "b"])  # 3 a's: odd
    exact = protocol.decide_pseudo_stochastic(graph)
    options = EngineOptions(max_steps=60_000, stability_window=2_000)
    workload = MachineWorkload(compile_rendezvous(protocol), graph, options)
    seeds = range(10)

    def run():
        return [workload.run(seed) for seed in seeds]

    results = benchmark(run)
    assert exact is Verdict.ACCEPT
    assert all(result.verdict is exact and result.stabilised_at for result in results)
    steps = sorted(result.steps for result in results)
    print(f"\n[Figure 4] parity on an 8-cycle: the compiled handshake stabilises on "
          f"the exact verdict ({exact.value}) in {steps[0]}–{steps[-1]} exclusive steps, "
          f"median {statistics.median(steps):.0f}, including the "
          f"{options.stability_window}-step window ({len(steps)} seeds)")
