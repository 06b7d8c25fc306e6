"""Figure 4 / Lemma 4.10: the rendez-vous handshake simulation by DAF-automata.

Measures the cost of the five-status handshake: exact verdicts of the
compiled automaton on small graphs (who wins), and the step overhead of the
compiled machine relative to direct rendez-vous simulation on larger cycles.
"""

from __future__ import annotations

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
    """Steps needed by the compiled machine vs the direct rendez-vous simulator."""
    protocol = parity_protocol(ab, "a")
    compiled = compile_rendezvous(protocol)
    graph = cycle_graph(ab, ["a", "b", "a", "b", "a", "b", "b", "b"])  # 3 a's: odd

    def run():
        direct_verdict, direct_steps = protocol.simulate(graph, seed=5)
        options = EngineOptions(max_steps=60_000, stability_window=800)
        compiled_result = MachineWorkload(compiled, graph, options).run(seed=5)
        return direct_verdict, direct_steps, compiled_result.verdict, compiled_result.steps

    direct_verdict, direct_steps, compiled_verdict, compiled_steps = benchmark(run)
    assert direct_verdict is Verdict.ACCEPT
    assert compiled_verdict is Verdict.ACCEPT
    print(f"\n[Figure 4] parity on an 8-cycle: direct rendez-vous ≈{direct_steps} interactions, "
          f"compiled handshake ≈{compiled_steps} exclusive steps "
          f"(overhead ×{compiled_steps / max(1, direct_steps):.1f})")
