"""Simulation overheads of the Section 4 compilers (Lemmas 4.7, 4.9, 5.1).

For each compiler the benchmark measures the price of faithfulness: how many
exclusive steps the compiled plain automaton needs to reach the verdict the
extended model decides exactly, and (where exact decision of the compiled
automaton is feasible) that verdicts are preserved.
"""

from __future__ import annotations

from repro.constructions import (
    exists_broadcast_protocol,
    nl_daf_machine,
    threshold_broadcast_machine,
    threshold_daf_automaton,
)
from repro.core import Verdict, cycle_graph, decide
from repro.workloads import EngineOptions, MachineWorkload


def test_broadcast_compiler_overhead(benchmark, ab):
    """Lemma 4.7: threshold x ≥ 2 — extended model vs compiled automaton."""
    graph = cycle_graph(ab, ["a", "a", "b", "b"])
    extended = threshold_broadcast_machine(ab, "a", 2)
    compiled_auto = threshold_daf_automaton(ab, "a", 2)

    def run():
        extended_verdict = extended.decide_pseudo_stochastic(graph)
        options = EngineOptions(max_steps=20_000, stability_window=400)
        workload = MachineWorkload(compiled_auto.machine, graph, options)
        compiled_batch = workload.run_many(runs=3, base_seed=3)
        exact = decide(compiled_auto, graph, max_configurations=600_000).verdict
        return extended_verdict, compiled_batch, exact

    ext_verdict, batch, exact = benchmark(run)
    assert ext_verdict is Verdict.ACCEPT and batch.consensus is Verdict.ACCEPT and exact is Verdict.ACCEPT
    print(f"\n[Lemma 4.7] threshold a≥2 on a 4-cycle: compiled ≈{batch.step_percentile(50):.0f} "
          f"steps (median of {batch.runs_executed} runs), exact verdict of the extended "
          f"model preserved")


def test_token_construction_overhead(benchmark, ab):
    """Lemma 5.1: the fully compiled DAF machine still answers correctly, at a cost."""
    graph = cycle_graph(ab, ["a", "b", "b"])
    protocol = exists_broadcast_protocol(ab, "a")
    machine = nl_daf_machine(protocol)

    def run():
        strong_verdict = protocol.decide_pseudo_stochastic(graph)
        options = EngineOptions(max_steps=60_000, stability_window=1_000)
        compiled_result = MachineWorkload(machine, graph, options).run(seed=1)
        return strong_verdict, compiled_result.verdict, compiled_result.steps

    strong_verdict, compiled_verdict, steps = benchmark(run)
    assert strong_verdict is Verdict.ACCEPT
    assert compiled_verdict is Verdict.ACCEPT
    print(f"\n[Lemma 5.1] exists(a) via strong broadcasts: 1 broadcast suffices in the source model; "
          f"the fully compiled DAF automaton stabilises after ≈{steps} exclusive steps")
