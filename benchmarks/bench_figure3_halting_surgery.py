"""Figure 3 / Lemma 3.1: the gluing construction that defeats halting acceptance.

The benchmark builds the glued graph for increasing halting times, checks the
lock-step property of the inner copies, and reports the contradictory local
verdicts that rule out non-trivial halting-decidable labelling properties.
"""

from __future__ import annotations

from repro.analysis.limitations import halting_surgery_graph, surgery_lockstep_holds
from repro.constructions import exists_label_machine
from repro.core import cycle_graph
from repro.core.configuration import synchronous_trace


def test_surgery_lockstep_and_contradiction(benchmark, ab):
    g = cycle_graph(ab, ["a", "a", "a", "a"])
    h = cycle_graph(ab, ["b", "b", "b", "b"])
    machine = exists_label_machine(ab, "a").make_halting()

    def run():
        results = []
        for rounds in (1, 2, 3):
            surgery = halting_surgery_graph(g, h, rounds, rounds)
            lock_first = surgery_lockstep_holds(machine, g, surgery, surgery.inner_first_nodes, rounds)
            lock_second = surgery_lockstep_holds(machine, h, surgery, surgery.inner_second_nodes, rounds)
            final = synchronous_trace(machine, surgery.graph, rounds)[-1]
            first_states = {final[v] for v in surgery.inner_first_nodes}
            second_states = {final[v] for v in surgery.inner_second_nodes}
            results.append((rounds, surgery.graph.num_nodes, lock_first, lock_second,
                            first_states, second_states))
        return results

    results = benchmark(run)
    for rounds, size, lock_first, lock_second, first_states, second_states in results:
        assert lock_first and lock_second
        assert first_states == {"yes"} and second_states == {"no"}
    print("\n[Figure 3] glued-graph sizes and verdict split (accepting copy vs rejecting copy):")
    for rounds, size, *_ in results:
        print(f"  halting time g=h={rounds}: {size} nodes, inner copies halt on "
              f"contradictory verdicts -> halting classes decide only trivial properties")
