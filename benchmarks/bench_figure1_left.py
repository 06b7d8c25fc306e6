"""Figure 1 (left): the seven equivalence classes and the selection collapse.

The panel's content is structural: 24 combinations collapse to 7 classes, and
in particular the selection mode (exclusive / synchronous / liberal) does not
affect the decision power.  The benchmark re-checks the collapse empirically
on a concrete automaton — the same machine is decided exactly under all three
selection modes and must give identical verdicts — and reports the lattice.
"""

from __future__ import annotations

from repro.core import SelectionMode, Verdict, automaton, cycle_graph, decide, star_graph
from repro.analysis.figure1 import FIGURE1, SEVEN_CLASSES, is_included
from repro.constructions import exists_label_machine


def _collapse_check(ab) -> dict[str, Verdict]:
    machine = exists_label_machine(ab, "a")
    graphs = [
        cycle_graph(ab, ["a", "b", "b"]),
        cycle_graph(ab, ["b", "b", "b"]),
        star_graph(ab, "b", ["a", "b"]),
    ]
    verdicts: dict[str, Verdict] = {}
    for mode in (SelectionMode.EXCLUSIVE, SelectionMode.SYNCHRONOUS, SelectionMode.LIBERAL):
        for index, graph in enumerate(graphs):
            auto = automaton(machine, "dAF", selection=mode)
            verdicts[f"{mode.value}/{index}"] = decide(auto, graph).verdict
    return verdicts


def test_selection_collapse(benchmark, ab):
    """Exclusive, synchronous and liberal selection give identical verdicts."""
    verdicts = benchmark(_collapse_check, ab)
    by_graph: dict[str, set] = {}
    for key, verdict in verdicts.items():
        _, graph_index = key.split("/")
        by_graph.setdefault(graph_index, set()).add(verdict)
    assert all(len(values) == 1 for values in by_graph.values())
    print("\n[Figure 1 left] selection mode never changed a verdict "
          f"({len(verdicts)} decisions across 3 modes × 3 graphs)")


def test_seven_class_lattice(benchmark):
    """The inclusion lattice of Figure 1 (the table itself: tests/test_figure1.py)."""

    def build():
        return sum(
            1
            for lower in SEVEN_CLASSES
            for upper in SEVEN_CLASSES
            if lower != upper and is_included(lower, upper)
        )

    inclusions = benchmark(build)
    print(f"\n[Figure 1 left] 7 classes, {inclusions} strict-or-equal inclusions in the lattice")
    for row in FIGURE1:
        print(f"  {row.representative:<4} arbitrary={row.arbitrary.power.value:<10} "
              f"bounded={row.bounded_degree.power.value}")
