"""Reproduce the Figure 1 (middle) classification for a set of reference properties.

For each property the example (1) classifies it empirically against the
Figure 1 property classes (Trivial / Cutoff(1) / Cutoff / beyond), (2) lists
which of the seven automata classes can decide it on arbitrary networks
according to the paper, and (3) demonstrates a matching construction from
this library where one exists, verifying it with the exact decision engine.

Run with:  python examples/classify_and_decide.py
"""

from __future__ import annotations

from repro.analysis.figure1 import deciding_classes
from repro.core import Alphabet, cycle_graph, decide
from repro.constructions import exists_label_automaton, threshold_daf_automaton
from repro.extensions.rendezvous import majority_with_movement
from repro.properties import (
    DivisibilityProperty,
    at_least_k_property,
    classify_property,
    exists_label_property,
    majority_property,
    parity_property,
)


def main() -> None:
    alphabet = Alphabet.of("a", "b")
    properties = [
        exists_label_property(alphabet, "a"),
        at_least_k_property(alphabet, "a", 2),
        majority_property(alphabet, strict=True),
        parity_property(alphabet, "a", even=False),
        DivisibilityProperty(alphabet, "a", "b"),
    ]

    print(f"{'property':<18} {'trivial':<8} {'cutoff1':<8} {'cutoff':<8} {'ISM':<5} classes (arbitrary nets)")
    print("-" * 84)
    for prop in properties:
        info = classify_property(prop, max_per_label=5, max_cutoff=3)
        classes = ",".join(deciding_classes(info))
        bound = info["cutoff_bound"] if info["cutoff_bound"] is not None else "—"
        print(
            f"{prop.name:<18} {str(info['trivial']):<8} {str(info['cutoff_1']):<8} "
            f"{str(bound):<8} {str(info['ism']):<5} {classes}"
        )

    print("\n-- Matching constructions, verified exactly on small graphs --")
    witness = cycle_graph(alphabet, ["a", "a", "b"])
    exists_auto = exists_label_automaton(alphabet, "a")
    print(f"dAf  exists(a)    on aab-cycle: {decide(exists_auto, witness).verdict.value}")
    threshold_auto = threshold_daf_automaton(alphabet, "a", 2)
    print(
        "dAF  a ≥ 2        on aab-cycle: "
        f"{decide(threshold_auto, witness, max_configurations=500_000).verdict.value}"
    )
    majority_protocol = majority_with_movement(alphabet)
    print(
        "DAF  majority(a>b) on aab-cycle (graph population protocol level): "
        f"{majority_protocol.decide_pseudo_stochastic(witness).value}"
    )


if __name__ == "__main__":
    main()
