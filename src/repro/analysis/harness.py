"""Experiment harness: exact verdicts of a construction against a property.

The functions here decide a construction exactly on a collection of label
counts and graph families and compare the verdicts with the ground truth of
the property (or with each other, for the limitation pairs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.automaton import DistributedAutomaton
from repro.core.graphs import LabeledGraph, standard_families
from repro.core.labels import LabelCount, enumerate_label_counts
from repro.core.results import Verdict
from repro.core.verification import decide
from repro.properties.base import LabellingProperty


@dataclass
class AgreementReport:
    """How often an automaton's exact verdict matches a labelling property."""

    automaton_name: str
    property_name: str
    checked: int = 0
    agreements: int = 0
    disagreements: list[tuple[LabelCount, str, Verdict, bool]] = field(default_factory=list)
    inconsistent: int = 0

    @property
    def all_agree(self) -> bool:
        return self.checked > 0 and self.agreements == self.checked and self.inconsistent == 0

    def summary(self) -> str:
        status = "OK" if self.all_agree else "MISMATCH"
        return (
            f"[{status}] {self.automaton_name} vs {self.property_name}: "
            f"{self.agreements}/{self.checked} graphs agree"
            + (f", {self.inconsistent} inconsistent" if self.inconsistent else "")
        )


def check_decides_property(
    automaton: DistributedAutomaton,
    prop: LabellingProperty,
    counts: list[LabelCount] | None = None,
    graphs_per_count: callable = standard_families,
    max_per_label: int = 3,
    min_total: int = 3,
    max_configurations: int = 200_000,
) -> AgreementReport:
    """Exactly decide the automaton on every graph of every family and compare to ϕ.

    ``counts`` defaults to all label counts with at most ``max_per_label``
    occurrences per label and at least ``min_total`` nodes (the paper's
    convention).  For each count several graph shapes are tried (cycle, line,
    clique, star) — a labelling property must give the same answer on all of
    them, and so must the automaton.
    """
    report = AgreementReport(automaton.name, prop.name)
    if counts is None:
        counts = enumerate_label_counts(prop.alphabet, max_per_label, min_total)
    for count in counts:
        if count.total() < min_total:
            continue
        expected = prop.evaluate(count)
        for graph in graphs_per_count(count):
            verdict = decide(automaton, graph, max_configurations=max_configurations).verdict
            report.checked += 1
            if verdict is Verdict.INCONSISTENT:
                report.inconsistent += 1
                report.disagreements.append((count, graph.name, verdict, expected))
            elif verdict.as_bool() == expected:
                report.agreements += 1
            else:
                report.disagreements.append((count, graph.name, verdict, expected))
    return report


def check_same_verdict(
    automaton: DistributedAutomaton,
    graph_pairs: list[tuple[LabeledGraph, LabeledGraph]],
    max_configurations: int = 200_000,
) -> tuple[int, int]:
    """Count on how many of the pairs the automaton gives identical verdicts.

    Used by the limitation experiments (coverings, cutoff pairs): the paper's
    lemmas say the count of differing pairs must be zero for automata of the
    corresponding class.
    """
    same = 0
    total = 0
    for first, second in graph_pairs:
        v1 = decide(automaton, first, max_configurations=max_configurations).verdict
        v2 = decide(automaton, second, max_configurations=max_configurations).verdict
        total += 1
        if v1 == v2:
            same += 1
    return same, total
