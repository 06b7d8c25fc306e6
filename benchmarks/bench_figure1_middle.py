"""Figure 1 (middle): decision power on arbitrary networks, timed.

For each class the benchmark runs the paper's witness construction (or
limitation witness) over a sweep of label counts and graph shapes; that the
verdicts are right is checked by the table walk in ``tests/test_figure1.py``:

* dAf / DAf = Cutoff(1): the exists-label automaton decides x ≥ 1 exactly;
* dAF = Cutoff: the compiled weak-broadcast threshold automaton decides
  x ≥ 2 exactly;
* DAF = NL: the rendez-vous majority protocol (compiled per Lemma 4.10 is
  exercised in bench_figure4) decides majority exactly;
* the halting classes and the no-cutoff classes are covered by the
  limitation benchmarks (bench_figure3 and the classification rows here).
"""

from __future__ import annotations

from repro.analysis.figure1 import deciding_classes
from repro.analysis.harness import check_decides_property
from repro.core import LabelCount
from repro.constructions import exists_label_automaton, threshold_daf_automaton
from repro.extensions.rendezvous import majority_with_movement
from repro.core.graphs import cycle_from_count, line_from_count
from repro.properties import (
    at_least_k_property,
    classify_property,
    exists_label_property,
    majority_property,
)


def test_cutoff1_row_exists_label(benchmark, ab):
    """dAf decides Cutoff(1): x_a ≥ 1 verified exactly over the sweep."""
    auto = exists_label_automaton(ab, "a")
    prop = exists_label_property(ab, "a")
    report = benchmark(
        check_decides_property, auto, prop, None, max_per_label=2, min_total=3
    )
    print(f"\n[Figure 1 middle] {report.summary()}")


def test_cutoff_row_threshold(benchmark, ab):
    """dAF decides Cutoff: x_a ≥ 2 via weak broadcasts, verified exactly."""
    auto = threshold_daf_automaton(ab, "a", 2)
    prop = at_least_k_property(ab, "a", 2)
    counts = [
        LabelCount.from_mapping(ab, {"a": a, "b": b})
        for a in range(0, 4)
        for b in range(0, 3)
        if a + b >= 3
    ]

    def run():
        return check_decides_property(
            auto, prop, counts=counts,
            graphs_per_count=lambda c: [cycle_from_count(c)],
            max_configurations=600_000,
        )

    report = benchmark(run)
    print(f"\n[Figure 1 middle] {report.summary()}")


def test_nl_row_majority(benchmark, ab):
    """DAF decides NL properties: majority verified exactly at the rendez-vous level."""
    protocol = majority_with_movement(ab)
    prop = majority_property(ab, strict=True)
    counts = [
        LabelCount.from_mapping(ab, {"a": a, "b": b})
        for a in range(0, 4)
        for b in range(0, 4)
        if 3 <= a + b <= 5
    ]

    def run():
        agree = 0
        for count in counts:
            for graph in (cycle_from_count(count), line_from_count(count)):
                verdict = protocol.decide_pseudo_stochastic(graph)
                agree += verdict.as_bool() == prop(count)
        return agree, 2 * len(counts)

    agree, total = benchmark(run)
    print(f"\n[Figure 1 middle] DAF/majority: {agree}/{total} graphs decided correctly")


def test_classification_rows(benchmark, ab):
    """The property-side of the table: which classes can decide which reference property."""

    def classify_all():
        rows = {}
        for prop, homogeneous in [
            (exists_label_property(ab, "a"), False),
            (at_least_k_property(ab, "a", 2), False),
            (majority_property(ab, strict=False), True),
        ]:
            info = classify_property(prop, max_per_label=5, max_cutoff=3)
            rows[prop.name] = deciding_classes(info)
        return rows

    rows = benchmark(classify_all)
    assert rows["exists(a)"] == ["dAf", "DAf", "dAF", "DAF"]
    assert rows["a ≥ 2"] == ["dAF", "DAF"]
    assert rows["majority(a ≥ b)"] == ["DAF"]
    print("\n[Figure 1 middle] deciding classes per property (arbitrary networks):")
    for name, classes in rows.items():
        print(f"  {name:<16} -> {', '.join(classes)}")
