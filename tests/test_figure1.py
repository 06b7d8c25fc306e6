"""Figure 1 as one table: every cell's witness is checked against the table.

The walk decides each checked witness exactly on every cycle, line, clique
and star with 3 ≤ n ≤ 5 (60 graphs over ``{a, b}``), and checks with
:meth:`PowerClass.admits` that the witness's property lies in its cell's class
but not in the next weaker class of the same column.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.figure1 import (
    COLLAPSE,
    FIGURE1,
    SEVEN_CLASSES,
    PowerClass,
    deciding_classes,
    is_included,
    majority_deciders,
    render_markdown,
)
from repro.core import Alphabet, decide
from repro.core.automaton import ALL_CLASSES, DistributedAutomaton
from repro.core.graphs import standard_families
from repro.core.labels import enumerate_label_counts
from repro.properties import classify_property

DOCS = Path(__file__).resolve().parent.parent / "docs"


@pytest.fixture
def ab():
    return Alphabet.of("a", "b")


def _exact_verdict(construction, graph):
    if isinstance(construction, DistributedAutomaton):
        return decide(construction, graph).verdict
    return construction.decide_pseudo_stochastic(graph)


def test_every_cell_is_backed_by_its_witness(ab):
    counts = [c for c in enumerate_label_counts(ab, 5, min_total=3) if c.total() <= 5]
    graphs = [graph for count in counts for graph in standard_families(count)]
    assert len(graphs) == 60
    decided = set()
    for bounded_degree in (False, True):
        column = [row.cell(bounded_degree) for row in FIGURE1]
        weaker_first = list(dict.fromkeys(cell.power for cell in column))
        for row, cell in zip(FIGURE1, column):
            where = f"{row.representative} ({'bounded' if bounded_degree else 'arbitrary'})"
            if cell.witness is None:
                assert cell.no_construction, f"{where}: neither a witness nor a reason"
                continue
            construction, prop = cell.witness.build(ab)
            info = classify_property(prop)
            homogeneous = getattr(prop, "is_homogeneous", False)
            assert cell.power.admits(info, homogeneous), f"{where}: {prop.name} not in class"
            rank = weaker_first.index(cell.power)
            if rank:
                weaker = weaker_first[rank - 1]
                assert not weaker.admits(info, homogeneous), (
                    f"{where}: {prop.name} already in the weaker class {weaker.value}"
                )
            if cell.witness.unchecked or cell.witness in decided:
                continue
            wrong = [
                f"{graph.name} {graph.label_count()!r}"
                for graph in graphs
                if _exact_verdict(construction, graph).as_bool() != prop(graph.label_count())
            ]
            assert not wrong, f"{where}: {construction.name} decides {prop.name} wrongly on {wrong}"
            decided.add(cell.witness)
    assert len(decided) == 4


def test_only_the_section_6_1_witness_is_unchecked():
    unchecked = [
        (row.representative, bounded)
        for row in FIGURE1
        for bounded in (False, True)
        if row.cell(bounded).witness is not None and row.cell(bounded).witness.unchecked
    ]
    assert unchecked == [("DAf", True)]


def test_committed_doc_matches_the_table():
    text = render_markdown()
    assert (DOCS / "figure1.md").read_text() == text
    assert "not exactly checked (ROADMAP item 3)" in text
    assert text.count("no construction in this repo (note 1)") == 6


def test_deciding_classes_per_reference_property(ab):
    from repro.properties import at_least_k_property, exists_label_property

    exists = classify_property(exists_label_property(ab, "a"), max_per_label=5, max_cutoff=3)
    at_least_2 = classify_property(at_least_k_property(ab, "a", 2), max_per_label=5, max_cutoff=3)
    assert deciding_classes(exists) == ["dAf", "DAf", "dAF", "DAF"]
    assert deciding_classes(at_least_2) == ["dAF", "DAF"]
    assert deciding_classes(at_least_2, bounded_degree=True) == ["dAF", "DAF"]
    trivial = {"trivial": True, "cutoff_1": True, "cutoff_bound": 1, "ism": True}
    assert deciding_classes(trivial) == list(SEVEN_CLASSES)


class TestHierarchy:
    def test_collapse_covers_all_eight_classes(self):
        assert set(COLLAPSE) == {c.symbol for c in ALL_CLASSES}
        assert set(COLLAPSE.values()) == set(SEVEN_CLASSES)

    def test_daf_and_daF_collapse(self):
        assert COLLAPSE["daF"] == "daf"
        assert sorted(s for s, rep in COLLAPSE.items() if rep == "daf") == ["daF", "daf"]

    def test_characterisation_matches_figure1(self):
        rows = {row.representative: row for row in FIGURE1}
        assert rows["DAF"].arbitrary.power is PowerClass.NL
        assert rows["dAF"].arbitrary.power is PowerClass.CUTOFF
        assert rows["dAF"].bounded_degree.power is PowerClass.NSPACE_N
        assert rows["DAf"].arbitrary.power is PowerClass.CUTOFF_1
        assert rows["DAf"].bounded_degree.power is PowerClass.ISM_BOUNDED

    def test_only_daf_decides_majority_on_arbitrary_graphs(self):
        assert majority_deciders(bounded_degree=False) == ["DAF"]

    def test_three_classes_decide_majority_on_bounded_degree(self):
        assert majority_deciders(bounded_degree=True) == ["DAf", "dAF", "DAF"]

    def test_inclusion_lattice(self):
        assert is_included("daf", "DAF")
        assert is_included("daF", "DAF")
        assert is_included("dAf", "dAF")
        assert not is_included("DAF", "daf")
        assert is_included("Daf", "Daf")

    def test_figure1_has_seven_rows(self):
        assert len(FIGURE1) == 7
        assert len(set(SEVEN_CLASSES)) == 7
