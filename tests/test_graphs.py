"""Tests for labelled graphs, generators and coverings."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.coverings import cycle_lift, is_covering_map, lift_graph
from repro.core.graphs import (
    LabeledGraph,
    clique_from_count,
    clique_graph,
    cycle_graph,
    grid_graph,
    implicit_clique_graph,
    line_graph,
    random_connected_graph,
    ring_of_cliques,
    standard_families,
    star_from_count,
    star_graph,
)
from repro.core.labels import Alphabet, LabelCount


@pytest.fixture
def ab():
    return Alphabet.of("a", "b")


class TestLabeledGraph:
    def test_build_and_accessors(self, ab):
        g = LabeledGraph.build(ab, ["a", "b", "a"], [(0, 1), (1, 2)])
        assert g.num_nodes == 3
        assert g.num_edges == 2
        assert g.label_of(1) == "b"
        assert g.neighbors(1) == (0, 2)
        assert g.degree(1) == 2
        assert g.has_edge(0, 1) and not g.has_edge(0, 2)

    def test_rejects_unknown_label(self, ab):
        with pytest.raises(ValueError):
            LabeledGraph.build(ab, ["a", "z"], [(0, 1)])

    def test_rejects_self_loop(self, ab):
        with pytest.raises(ValueError):
            LabeledGraph.build(ab, ["a", "b"], [(0, 0)])

    def test_label_count(self, ab):
        g = cycle_graph(ab, ["a", "a", "b"])
        assert g.label_count() == LabelCount.from_mapping(ab, {"a": 2, "b": 1})

    def test_connectivity_and_cycles(self, ab):
        line = line_graph(ab, ["a", "b", "a"])
        assert line.is_connected()
        assert not line.has_cycle()
        cycle = cycle_graph(ab, ["a", "b", "a"])
        assert cycle.has_cycle()

    def test_paper_convention(self, ab):
        with pytest.raises(ValueError):
            line_graph(ab, ["a", "b"]).check_paper_convention()
        cycle_graph(ab, ["a", "b", "a"]).check_paper_convention()

    def test_relabel(self, ab):
        g = cycle_graph(ab, ["a", "a", "a"])
        h = g.relabel(["b", "b", "b"])
        assert h.label_count()["b"] == 3
        assert h.edges == g.edges


class TestGenerators:
    def test_cycle_structure(self, ab):
        g = cycle_graph(ab, ["a"] * 5)
        assert g.num_edges == 5
        assert all(g.degree(v) == 2 for v in g.nodes())

    def test_line_structure(self, ab):
        g = line_graph(ab, ["a"] * 5)
        assert g.num_edges == 4
        assert g.degree(0) == 1 and g.degree(4) == 1

    def test_star_structure(self, ab):
        g = star_graph(ab, "a", ["b"] * 4)
        assert g.degree(0) == 4
        assert all(g.degree(v) == 1 for v in range(1, 5))

    def test_clique_structure(self, ab):
        g = clique_graph(ab, ["a"] * 4)
        assert g.num_edges == 6
        assert all(g.degree(v) == 3 for v in g.nodes())

    def test_grid_structure(self, ab):
        g = grid_graph(ab, 2, 3, ["a"] * 6)
        assert g.num_edges == 7
        assert g.max_degree() <= 4
        assert g.is_connected()

    def test_star_from_count(self, ab):
        count = LabelCount.from_mapping(ab, {"a": 2, "b": 2})
        g = star_from_count(count)
        assert g.label_count() == count

    def test_clique_from_count(self, ab):
        count = LabelCount.from_mapping(ab, {"a": 1, "b": 3})
        g = clique_from_count(count)
        assert g.label_count() == count
        assert g.num_edges == 6

    def test_ring_of_cliques(self, ab):
        g = ring_of_cliques(ab, [3, 3, 3], ["a"] * 9)
        assert g.is_connected()
        assert g.num_nodes == 9

    def test_standard_families_share_label_count(self, ab):
        count = LabelCount.from_mapping(ab, {"a": 2, "b": 2})
        for graph in standard_families(count):
            assert graph.label_count() == count
            assert graph.is_connected()

    def test_cycle_requires_three_nodes(self, ab):
        with pytest.raises(ValueError):
            cycle_graph(ab, ["a", "b"])

    @pytest.mark.parametrize(
        "make", [line_graph, cycle_graph, clique_graph, implicit_clique_graph]
    )
    def test_no_graph_has_zero_nodes(self, ab, make):
        # Engines rely on this: none of them guards against an empty graph.
        with pytest.raises(ValueError, match="at least"):
            make(ab, [])
        with pytest.raises(ValueError, match="at least one node"):
            LabeledGraph(alphabet=ab, labels=(), edges=frozenset())


class TestRandomGraphs:
    @given(st.integers(4, 12), st.integers(2, 4), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_random_connected_respects_degree_bound(self, n, max_degree, seed):
        ab = Alphabet.of("a", "b")
        labels = ["a" if i % 2 == 0 else "b" for i in range(n)]
        g = random_connected_graph(ab, labels, max_degree=max_degree, seed=seed)
        assert g.is_connected()
        assert g.max_degree() <= max_degree
        assert g.label_count() == LabelCount.from_labels(ab, labels)


class TestCoverings:
    def test_cycle_lift_is_covering(self, ab):
        base, cover, mapping = cycle_lift(["a", "b", "a"], 3, ab)
        assert cover.num_nodes == 9
        assert is_covering_map(cover, base, mapping)

    def test_cycle_lift_scales_label_count(self, ab):
        base, cover, _ = cycle_lift(["a", "a", "b"], 2, ab)
        assert cover.label_count() == base.label_count() * 2

    def test_identity_is_covering(self, ab):
        g = cycle_graph(ab, ["a", "b", "a"])
        assert is_covering_map(g, g, {v: v for v in g.nodes()})

    def test_non_covering_detected(self, ab):
        base = cycle_graph(ab, ["a", "a", "a"])
        star = star_graph(ab, "a", ["a", "a"])
        mapping = {0: 0, 1: 1, 2: 2}
        assert not is_covering_map(star, base, mapping)

    def test_generic_lift_is_covering(self, ab):
        base = cycle_graph(ab, ["a", "b", "a", "b"])
        cover, mapping = lift_graph(base, 2)
        assert is_covering_map(cover, base, mapping)

    @given(st.integers(1, 4), st.integers(3, 6))
    @settings(max_examples=20, deadline=None)
    def test_lift_preserves_degrees(self, factor, n):
        ab = Alphabet.of("a", "b")
        labels = ["a" if i % 2 else "b" for i in range(n)]
        base = cycle_graph(ab, labels)
        cover, mapping = lift_graph(base, factor)
        for node in cover.nodes():
            assert cover.degree(node) == base.degree(mapping[node])
