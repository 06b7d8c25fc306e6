"""Tests for labelled graphs, generators and coverings."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.coverings import cycle_lift, is_covering_map, lift_graph
from repro.core.graphs import (
    LabeledGraph,
    barabasi_albert_graph,
    clique_from_count,
    clique_graph,
    cycle_graph,
    erdos_renyi_graph,
    grid_graph,
    implicit_clique_graph,
    line_graph,
    random_connected_graph,
    random_regular_graph,
    ring_of_cliques,
    standard_families,
    star_from_count,
    star_graph,
    watts_strogatz_graph,
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


def _golden_labels(n: int) -> list[str]:
    return ["a" if i % 3 == 0 else "b" for i in range(n)]


#: SHA-256 over ``repr((labels, edge_pairs()))`` of every graph of a family,
#: for n = 4..70 (where the parameters allow) and seeds 0, 1, 2, in that
#: order.  Pinned from the generators before their rejection loops and
#: connectivity repair were rewritten: a sweep's random graphs, and so its
#: results, must not change.
GOLDEN_GRAPH_DIGESTS = {
    ("random-regular", 2): "27a21542eed43025596be8764729a5a5f4fef7cf0bb645d9deb2c2292049ebfe",
    ("random-regular", 3): "a9c10246436e4b5fe56907609a71d7f93e752d971f3508625fa1cffea6a372e8",
    ("random-regular", 4): "ec2ac9b3e1b8814f31df7a9c622f0caf09409b621700cee40819aa647e6a2dba",
    ("watts-strogatz", 2, 0.1): "878615ae873f40baa64eeaf0b84ac00a18471238f95e5636ea09eff449cf2ea9",
    ("watts-strogatz", 2, 0.5): "c87cd60b2b3d5a07d3f0da8c120b5378898a28e297198255c4f46017df913bbd",
    ("watts-strogatz", 4, 0.3): "4fa42cfb716e69fa1360a72b493c790d0d4612b57a2d6430208c86658322a7e1",
    ("erdos-renyi", 0.05): "f024ca341781810de3181d07f743b459144cf6ded129838193d290124b8c3c47",
    ("erdos-renyi", 0.3): "6c9c14a0ca3d3b5d10174d8cda1857c80b250101cd44d7f5aa86c258e9b544c1",
    ("barabasi-albert", 1): "e0ef4fdbae6646e13e306b1d3a4c6d67944c217fd1e7df47a0aeb09464a0dce1",
    ("barabasi-albert", 2): "11e445d3f32e0434010b21558f4076b2e82024bf2bee35445510b83763e48d83",
    ("barabasi-albert", 3): "fcf294bf84aebbfe3c8de144672ebb4fbd7947ab0a09a8438e43f2a4773773e6",
}


def _golden_graphs(family: tuple):
    if family[0] == "random-regular":
        degree = family[1]
        for n in range(4, 71):
            if degree < n and n * degree % 2 == 0:
                for seed in range(3):
                    yield random_regular_graph(
                        Alphabet.of("a", "b"), _golden_labels(n), degree=degree, seed=seed
                    )
    elif family[0] == "watts-strogatz":
        _, neighbours, rewire = family
        for n in range(max(4, neighbours + 1), 71):
            for seed in range(3):
                yield watts_strogatz_graph(
                    Alphabet.of("a", "b"),
                    _golden_labels(n),
                    neighbours=neighbours,
                    rewire_probability=rewire,
                    seed=seed,
                )
    elif family[0] == "erdos-renyi":
        for n in range(4, 71):
            for seed in range(3):
                yield erdos_renyi_graph(
                    Alphabet.of("a", "b"),
                    _golden_labels(n),
                    edge_probability=family[1],
                    seed=seed,
                )
    else:
        attachment = family[1]
        for n in range(max(4, attachment + 1), 71):
            for seed in range(3):
                yield barabasi_albert_graph(
                    Alphabet.of("a", "b"), _golden_labels(n), attachment=attachment, seed=seed
                )


class TestRandomGraphGolden:
    @pytest.mark.parametrize("family", sorted(GOLDEN_GRAPH_DIGESTS, key=repr), ids=repr)
    def test_generators_reproduce_the_pinned_graphs(self, family):
        digest = hashlib.sha256()
        for graph in _golden_graphs(family):
            digest.update(repr((graph.labels, graph.edge_pairs())).encode())
        assert digest.hexdigest() == GOLDEN_GRAPH_DIGESTS[family]

    def test_regular_graph_gives_up_after_max_attempts(self, ab):
        # Seed 0's first three pairings: two triangles, then two with a loop
        # or a repeated pair.
        with pytest.raises(
            ValueError,
            match="no simple connected 2-regular graph on 6 nodes found in 3 pairing",
        ):
            random_regular_graph(ab, _golden_labels(6), degree=2, seed=0, max_attempts=3)

    def test_regular_graph_checks_labels_before_pairing(self, ab):
        labels = _golden_labels(5) + ["c"]
        for attempts in (0, 1000):
            with pytest.raises(ValueError, match="label 'c' not in alphabet"):
                random_regular_graph(ab, labels, degree=2, seed=0, max_attempts=attempts)


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
