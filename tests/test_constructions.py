"""Tests for the expressiveness constructions (Cutoff(1), dAF thresholds, NL, §6.1)."""

from __future__ import annotations

import itertools

import pytest

from repro.core.graphs import cycle_graph, grid_graph, line_graph, star_graph
from repro.core.labels import Alphabet, LabelCount
from repro.core.results import Verdict
from repro.core.verification import decide
from repro.constructions import (
    BoundedDegreeMajorityProtocol,
    cancellation_converged,
    cancellation_machine,
    conjunction,
    contribution_bound,
    cutoff_automaton,
    disjunction,
    exists_broadcast_protocol,
    exists_label_automaton,
    majority_protocol_bounded,
    negate,
    nl_daf_machine,
    run_cancellation,
    support_automaton,
    threshold_broadcast_protocol,
    token_construction,
)
from repro.properties import majority_property, support_property
from repro.properties.cutoff import cutoff_table_property


@pytest.fixture
def ab():
    return Alphabet.of("a", "b")


class TestExistsAndCutoff1:
    def test_exists_label_automaton(self, ab):
        auto = exists_label_automaton(ab, "a")
        assert auto.automaton_class.symbol == "dAf"
        assert decide(auto, cycle_graph(ab, ["b", "a", "b"])).verdict is Verdict.ACCEPT
        assert decide(auto, cycle_graph(ab, ["b", "b", "b"])).verdict is Verdict.REJECT

    def test_support_automaton_decides_cutoff1_property(self, ab):
        prop = support_property(ab, required={"a"}, forbidden={"b"})
        auto = support_automaton(prop)
        assert decide(auto, cycle_graph(ab, ["a", "a", "a"])).verdict is Verdict.ACCEPT
        assert decide(auto, cycle_graph(ab, ["a", "a", "b"])).verdict is Verdict.REJECT
        assert decide(auto, cycle_graph(ab, ["b", "b", "b"])).verdict is Verdict.REJECT

    def test_boolean_combinations(self, ab):
        has_a = exists_label_automaton(ab, "a")
        has_b = exists_label_automaton(ab, "b")
        both = conjunction(has_a, has_b)
        either = disjunction(has_a, has_b)
        only_a = conjunction(has_a, negate(has_b))
        mixed = cycle_graph(ab, ["a", "b", "b"])
        pure_a = cycle_graph(ab, ["a", "a", "a"])
        assert decide(both, mixed).verdict is Verdict.ACCEPT
        assert decide(both, pure_a).verdict is Verdict.REJECT
        assert decide(either, pure_a).verdict is Verdict.ACCEPT
        assert decide(only_a, pure_a).verdict is Verdict.ACCEPT
        assert decide(only_a, mixed).verdict is Verdict.REJECT


class TestThresholdDAF:
    def test_threshold_one_is_flooding(self, ab):
        from repro.constructions import threshold_daf_automaton

        auto = threshold_daf_automaton(ab, "a", 1)
        assert decide(auto, cycle_graph(ab, ["a", "b", "b"])).verdict is Verdict.ACCEPT

    def test_threshold_two_agrees_with_property_on_families(self, ab):
        from repro.constructions import threshold_daf_automaton
        from repro.properties import at_least_k_property

        auto = threshold_daf_automaton(ab, "a", 2)
        prop = at_least_k_property(ab, "a", 2)
        for labels in (["a", "a", "b"], ["a", "b", "b"], ["b", "b", "b"], ["a", "a", "a", "b"]):
            expected = prop(LabelCount.from_labels(ab, labels))
            for graph in (cycle_graph(ab, labels), line_graph(ab, labels)):
                verdict = decide(auto, graph, max_configurations=600_000).verdict
                assert verdict.as_bool() == expected, (labels, graph.name)

    def test_cutoff_automaton_from_table(self, ab):
        # Accept exactly the counts whose cutoff-at-1 vector is (1, 0): "a occurs, b does not".
        prop = cutoff_table_property(ab, 1, {(1, 0)})
        auto = cutoff_automaton(prop)
        assert decide(auto, cycle_graph(ab, ["a", "a", "a"]), max_configurations=400_000).verdict is Verdict.ACCEPT
        assert decide(auto, cycle_graph(ab, ["a", "b", "a"]), max_configurations=400_000).verdict is Verdict.REJECT


class TestStrongBroadcastAndTokenConstruction:
    def test_exists_strong_broadcast_protocol(self, ab):
        protocol = exists_broadcast_protocol(ab, "a")
        assert protocol.decide_pseudo_stochastic(cycle_graph(ab, ["a", "b", "b"])) is Verdict.ACCEPT
        assert protocol.decide_pseudo_stochastic(cycle_graph(ab, ["b", "b", "b"])) is Verdict.REJECT

    def test_threshold_strong_broadcast_protocol(self, ab):
        protocol = threshold_broadcast_protocol(ab, "a", 2)
        assert protocol.decide_pseudo_stochastic(cycle_graph(ab, ["a", "a", "b"])) is Verdict.ACCEPT
        assert protocol.decide_pseudo_stochastic(cycle_graph(ab, ["a", "b", "b"])) is Verdict.REJECT

    def test_token_construction_decides_at_weak_broadcast_level(self, ab):
        protocol = exists_broadcast_protocol(ab, "a")
        machine = token_construction(protocol)
        assert machine.decide_pseudo_stochastic(cycle_graph(ab, ["a", "b", "b"]), max_configurations=300_000) is Verdict.ACCEPT
        assert machine.decide_pseudo_stochastic(cycle_graph(ab, ["b", "b", "b"]), max_configurations=300_000) is Verdict.REJECT

    def test_fully_compiled_nl_machine_simulates_correctly(self, ab):
        """End-to-end Lemma 5.1 pipeline, checked by simulation on a small cycle."""
        from repro.workloads import EngineOptions, MachineWorkload

        machine = nl_daf_machine(exists_broadcast_protocol(ab, "a"))
        options = EngineOptions(max_steps=40_000, stability_window=800)
        graph = cycle_graph(ab, ["a", "b", "b"])
        accept = MachineWorkload(machine, graph, options).run(2)
        assert accept.verdict is Verdict.ACCEPT


class TestCancellation:
    def test_contribution_bound(self):
        assert contribution_bound({"a": 1, "b": -1}, 3) == 6
        assert contribution_bound({"a": 10, "b": -1}, 2) == 10

    def test_cancellation_preserves_sum(self, ab):
        machine = cancellation_machine(ab, {"a": 1, "b": -1}, 2)
        g = cycle_graph(ab, ["a", "b", "b", "a", "b", "b"])
        trace, _ = run_cancellation(machine, g, max_steps=200)
        sums = {sum(config) for config in trace}
        assert sums == {sum(trace[0])}

    def test_cancellation_converges_per_lemma_6_1(self, ab):
        machine = cancellation_machine(ab, {"a": 1, "b": -1}, 2)
        g = cycle_graph(ab, ["a", "b", "b", "b", "b", "a"])  # sum = -2
        trace, fixed = run_cancellation(machine, g, max_steps=500)
        assert fixed
        assert cancellation_converged(trace[-1], 2) in ("negative", "small")

    def test_cancellation_classification(self):
        assert cancellation_converged((-1, -2, -1), 2) == "negative"
        assert cancellation_converged((1, -2, 0), 2) == "small"
        assert cancellation_converged((5, -2, 0), 2) is None


class TestBoundedDegreeMajority:
    @pytest.mark.parametrize(
        "labels, expected",
        [
            (["a", "a", "b", "b", "a"], Verdict.ACCEPT),
            (["a", "b", "b", "b", "a"], Verdict.REJECT),
            (["a", "b", "a", "b"], Verdict.ACCEPT),  # tie, non-strict majority
            (["b", "b", "b"], Verdict.REJECT),
            (["a", "a", "a"], Verdict.ACCEPT),
        ],
    )
    def test_majority_on_cycles(self, ab, labels, expected):
        protocol = majority_protocol_bounded(ab, degree_bound=2)
        verdict, _ = protocol.decide(cycle_graph(ab, labels))
        assert verdict is expected

    def test_majority_on_lines_and_grids(self, ab):
        protocol = majority_protocol_bounded(ab, degree_bound=4)
        line = line_graph(ab, ["a", "b", "b", "a", "a"])
        verdict, _ = protocol.decide(line)
        assert verdict is Verdict.ACCEPT
        grid = grid_graph(ab, 2, 3, ["a", "b", "b", "b", "b", "a"])
        verdict, _ = protocol.decide(grid)
        assert verdict is Verdict.REJECT

    @pytest.mark.parametrize(
        "make, labels",
        [(cycle_graph, "bbbaba"), (line_graph, "bababba")],
    )
    def test_minority_reproducers_reject(self, ab, make, labels):
        # Minority inputs that some other choice of observation blocks and
        # heard broadcast (choices §6.1 leaves to the adversary) accepts.
        protocol = majority_protocol_bounded(ab, degree_bound=2)
        verdict, _ = protocol.decide(make(ab, list(labels)))
        assert verdict is Verdict.REJECT

    @pytest.mark.parametrize("coefficients", [{"a": 1, "b": -1}, {"a": 2, "b": -3}])
    def test_every_small_line_and_cycle(self, ab, coefficients):
        """Every line and cycle with 3 ≤ n ≤ 6 nodes gets the predicate's verdict."""
        protocol = BoundedDegreeMajorityProtocol(ab, coefficients, degree_bound=2)
        prop = protocol.property()
        for n in range(3, 7):
            for labels in itertools.product("ab", repeat=n):
                for make in (line_graph, cycle_graph):
                    graph = make(ab, list(labels))
                    verdict, _ = protocol.decide(graph)
                    assert verdict.as_bool() == prop(graph.label_count()), (
                        make.__name__,
                        labels,
                    )

    def test_general_homogeneous_threshold(self, ab):
        # 2·x_a − 3·x_b ≥ 0
        protocol = BoundedDegreeMajorityProtocol(
            alphabet=ab, coefficients={"a": 2, "b": -3}, degree_bound=2
        )
        accept_graph = cycle_graph(ab, ["a", "a", "a", "b", "a"])   # 8 - 3 ≥ 0
        reject_graph = cycle_graph(ab, ["a", "b", "b", "a", "b"])   # 4 - 9 < 0
        assert protocol.decide(accept_graph)[0] is Verdict.ACCEPT
        assert protocol.decide(reject_graph)[0] is Verdict.REJECT

    def test_degree_bound_enforced(self, ab):
        protocol = majority_protocol_bounded(ab, degree_bound=2)
        with pytest.raises(ValueError):
            protocol.decide(star_graph(ab, "a", ["b", "b", "b"]))

    def test_verdict_matches_property_across_margins(self, ab):
        protocol = majority_protocol_bounded(ab, degree_bound=2)
        prop = majority_property(ab, strict=False)
        for a_count in range(1, 5):
            for b_count in range(1, 5):
                labels = ["a"] * a_count + ["b"] * b_count
                if len(labels) < 3:
                    continue
                g = cycle_graph(ab, labels)
                verdict, _ = protocol.decide(g)
                assert verdict.as_bool() == prop(g.label_count()), (a_count, b_count)
