"""Tests for the Section 3 limitation witnesses (lock-step / indistinguishability)."""

from __future__ import annotations

import pytest

from repro.core.automaton import automaton
from repro.core.graphs import clique_from_count, cycle_graph
from repro.core.labels import Alphabet, LabelCount
from repro.core.machine import DistributedMachine
from repro.core.verification import decide
from repro.analysis.limitations import (
    clique_cutoff_pair,
    clique_state_counts_match,
    covering_lockstep_holds,
    covering_pair,
    halting_surgery_graph,
    line_extension_lockstep_holds,
    line_extension_pair,
    star_pair,
    surgery_lockstep_holds,
)
from repro.constructions import exists_label_machine, exists_label_automaton


@pytest.fixture
def ab():
    return Alphabet.of("a", "b")


def counting_vote_machine(ab, beta=2):
    """A (consistency-free) counting machine used purely for lock-step checks."""

    def init(label):
        return ("v", 1 if label == "a" else 0)

    def delta(state, neighborhood):
        kind, value = state
        ones = neighborhood.count_where(lambda s: isinstance(s, tuple) and s[1] >= 1)
        return (kind, min(value + ones, 3))

    return DistributedMachine(
        alphabet=ab, beta=beta, init=init, delta=delta, name="vote",
    )


class TestHaltingSurgery:
    def test_surgery_graph_structure(self, ab):
        g = cycle_graph(ab, ["a", "a", "a"])
        h = cycle_graph(ab, ["b", "b", "b"])
        result = halting_surgery_graph(g, h, rounds_first=2, rounds_second=2)
        assert result.graph.is_connected()
        assert result.copies_of_first == 5 and result.copies_of_second == 5
        assert result.graph.num_nodes == 5 * 3 + 5 * 3
        # Degrees are preserved: every node still has degree 2.
        assert result.graph.max_degree() == 2

    def test_requires_cycles(self, ab):
        from repro.core.graphs import line_graph

        g = line_graph(ab, ["a", "a", "a"])
        h = cycle_graph(ab, ["b", "b", "b"])
        with pytest.raises(ValueError):
            halting_surgery_graph(g, h, 1, 1)

    def test_inner_copies_run_in_lockstep(self, ab):
        g = cycle_graph(ab, ["a", "a", "a"])
        h = cycle_graph(ab, ["b", "b", "b"])
        rounds = 2
        result = halting_surgery_graph(g, h, rounds, rounds)
        machine = exists_label_machine(ab, "a").make_halting()
        assert surgery_lockstep_holds(machine, g, result, result.inner_first_nodes, rounds)
        assert surgery_lockstep_holds(machine, h, result, result.inner_second_nodes, rounds)

    def test_lockstep_produces_contradictory_local_verdicts(self, ab):
        """The Lemma 3.1 contradiction: accepted-G nodes and rejected-H nodes coexist."""
        g = cycle_graph(ab, ["a", "a", "a"])
        h = cycle_graph(ab, ["b", "b", "b"])
        machine = exists_label_machine(ab, "a").make_halting()
        result = halting_surgery_graph(g, h, 2, 2)
        from repro.core.configuration import synchronous_trace

        trace = synchronous_trace(machine, result.graph, 2)
        final = trace[-1]
        inner_first_states = {final[v] for v in result.inner_first_nodes}
        inner_second_states = {final[v] for v in result.inner_second_nodes}
        assert inner_first_states == {"yes"}
        assert inner_second_states == {"no"}


class TestCoverings:
    def test_covering_lockstep(self, ab):
        machine = counting_vote_machine(ab)
        base, cover, mapping = covering_pair(ab, ["a", "b", "a"], 3)
        assert covering_lockstep_holds(machine, base, cover, mapping, steps=6)

    def test_daf_automaton_gives_same_verdict_on_covering_pair(self, ab):
        base, cover, _ = covering_pair(ab, ["a", "b", "b"], 2)
        auto = exists_label_automaton(ab, "a")  # runs fine as a DAf witness too
        assert decide(auto, base).verdict == decide(auto, cover).verdict


class TestCliqueCutoff:
    def test_state_counts_match_up_to_cutoff(self, ab):
        machine = counting_vote_machine(ab, beta=2)
        first = LabelCount.from_mapping(ab, {"a": 3, "b": 1})
        second = LabelCount.from_mapping(ab, {"a": 5, "b": 1})
        assert first.cutoff(3) == second.cutoff(3)
        g1, g2 = clique_cutoff_pair(first, second)
        assert clique_state_counts_match(machine, g1, g2, steps=5, beta=2)

    def test_distinguishable_counts_do_differ(self, ab):
        machine = counting_vote_machine(ab, beta=2)
        first = LabelCount.from_mapping(ab, {"a": 1, "b": 2})
        second = LabelCount.from_mapping(ab, {"a": 3, "b": 2})
        g1, g2 = clique_cutoff_pair(first, second)
        # Counts differ below the cutoff, so lock-step may fail — and here does.
        assert not clique_state_counts_match(machine, g1, g2, steps=5, beta=0)


class TestStarsAndLines:
    def test_star_pair_shapes(self, ab):
        s1, s2 = star_pair(ab, "a", ["b", "b"], ["b", "b", "b", "b"])
        assert s1.degree(0) == 2 and s2.degree(0) == 4

    def test_line_extension_lockstep_for_non_counting(self, ab):
        line, extended = line_extension_pair(ab, ["a", "b", "b", "a"], "a")
        machine = exists_label_machine(ab, "a")  # non-counting
        assert line_extension_lockstep_holds(machine, line, extended, steps=6)

    def test_line_extension_breaks_for_counting_machines(self, ab):
        """Counting machines *can* tell the pair apart — the dAf restriction is essential."""
        line, extended = line_extension_pair(ab, ["a", "b", "b", "a"], "a")
        machine = counting_vote_machine(ab, beta=2)
        assert not line_extension_lockstep_holds(machine, line, extended, steps=6)

    def test_line_extension_validates_label(self, ab):
        with pytest.raises(ValueError):
            line_extension_pair(ab, ["a", "b"], "b")

    def test_dAf_verdicts_agree_on_line_extension(self, ab):
        line, extended = line_extension_pair(ab, ["a", "b", "b"], "a")
        auto = exists_label_automaton(ab, "b")
        assert decide(auto, line).verdict == decide(auto, extended).verdict
