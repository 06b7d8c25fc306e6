"""Tests for distributed machines, neighbourhood views and configurations."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.configuration import (
    initial_configuration,
    is_accepting_configuration,
    is_rejecting_configuration,
    neighborhood_of,
    run_prefix,
    successor,
)
from repro.core.graphs import cycle_graph, star_graph
from repro.core.labels import Alphabet
from repro.core.machine import DistributedMachine, Neighborhood, table_machine
from repro.core.results import Verdict


@pytest.fixture
def ab():
    return Alphabet.of("a", "b")


def flooding_machine(ab, beta=1):
    def init(label):
        return "yes" if label == "a" else "no"

    def delta(state, neighborhood):
        if state == "no" and neighborhood.has("yes"):
            return "yes"
        return state

    return DistributedMachine(
        alphabet=ab, beta=beta, init=init, delta=delta,
        accepting={"yes"}, rejecting={"no"}, name="flood",
    )


class TestNeighborhood:
    def test_counts_are_capped(self):
        n = Neighborhood({"q": 5, "r": 1}, beta=2)
        assert n.count("q") == 2
        assert n.count("r") == 1
        assert n.count("missing") == 0

    def test_non_counting_sees_only_presence(self):
        n = Neighborhood({"q": 7}, beta=1)
        assert n.count("q") == 1
        assert n.has("q")

    def test_degree_is_uncapped(self):
        n = Neighborhood({"q": 7}, beta=1)
        assert n.degree == 7

    def test_count_where_sums_capped_counts(self):
        n = Neighborhood({1: 3, 2: 1, -5: 2}, beta=2)
        assert n.count_where(lambda s: s > 0) == 3
        assert n.count_where(lambda s: s < 0) == 2

    def test_all_in_and_states(self):
        n = Neighborhood({"q": 1, "r": 2}, beta=2)
        assert n.states() == frozenset({"q", "r"})
        assert n.all_in({"q", "r", "s"})
        assert not n.all_in({"q"})

    def test_equality_hash(self):
        a = Neighborhood({"q": 3}, beta=2)
        b = Neighborhood({"q": 5}, beta=2)
        # Equal capped counts but different degree: not equal.
        assert a != b
        c = Neighborhood({"q": 3}, beta=2)
        assert a == c and hash(a) == hash(c)

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            Neighborhood({}, beta=0)

    @given(
        st.dictionaries(
            st.one_of(st.integers(-3, 3), st.text(max_size=2)),
            st.integers(1, 3),
            max_size=5,
        ),
        st.integers(0, 9),
    )
    def test_from_capped_equals_the_validating_constructor(self, counts, extra):
        """Already-capped items give the same view, item order included."""
        total = sum(counts.values()) + extra
        view = Neighborhood.from_capped(list(counts.items()), 3, total)
        expected = Neighborhood(counts, beta=3, total=total)
        assert view == expected and hash(view) == hash(expected)
        assert view.items() == expected.items()
        assert view.degree == expected.degree and view.beta == expected.beta


class TestDistributedMachine:
    def test_counting_flag(self, ab):
        assert not flooding_machine(ab, beta=1).is_counting
        assert flooding_machine(ab, beta=2).is_counting

    def test_initial_state_validates_label(self, ab):
        machine = flooding_machine(ab)
        assert machine.initial_state("a") == "yes"
        with pytest.raises(ValueError):
            machine.initial_state("z")

    def test_step_validates_beta(self, ab):
        machine = flooding_machine(ab, beta=1)
        with pytest.raises(ValueError):
            machine.step("no", Neighborhood({"yes": 1}, beta=2))

    def test_outputs(self, ab):
        machine = flooding_machine(ab)
        assert machine.output_of("yes") is True
        assert machine.output_of("no") is False

    def test_make_halting_freezes_verdict_states(self, ab):
        machine = flooding_machine(ab).make_halting()
        # 'no' is rejecting, so it must not move even when a 'yes' neighbour appears.
        assert machine.step("no", Neighborhood({"yes": 1}, beta=1)) == "no"
        assert machine.output_of("yes") is True
        assert machine.output_of("no") is False

    def test_verdict_of_a_consensus_value(self):
        assert Verdict.of(True) is Verdict.ACCEPT
        assert Verdict.of(False) is Verdict.REJECT
        assert Verdict.of(None) is Verdict.UNDECIDED
        for verdict in (Verdict.ACCEPT, Verdict.REJECT, Verdict.UNDECIDED):
            assert Verdict.of(verdict.as_bool()) is verdict

    def test_check_halting(self, ab):
        machine = flooding_machine(ab)
        neighborhoods = [Neighborhood({"yes": 1}, beta=1), Neighborhood({}, beta=1)]
        assert not machine.check_halting(["yes", "no"], neighborhoods)
        assert machine.make_halting().check_halting(["yes", "no"], neighborhoods)

    def test_table_machine(self, ab):
        machine = table_machine(
            alphabet=ab,
            beta=1,
            init={"a": "q1", "b": "q0"},
            transitions={("q0", (("q1", 1),)): "q1"},
            accepting=["q1"],
            rejecting=["q0"],
            states=["q0", "q1"],
        )
        assert machine.step("q0", Neighborhood({"q1": 1}, beta=1)) == "q1"
        # Unlisted entries are silent.
        assert machine.step("q0", Neighborhood({"q0": 1}, beta=1)) == "q0"


class TestConfigurations:
    def test_initial_configuration(self, ab):
        machine = flooding_machine(ab)
        g = cycle_graph(ab, ["a", "b", "b"])
        assert initial_configuration(machine, g) == ("yes", "no", "no")

    def test_neighborhood_of(self, ab):
        machine = flooding_machine(ab)
        g = star_graph(ab, "a", ["b", "b", "b"])
        config = initial_configuration(machine, g)
        centre_view = neighborhood_of(machine, g, config, 0)
        assert centre_view.count("no") == 1  # capped at beta=1
        assert centre_view.degree == 3

    def test_successor_only_moves_selected(self, ab):
        machine = flooding_machine(ab)
        g = cycle_graph(ab, ["a", "b", "b"])
        config = initial_configuration(machine, g)
        after = successor(machine, g, config, [1])
        assert after == ("yes", "yes", "no")
        untouched = successor(machine, g, config, [])
        assert untouched == config

    def test_synchronous_successor(self, ab):
        machine = flooding_machine(ab)
        g = cycle_graph(ab, ["a", "b", "b"])
        config = initial_configuration(machine, g)
        after = successor(machine, g, config, g.nodes())
        assert after == ("yes", "yes", "yes")

    def test_consensus_predicates(self, ab):
        machine = flooding_machine(ab)
        assert is_accepting_configuration(machine, ("yes", "yes"))
        assert not is_accepting_configuration(machine, ("yes", "no"))
        assert is_rejecting_configuration(machine, ("no", "no"))

    def test_run_prefix(self, ab):
        machine = flooding_machine(ab)
        g = cycle_graph(ab, ["a", "b", "b", "b"])
        trace = run_prefix(machine, g, [[1], [2], [3]])
        assert len(trace) == 4
        assert trace[-1] == ("yes", "yes", "yes", "yes")


@given(st.lists(st.sampled_from(["a", "b"]), min_size=3, max_size=7))
def test_flooding_reaches_everyone_iff_a_present(labels):
    """Synchronous flooding stabilises to all-yes iff some node carries 'a'."""
    ab = Alphabet.of("a", "b")
    machine = flooding_machine(ab)
    g = cycle_graph(ab, labels)
    config = initial_configuration(machine, g)
    for _ in range(len(labels)):
        config = successor(machine, g, config, g.nodes())
    if "a" in labels:
        assert all(state == "yes" for state in config)
    else:
        assert all(state == "no" for state in config)
