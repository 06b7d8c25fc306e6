"""Tests for the exact decision engine (bottom SCCs, fair lassos, verdicts)."""

from __future__ import annotations

import pytest

from repro.core.automaton import automaton
from repro.core.graphs import cycle_graph, line_graph, star_graph
from repro.core.labels import Alphabet
from repro.core.machine import DistributedMachine, Neighborhood
from repro.core.scheduler import SelectionMode
from repro.core.results import Verdict
from repro.core.verification import (
    StateSpaceTooLarge,
    bottom_sccs,
    decide,
    decide_adversarial,
    decide_pseudo_stochastic,
    decides_same,
    explore,
    reachable_stably_accepting,
    strongly_connected_components,
)


@pytest.fixture
def ab():
    return Alphabet.of("a", "b")


def flooding_machine(ab):
    """Flood 'yes' if any node started with label a (works for dAf and dAF)."""

    def init(label):
        return "yes" if label == "a" else "no"

    def delta(state, neighborhood):
        if state == "no" and neighborhood.has("yes"):
            return "yes"
        return state

    return DistributedMachine(
        alphabet=ab, beta=1, init=init, delta=delta,
        accepting={"yes"}, rejecting={"no"}, name="flood",
    )


def flaky_machine(ab):
    """A machine that deliberately violates the consistency condition.

    A node toggles between an accepting and a rejecting state whenever it is
    selected, so no run ever stabilises.
    """

    def init(label):
        return "ping"

    def delta(state, neighborhood):
        return "pong" if state == "ping" else "ping"

    return DistributedMachine(
        alphabet=ab, beta=1, init=init, delta=delta,
        accepting={"ping"}, rejecting={"pong"}, name="flaky",
    )


class TestExplore:
    def test_reachable_configurations(self, ab):
        machine = flooding_machine(ab)
        g = cycle_graph(ab, ["a", "b", "b"])
        graph = explore(machine, g)
        # States only ever go no -> yes, so reachable configs are monotone sets.
        assert graph.initial == ("yes", "no", "no")
        assert ("yes", "yes", "yes") in graph.configurations
        assert graph.size <= 2**3

    def test_budget_enforced(self, ab):
        machine = flooding_machine(ab)
        g = cycle_graph(ab, ["a", "b", "b", "b"])
        with pytest.raises(StateSpaceTooLarge):
            explore(machine, g, max_configurations=2)

    def test_edge_selections_recorded(self, ab):
        machine = flooding_machine(ab)
        g = line_graph(ab, ["a", "b", "b"])
        graph = explore(machine, g)
        start = graph.initial
        succ = ("yes", "yes", "no")
        assert succ in graph.successors[start]
        assert frozenset({1}) in graph.edge_selections[(start, succ)]


class TestSCC:
    def test_components_partition_configurations(self, ab):
        machine = flooding_machine(ab)
        g = cycle_graph(ab, ["a", "b", "b"])
        graph = explore(machine, g)
        components = strongly_connected_components(graph)
        flattened = [c for component in components for c in component]
        assert sorted(map(repr, flattened)) == sorted(map(repr, graph.configurations))

    def test_bottom_scc_is_the_consensus(self, ab):
        machine = flooding_machine(ab)
        g = cycle_graph(ab, ["a", "b", "b"])
        graph = explore(machine, g)
        bottoms = bottom_sccs(graph)
        assert len(bottoms) == 1
        assert bottoms[0] == [("yes", "yes", "yes")]


class TestPseudoStochasticDecision:
    def test_accepts_when_a_present(self, ab):
        machine = flooding_machine(ab)
        report = decide_pseudo_stochastic(machine, cycle_graph(ab, ["a", "b", "b"]))
        assert report.verdict is Verdict.ACCEPT

    def test_rejects_when_no_a(self, ab):
        machine = flooding_machine(ab)
        report = decide_pseudo_stochastic(machine, cycle_graph(ab, ["b", "b", "b"]))
        assert report.verdict is Verdict.REJECT

    def test_flaky_machine_is_inconsistent(self, ab):
        machine = flaky_machine(ab)
        report = decide_pseudo_stochastic(machine, cycle_graph(ab, ["a", "b", "b"]))
        assert report.verdict is Verdict.INCONSISTENT

    def test_reachable_stably_accepting(self, ab):
        machine = flooding_machine(ab)
        assert reachable_stably_accepting(machine, cycle_graph(ab, ["a", "b", "b"]))
        assert not reachable_stably_accepting(machine, cycle_graph(ab, ["b", "b", "b"]))
        assert reachable_stably_accepting(
            machine, cycle_graph(ab, ["b", "b", "b"]), accepting=False
        )


class TestAdversarialDecision:
    def test_flooding_also_works_under_adversarial_fairness(self, ab):
        machine = flooding_machine(ab)
        assert decide_adversarial(machine, cycle_graph(ab, ["a", "b", "b"])).verdict is Verdict.ACCEPT
        assert decide_adversarial(machine, cycle_graph(ab, ["b", "b", "b"])).verdict is Verdict.REJECT

    def test_flaky_machine_inconsistent_adversarially(self, ab):
        machine = flaky_machine(ab)
        assert decide_adversarial(machine, cycle_graph(ab, ["a", "a", "a"])).verdict is Verdict.INCONSISTENT

    def test_fairness_sensitive_machine(self, ab):
        """A machine whose acceptance needs pseudo-stochastic luck.

        A single 'token' node accepts only if, when selected, *all* its
        neighbours currently show 'ready'; other nodes toggle ready/idle each
        time they are selected.  Under pseudo-stochastic fairness the lucky
        constellation is guaranteed to occur; an adversarial scheduler can
        avoid it forever, so the automaton is not consistent adversarially —
        the engine must detect the difference.
        """

        def init(label):
            return "token" if label == "a" else "idle"

        def delta(state, neighborhood):
            if state == "token":
                if neighborhood.states() and neighborhood.all_in({"ready", "done"}):
                    return "done"
                return state
            if state == "done":
                return "done"
            if state in ("idle", "ready"):
                if neighborhood.has("done"):
                    return "done"
                return "ready" if state == "idle" else "idle"
            return state

        machine = DistributedMachine(
            alphabet=ab, beta=1, init=init, delta=delta,
            accepting={"done"}, rejecting={"token", "idle", "ready"}, name="lucky",
        )
        g = star_graph(ab, "a", ["b", "b"])
        pseudo = decide_pseudo_stochastic(machine, g)
        adversarial = decide_adversarial(machine, g)
        assert pseudo.verdict is Verdict.ACCEPT
        assert adversarial.verdict is Verdict.INCONSISTENT

    def test_budget_enforced(self, ab):
        machine = flooding_machine(ab)
        g = cycle_graph(ab, ["a", "b", "b", "b"])
        with pytest.raises(StateSpaceTooLarge):
            decide_adversarial(machine, g, max_configurations=2)

    def test_synchronous_selection_mode(self, ab):
        machine = flooding_machine(ab)
        report = decide_adversarial(
            machine, cycle_graph(ab, ["a", "b", "b"]), SelectionMode.SYNCHRONOUS
        )
        assert report.verdict is Verdict.ACCEPT


class TestTopLevelDecide:
    def test_dispatch_on_class(self, ab):
        machine = flooding_machine(ab)
        g = cycle_graph(ab, ["a", "b", "b"])
        for symbol in ("dAf", "dAF"):
            assert decide(automaton(machine, symbol), g).verdict is Verdict.ACCEPT

    def test_synchronous_selection(self, ab):
        machine = flooding_machine(ab)
        auto = automaton(machine, "dAf", selection=SelectionMode.SYNCHRONOUS)
        assert decide(auto, cycle_graph(ab, ["a", "b", "b"])).verdict is Verdict.ACCEPT

    def test_decides_same_on_families(self, ab):
        machine = flooding_machine(ab)
        auto = automaton(machine, "dAf")
        graphs = [
            cycle_graph(ab, ["a", "b", "b"]),
            line_graph(ab, ["b", "a", "b"]),
            star_graph(ab, "b", ["a", "b"]),
        ]
        assert decides_same(auto, graphs)

    def test_decides_same_false_on_disagreement(self, ab):
        machine = flooding_machine(ab)
        auto = automaton(machine, "dAf")
        graphs = [
            cycle_graph(ab, ["a", "b", "b"]),  # accepts: an 'a' is present
            cycle_graph(ab, ["b", "b", "b"]),  # rejects: no 'a'
        ]
        assert not decides_same(auto, graphs)

    def test_decides_same_false_when_inconsistent(self, ab):
        # A uniformly INCONSISTENT verdict set is NOT "deciding the same":
        # the automaton decides nothing at all on these graphs.
        machine = flaky_machine(ab)
        auto = automaton(machine, "dAf")
        graphs = [cycle_graph(ab, ["a", "b", "b"]), line_graph(ab, ["b", "a", "b"])]
        assert not decides_same(auto, graphs)

    def test_decides_same_single_graph(self, ab):
        machine = flooding_machine(ab)
        auto = automaton(machine, "dAf")
        assert decides_same(auto, [cycle_graph(ab, ["a", "b", "b"])])

    def test_decides_same_propagates_budget(self, ab):
        machine = flooding_machine(ab)
        auto = automaton(machine, "dAf")
        with pytest.raises(StateSpaceTooLarge):
            decides_same(
                auto, [cycle_graph(ab, ["a", "b", "b", "b"])], max_configurations=2
            )

    def test_selection_mode_does_not_change_verdict(self, ab):
        """An empirical spot-check of the Esparza–Reiter collapse theorem."""
        machine = flooding_machine(ab)
        g = cycle_graph(ab, ["a", "b", "b"])
        verdicts = set()
        for mode in (SelectionMode.EXCLUSIVE, SelectionMode.SYNCHRONOUS, SelectionMode.LIBERAL):
            auto = automaton(machine, "dAF", selection=mode)
            verdicts.add(decide(auto, g).verdict)
        assert verdicts == {Verdict.ACCEPT}
