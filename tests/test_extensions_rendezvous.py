"""Tests for graph population protocols and the Lemma 4.10 DAF simulation."""

from __future__ import annotations

import pytest

from repro.core.automaton import automaton
from repro.core.graphs import cycle_graph, line_graph, star_graph
from repro.core.labels import Alphabet
from repro.core.results import Verdict
from repro.core.verification import decide
from repro.extensions.rendezvous import (
    GraphPopulationProtocol,
    majority_with_movement,
    parity_protocol,
    token_protocol,
    transition_table,
)
from repro.extensions.rendezvous_sim import compile_rendezvous, original_state, status_of
from repro.workloads import EngineOptions, MachineWorkload


@pytest.fixture
def ab():
    return Alphabet.of("a", "b")


class TestGraphPopulationProtocols:
    def test_interact_applies_ordered_transition(self, ab):
        protocol = majority_with_movement(ab)
        g = line_graph(ab, ["a", "b", "b"])
        config = protocol.initial_configuration(g)
        assert config == ("A", "B", "B")
        after = protocol.interact(config, 0, 1)
        assert after == ("b", "b", "B")  # A,B cancel into the tie-breaking follower

    def test_successors_cover_both_orientations(self, ab):
        protocol = majority_with_movement(ab)
        g = line_graph(ab, ["a", "b", "a"])
        config = ("A", "a", "b")
        succ = protocol.successors(g, config)
        assert ("a", "A", "b") in succ  # movement: A swaps with its follower
        assert ("A", "a", "a") in succ or ("A", "b", "b") in succ  # conversion/spread on edge (1,2)

    def test_token_protocol_states(self, ab):
        protocol = token_protocol(ab)
        g = cycle_graph(ab, ["a", "a", "a"])
        config = protocol.initial_configuration(g)
        assert config == ("L", "L", "L")
        after = protocol.interact(config, 0, 1)
        assert after == ("0", "BOT", "L")

    def test_majority_exact_decision(self, ab):
        protocol = majority_with_movement(ab)
        assert protocol.decide_pseudo_stochastic(cycle_graph(ab, ["a", "a", "b"])) is Verdict.ACCEPT
        assert protocol.decide_pseudo_stochastic(cycle_graph(ab, ["a", "b", "b"])) is Verdict.REJECT
        assert protocol.decide_pseudo_stochastic(cycle_graph(ab, ["a", "b", "a", "b"])) is Verdict.REJECT

    def test_non_strict_majority_accepts_ties(self, ab):
        protocol = majority_with_movement(ab, strict=False)
        assert protocol.decide_pseudo_stochastic(cycle_graph(ab, ["a", "b", "a", "b"])) is Verdict.ACCEPT

    def test_majority_on_line_and_star(self, ab):
        protocol = majority_with_movement(ab)
        assert protocol.decide_pseudo_stochastic(line_graph(ab, ["a", "b", "a"])) is Verdict.ACCEPT
        assert protocol.decide_pseudo_stochastic(star_graph(ab, "b", ["b", "a"])) is Verdict.REJECT

    def test_parity_exact_decision(self, ab):
        protocol = parity_protocol(ab, "a")
        assert protocol.decide_pseudo_stochastic(cycle_graph(ab, ["a", "b", "b"])) is Verdict.ACCEPT
        assert protocol.decide_pseudo_stochastic(cycle_graph(ab, ["a", "a", "b"])) is Verdict.REJECT

    def test_simulation_agrees_with_exact(self, ab):
        """A seeded run of the Lemma 4.10 compilation stabilises on the
        protocol's exact verdict."""
        protocol = majority_with_movement(ab)
        g = cycle_graph(ab, ["a", "a", "b", "b", "a"])
        options = EngineOptions(max_steps=60_000, stability_window=2_000)
        result = MachineWorkload(compile_rendezvous(protocol), g, options).run(3)
        assert result.stabilised_at is not None
        assert result.verdict is protocol.decide_pseudo_stochastic(g) is Verdict.ACCEPT

    def test_transition_table_default_silent(self):
        delta = transition_table({("p", "q"): ("p2", "q2")})
        assert delta("p", "q") == ("p2", "q2")
        assert delta("q", "p") == ("q", "p")


class TestRendezvousSimulation:
    def test_status_helpers(self, ab):
        compiled = compile_rendezvous(majority_with_movement(ab))
        state = compiled.initial_state("a")
        assert status_of(state) == "waiting"
        assert original_state(state) == "A"

    def test_compiled_machine_is_counting(self, ab):
        compiled = compile_rendezvous(majority_with_movement(ab))
        assert compiled.beta == 2  # "exactly one" tests need counting up to 2

    def test_compiled_majority_exact_small_graphs(self, ab):
        """Integration for Lemma 4.10: the compiled DAF automaton decides majority."""
        auto = automaton(compile_rendezvous(majority_with_movement(ab)), "DAF")
        assert decide(auto, cycle_graph(ab, ["a", "a", "b"]), max_configurations=500_000).verdict is Verdict.ACCEPT
        assert decide(auto, line_graph(ab, ["b", "a", "b"]), max_configurations=500_000).verdict is Verdict.REJECT

    def test_compiled_parity_simulation_on_larger_graph(self, ab):
        compiled = compile_rendezvous(parity_protocol(ab, "a"))
        options = EngineOptions(max_steps=30_000, stability_window=600)
        g = cycle_graph(ab, ["a", "b", "a", "b", "a", "b", "b"])  # three a's: odd
        result = MachineWorkload(compiled, g, options).run(11)
        assert result.verdict is Verdict.ACCEPT

    def test_handshake_cancellation_on_irregular_neighbourhood(self, ab):
        """A node seeing two non-waiting neighbours must fall back to waiting."""
        protocol = majority_with_movement(ab)
        compiled = compile_rendezvous(protocol)
        from repro.core.machine import Neighborhood

        searching_state = ("#rv-search", "A")
        view = Neighborhood({searching_state: 2}, beta=2)
        assert compiled.delta(("#rv-search", "B"), view) == "B"
