"""Tests for weak broadcasts and the Lemma 4.7 three-phase compilation."""

from __future__ import annotations

import itertools
from collections import Counter

import pytest

from repro.core.automaton import automaton
from repro.core.graphs import cycle_graph, line_graph, star_graph
from repro.core.labels import Alphabet
from repro.core.machine import Neighborhood
from repro.core.results import Verdict
from repro.core.verification import decide
from repro.extensions.broadcast import BroadcastMachine, WeakBroadcast, response_from_mapping
from repro.extensions.broadcast_sim import (
    compile_broadcasts,
    is_phase_state,
    make_phase_state,
    phase_of,
    simulated_state,
    trigger_of,
)
from repro.extensions.generalized import project_run
from repro.workloads import EngineOptions, MachineWorkload


@pytest.fixture
def ab():
    return Alphabet.of("a", "b")


def example_4_6(ab) -> BroadcastMachine:
    """The dAF automaton with weak broadcasts of Example 4.6."""

    def delta(state, neighborhood):
        if state == "x" and neighborhood.has("a"):
            return "a"
        return state

    return BroadcastMachine(
        alphabet=ab,
        beta=1,
        init=lambda label: "a" if label == "a" else "b",
        delta=delta,
        broadcasts={
            "a": WeakBroadcast("a", "a", response_from_mapping({"x": "a"}), "a-bc"),
            "b": WeakBroadcast("b", "b", response_from_mapping({"b": "a", "a": "x"}), "b-bc"),
        },
        accepting={"a"},
        rejecting={"b", "x"},
        name="example-4.6",
    )


class TestBroadcastSemantics:
    def test_broadcast_step_single_initiator(self, ab):
        machine = example_4_6(ab)
        g = line_graph(ab, ["b", "a", "a", "a", "b"])
        config = machine.initial_configuration(g)
        after = machine.broadcast_step(config, [0])
        # Initiator 0 stays 'b'; everyone else applies {b↦a, a↦x}.
        assert after == ("b", "x", "x", "x", "a")

    def test_broadcast_step_multiple_initiators(self, ab):
        machine = example_4_6(ab)
        g = line_graph(ab, ["b", "a", "a", "a", "b"])
        config = machine.initial_configuration(g)
        # Both ends broadcast; every middle node receives exactly one of the
        # two (identical) b-signals and reacts with {b↦a, a↦x}.
        after = machine.broadcast_step(config, [0, 4], signal_of={1: 0, 2: 0, 3: 4})
        assert after[0] == "b" and after[4] == "b"
        assert after[1:4] == ("x", "x", "x")

    def test_initiating_states_skip_neighbourhood_steps(self, ab):
        machine = example_4_6(ab)
        g = line_graph(ab, ["b", "a", "a"])
        config = machine.initial_configuration(g)
        assert machine.neighborhood_step(g, config, 0) == config

    def test_broadcast_step_validates_initiators(self, ab):
        machine = example_4_6(ab)
        g = line_graph(ab, ["b", "a", "a"])
        config = ("x", "a", "a")
        with pytest.raises(ValueError):
            machine.broadcast_step(config, [0])  # 'x' is not broadcast-initiating

    def test_successors_contains_both_kinds_of_steps(self, ab):
        machine = example_4_6(ab)
        g = line_graph(ab, ["b", "a", "a"])
        config = ("b", "x", "a")
        succ = machine.successors(g, config)
        assert any(s[1] == "a" for s in succ)  # neighbourhood transition x→a
        assert len(succ) >= 2

    def test_successors_enumerate_every_initiator_set(self, ab):
        # Seven pairwise independent initiating leaves: every one of the
        # 2^7 - 1 non-empty initiator sets gives its own successor, so the
        # exact decision sees the whole reachable space.
        from repro.constructions.threshold_daf import threshold_broadcast_machine

        machine = threshold_broadcast_machine(ab, "a", 2)
        g = star_graph(ab, "b", ["a"] * 7)
        assert len(machine.successors(g, machine.initial_configuration(g))) == 127

    @pytest.mark.parametrize("example", ["example-4.6", "threshold-2"])
    def test_successors_equal_every_signal_assignment(self, ab, example):
        # Brute force: every independent initiator set and every map of the
        # other nodes to an initiator whose signal they receive.
        from repro.constructions.threshold_daf import threshold_broadcast_machine
        from repro.extensions.broadcast import _independent_subsets

        if example == "example-4.6":
            machine = example_4_6(ab)
        else:
            machine = threshold_broadcast_machine(ab, "a", 2)

        def brute_force(g, configuration):
            result = {machine.neighborhood_step(g, configuration, v) for v in g.nodes()}
            result.discard(configuration)
            initiating = [v for v in g.nodes() if machine.is_initiating(configuration[v])]
            for initiators in _independent_subsets(g, initiating):
                others = [v for v in g.nodes() if v not in initiators]
                for sources in itertools.product(initiators, repeat=len(others)):
                    signal_of = dict(zip(others, sources))
                    result.add(machine.broadcast_step(configuration, initiators, signal_of))
            return sorted(result, key=repr) or [configuration]

        checked = 0
        for n in (3, 4):
            for labels in itertools.product("ab", repeat=n):
                for make in (line_graph, cycle_graph):
                    g = make(ab, list(labels))
                    seen = {machine.initial_configuration(g)}
                    pending = list(seen)
                    while pending:
                        configuration = pending.pop()
                        successors = machine.successors(g, configuration)
                        assert successors == brute_force(g, configuration), configuration
                        checked += 1
                        for nxt in successors:
                            if nxt not in seen:
                                seen.add(nxt)
                                pending.append(nxt)
        assert checked > 100

    def test_deadlock_successor_is_the_configuration(self, ab):
        machine = example_4_6(ab)
        g = line_graph(ab, ["b", "a", "a"])
        assert machine.successors(g, ("x", "x", "x")) == [("x", "x", "x")]


class TestThresholdBroadcastProtocol:
    def test_exact_decision_at_broadcast_level(self, ab):
        from repro.constructions.threshold_daf import threshold_broadcast_machine

        machine = threshold_broadcast_machine(ab, "a", 2)
        assert machine.decide_pseudo_stochastic(cycle_graph(ab, ["a", "a", "b"])) is Verdict.ACCEPT
        assert machine.decide_pseudo_stochastic(cycle_graph(ab, ["a", "b", "b"])) is Verdict.REJECT

    def test_seven_leaf_star_decides(self, ab):
        # 254 reachable configurations.  Initiators in one state send one
        # signal, so the successors must not enumerate every assignment of
        # the 2 to 7 initiators to the other nodes.
        from repro.constructions.threshold_daf import threshold_broadcast_machine

        machine = threshold_broadcast_machine(ab, "a", 2)
        g = star_graph(ab, "b", ["a"] * 7)
        assert machine.decide_pseudo_stochastic(g) is Verdict.ACCEPT


class TestCompilation:
    @pytest.mark.parametrize("max_n", [4, pytest.param(5, marks=pytest.mark.slow)])
    def test_threshold_compilation_decides_every_small_line_and_cycle(self, ab, max_n):
        # The compiled threshold machine's exact verdict is x_a >= k on every
        # line and cycle with at most max_n nodes.  Without rule 3's
        # no-phase-2 guard, waves recirculate and 14 (n <= 4) and 34
        # (n <= 5) of these graphs are decided wrongly.
        from repro.constructions.threshold_daf import threshold_daf_machine
        from repro.core.verification import decide_pseudo_stochastic

        wrong = []
        for k in (1, 2, 3):
            machine = threshold_daf_machine(ab, "a", k)
            for n in range(1, max_n + 1):
                for labels in itertools.product("ab", repeat=n):
                    for make in (line_graph, cycle_graph) if n >= 3 else (line_graph,):
                        verdict = decide_pseudo_stochastic(
                            machine, make(ab, list(labels)), max_configurations=200_000
                        ).verdict
                        if verdict is not Verdict.of(labels.count("a") >= k):
                            wrong.append((k, make.__name__, "".join(labels)))
        assert wrong == []

    def test_phase_state_helpers(self, ab):
        machine = compile_broadcasts(example_4_6(ab))
        initial = machine.initial_state("a")
        assert phase_of(initial) == 0
        assert not is_phase_state(initial)
        assert simulated_state(initial) == "a"

    def test_compiled_machine_preserves_counting_bound(self, ab):
        compiled = compile_broadcasts(example_4_6(ab))
        assert compiled.beta == 1  # Lemma 4.7 preserves the class (here: non-counting)

    def test_compiled_threshold_decides_exactly(self, ab):
        """Integration: Lemma C.5 + Lemma 4.7 give a plain dAF threshold automaton."""
        from repro.constructions.threshold_daf import threshold_daf_automaton

        auto = threshold_daf_automaton(ab, "a", 2)
        assert auto.machine.beta == 1
        assert decide(auto, cycle_graph(ab, ["a", "a", "b"]), max_configurations=400_000).verdict is Verdict.ACCEPT
        assert decide(auto, cycle_graph(ab, ["a", "b", "b"]), max_configurations=400_000).verdict is Verdict.REJECT
        assert decide(auto, star_graph(ab, "b", ["a", "a", "b"]), max_configurations=400_000).verdict is Verdict.ACCEPT

    def test_compiled_run_projects_to_base_configurations(self, ab):
        """Every all-phase-0 snapshot of the compiled run is a configuration over Q."""
        machine = example_4_6(ab)
        compiled = compile_broadcasts(machine)
        g = line_graph(ab, ["b", "a", "a", "a", "b"])
        options = EngineOptions(max_steps=400, stability_window=400, record_trace=True)
        result = MachineWorkload(compiled, g, options).run(9)
        projected = project_run(result.trace, lambda s: not is_phase_state(s))
        assert projected, "the run should pass through phase-0 snapshots"
        base_states = {"a", "b", "x"}
        for configuration in projected:
            assert set(configuration) <= base_states


class TestOnePassPhaseClassification:
    """The compiled δ classifies its neighbours' phases in one pass; it must
    agree with the three-scan δ it replaced on every small view."""

    @staticmethod
    def three_scan_delta(machine, state, neighborhood):
        """The Lemma 4.7 δ as written with three ``phase_of`` scans."""
        neighbour_states = neighborhood.states()
        has_phase1 = any(phase_of(s) == 1 for s in neighbour_states)
        has_phase2 = any(phase_of(s) == 2 for s in neighbour_states)
        has_phase0 = any(phase_of(s) == 0 for s in neighbour_states)
        phase = phase_of(state)
        if phase == 0:
            if not has_phase1 and not has_phase2:
                if machine.is_initiating(state):
                    return make_phase_state(1, machine.broadcasts[state].new_state, state)
                counts = {s: c for s, c in neighborhood.items() if not is_phase_state(s)}
                return machine.delta(
                    state, Neighborhood(counts, machine.beta, total=neighborhood.degree)
                )
            if has_phase1 and not has_phase2:
                trigger = sorted(
                    (trigger_of(s) for s in neighbour_states if phase_of(s) == 1),
                    key=repr,
                )[0]
                broadcast = machine.broadcasts[trigger]
                return make_phase_state(1, broadcast.apply_response(state), trigger)
            return state
        if phase == 1:
            if not has_phase0:
                return make_phase_state(2, simulated_state(state), trigger_of(state))
            return state
        if not has_phase1:
            return simulated_state(state)
        return state

    @staticmethod
    def probe_machine(ab, beta) -> BroadcastMachine:
        """Example 4.6's broadcasts over a δ that returns the view it was given."""
        return BroadcastMachine(
            alphabet=ab,
            beta=beta,
            init=lambda label: label,
            delta=lambda state, view: ("saw", state, view.items(), view.degree),
            broadcasts={
                "a": WeakBroadcast("a", "a", response_from_mapping({"x": "a"}), "a-bc"),
                "b": WeakBroadcast("b", "b", response_from_mapping({"b": "a", "a": "x"}), "b-bc"),
            },
            accepting={"a"},
            rejecting={"b", "x"},
        )

    UNIVERSE = (
        # Phase 0: original states, a 4-tuple with another tag, and tuples
        # with the phase tag but the wrong length.
        "a", "b", "x",
        ("#other-tag", 1, "x", "a"),
        ("#broadcast-phase", 1, "x"),
        ("#broadcast-phase", 2, "x", "a", "b"),
        # Phases 1 and 2, each under both triggers.
        make_phase_state(1, "x", "a"),
        make_phase_state(1, "b", "b"),
        make_phase_state(2, "a", "a"),
        make_phase_state(2, "x", "b"),
        # Tagged 4-tuples whose phase field reads 0 (phase 0 to phase_of)
        # and 3 (no phase the rules test for).
        ("#broadcast-phase", 0, "x", "a"),
        ("#broadcast-phase", 3, "x", "b"),
    )

    @pytest.mark.parametrize("beta", [1, 2])
    def test_matches_three_scan_delta_on_every_small_view(self, ab, beta):
        machine = self.probe_machine(ab, beta)
        one_pass = compile_broadcasts(machine).delta
        views = [
            Neighborhood(Counter(multiset), beta)
            for degree in range(4)
            for multiset in itertools.combinations_with_replacement(self.UNIVERSE, degree)
        ]
        assert len(views) == 455
        for state in self.UNIVERSE:
            for view in views:
                expected = self.three_scan_delta(machine, state, view)
                assert one_pass(state, view) == expected, (state, view.items())
