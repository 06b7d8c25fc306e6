"""Tests for weak absence detection, its bounded-degree simulation, and run relations."""

from __future__ import annotations

import itertools

import pytest

from repro.core.configuration import neighborhood_of
from repro.core.graphs import cycle_graph, line_graph
from repro.core.labels import Alphabet
from repro.core.results import Verdict
from repro.core.verification import decide_pseudo_stochastic
from repro.extensions.absence import AbsenceDetectionMachine, support_probe_machine
from repro.extensions.absence_sim import compile_absence_detection, phase_of, simulated_state
from repro.extensions.generalized import (
    configurations_agree_on_q,
    is_extension,
    is_valid_reordering,
    non_silent_steps,
    project_run,
)
from repro.workloads import EngineOptions, MachineWorkload


@pytest.fixture
def ab():
    return Alphabet.of("a", "b")


def observer_machine(ab) -> AbsenceDetectionMachine:
    """Agents labelled ``a`` initiate and turn into the set of states they
    observe; ``b`` agents idle as ``"m"``, and δ moves ``"x"`` to ``"m"``."""
    return AbsenceDetectionMachine(
        alphabet=ab,
        beta=1,
        init=lambda label: "p" if label == "a" else "m",
        delta=lambda state, neighborhood: "m" if state == "x" else state,
        initiating=lambda state: state == "p",
        detect=lambda state, support: support,
        name="observer",
    )


def small_lines_and_cycles(ab, max_n):
    for n in range(3, max_n + 1):
        for labels in itertools.product("ab", repeat=n):
            if "a" in labels:
                for make in (line_graph, cycle_graph):
                    yield make(ab, list(labels)), "b" not in labels


class TestAbsenceDetectionModel:
    def test_hang_without_initiators(self, ab):
        # No agent lands in an initiating state: the step hangs and the
        # neighbourhood transition x -> m is discarded with it.
        machine = observer_machine(ab)
        g = cycle_graph(ab, ["b", "b", "b"])
        assert machine.successors(g, ("x", "m", "m")) == [("x", "m", "m")]

    def test_observed_sets_cover_the_support(self, ab):
        # Two probes around one marker: each sees {p} or {p, m}, and the
        # family where neither sees the marker does not cover the support.
        machine = observer_machine(ab)
        g = line_graph(ab, ["a", "b", "a"])
        p, pm = frozenset({"p"}), frozenset({"p", "m"})
        assert set(machine.successors(g, machine.initial_configuration(g))) == {
            (pm, "m", p),
            (p, "m", pm),
            (pm, "m", pm),
        }

    def test_observations_follow_the_neighbourhood_step(self, ab):
        # δ turns x into m before the detection, so m is what the probe sees.
        machine = observer_machine(ab)
        g = line_graph(ab, ["a", "b"])
        assert machine.successors(g, ("p", "x")) == [(frozenset({"p", "m"}), "m")]

    def test_observation_contains_the_initiators_own_state(self, ab):
        machine = observer_machine(ab)
        g = line_graph(ab, ["a", "b", "b", "a"])
        configuration = ("p", "m", "m", "p")
        successors = machine.successors(g, configuration)
        assert len(successors) == 3
        for successor in successors:
            assert "p" in successor[0] and "p" in successor[3]

    @pytest.mark.parametrize("example", ["observer", "probe"])
    def test_successors_equal_every_covering_family_of_agent_subsets(self, ab, example):
        # Definition 4.8 directly: every initiator v observes the states of
        # some agent set S_v containing v, and the sets S_v cover all agents.
        machine = observer_machine(ab) if example == "observer" else support_probe_machine(ab)

        def brute_force(g, configuration):
            intermediate = tuple(
                machine.delta(configuration[v], neighborhood_of(machine, g, configuration, v))
                for v in g.nodes()
            )
            initiators = [v for v in g.nodes() if machine.initiating(intermediate[v])]
            if not initiators:
                return [configuration]
            agents = list(g.nodes())
            choices = [
                [{v, *extra} for size in range(len(agents)) for extra in
                 itertools.combinations([u for u in agents if u != v], size)]
                for v in initiators
            ]
            result = set()
            for family in itertools.product(*choices):
                if set().union(*family) == set(agents):
                    final = list(intermediate)
                    for v, agents_seen in zip(initiators, family):
                        observed = frozenset(intermediate[u] for u in agents_seen)
                        final[v] = machine.detect(intermediate[v], observed)
                    result.add(tuple(final))
            return sorted(result, key=repr)

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
        assert checked > 50

    def test_probe_answers(self, ab):
        machine = support_probe_machine(ab)
        g = cycle_graph(ab, ["a", "b", "b"])
        assert machine.successors(g, machine.initial_configuration(g)) == [
            (("probe", False), ("mark", "b"), ("mark", "b"))
        ]
        g = cycle_graph(ab, ["a", "a", "a"])
        assert machine.successors(g, machine.initial_configuration(g)) == [
            (("probe", True),) * 3
        ]

    def test_exact_decision_on_small_lines_and_cycles(self, ab):
        # A probe may answer "no b" after a partial observation, so it must
        # keep detecting, and a False answer must spread to the other probes.
        machine = support_probe_machine(ab)
        compiled = compile_absence_detection(machine, degree_bound=2)
        wrong = []
        for g, no_b in small_lines_and_cycles(ab, 6):
            expected = Verdict.of(no_b)
            atomic = machine.decide_pseudo_stochastic(g)
            simulated = decide_pseudo_stochastic(compiled, g).verdict
            if (atomic, simulated) != (expected, expected):
                wrong.append((g, atomic, simulated))
        assert wrong == []


class TestAbsenceSimulation:
    def test_compiled_machine_phases(self, ab):
        machine = support_probe_machine(ab)
        compiled = compile_absence_detection(machine, degree_bound=2)
        initial = compiled.initial_state("a")
        assert phase_of(initial) == 0
        assert simulated_state(initial) == ("probe", None)

    def test_compiled_machine_reaches_detection_verdict(self, ab):
        """The compiled DAf machine reproduces the absence-detection outcome.

        On a cycle with one probe and two markers, running the compiled
        machine under a fair random schedule must eventually put the probe
        node into the same verdict the extended model produces synchronously.
        """
        machine = support_probe_machine(ab)
        compiled = compile_absence_detection(machine, degree_bound=2)
        g = cycle_graph(ab, ["a", "b", "b"])
        options = EngineOptions(max_steps=5_000, stability_window=300, record_trace=True)
        result = MachineWorkload(compiled, g, options).run(4)
        probe_states = {trace_config[0] for trace_config in result.trace}
        assert any(simulated_state(s) == ("probe", False) for s in probe_states)


class TestRunRelations:
    def test_agreement_relation(self):
        is_original = lambda s: not str(s).startswith("#")  # noqa: E731
        assert configurations_agree_on_q(("a", "#x"), ("a", "b"), is_original)
        assert not configurations_agree_on_q(("a", "b"), ("b", "b"), is_original)

    def test_non_silent_steps(self):
        run = [("a",), ("a",), ("b",), ("b",), ("c",)]
        assert non_silent_steps(run) == [1, 3]

    def test_project_run_collapses_intermediates(self):
        is_original = lambda s: not str(s).startswith("#")  # noqa: E731
        run = [("a", "b"), ("a", "#1"), ("a", "c"), ("a", "c"), ("#2", "c")]
        assert project_run(run, is_original) == [("a", "b"), ("a", "c")]

    def test_is_extension_positive(self):
        is_original = lambda s: not str(s).startswith("#")  # noqa: E731
        base = [("a", "b"), ("c", "b")]
        extended = [("a", "b"), ("a", "#m"), ("c", "#m"), ("c", "b")]
        assert is_extension(extended, base, is_original)

    def test_is_extension_negative(self):
        is_original = lambda s: not str(s).startswith("#")  # noqa: E731
        base = [("a", "b"), ("c", "d")]
        extended = [("a", "b"), ("x", "y"), ("c", "d")]
        # The in-between configuration disagrees with both endpoints on Q-states.
        assert not is_extension(extended, base, is_original)

    def test_reordering_validation(self, ab):
        g = line_graph(ab, ["a", "b", "a"])
        original = [0, 2, 1]
        reordered = [2, 0, 1]
        mapping = {0: 1, 1: 0, 2: 2}
        # Nodes 0 and 2 are not adjacent, so swapping their steps is allowed.
        assert is_valid_reordering(g, original, reordered, mapping)

    def test_reordering_rejects_adjacent_swap(self, ab):
        g = line_graph(ab, ["a", "b", "a"])
        original = [0, 1]
        reordered = [1, 0]
        mapping = {0: 1, 1: 0}
        assert not is_valid_reordering(g, original, reordered, mapping)

    def test_reordering_rejects_wrong_node(self, ab):
        g = line_graph(ab, ["a", "b", "a"])
        assert not is_valid_reordering(g, [0, 2], [2, 1], {0: 1, 1: 0})
