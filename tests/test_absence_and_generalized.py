"""Tests for weak absence detection, its bounded-degree simulation, and run relations."""

from __future__ import annotations

import random

import pytest

from repro.core.graphs import cycle_graph, line_graph
from repro.core.labels import Alphabet
from repro.core.machine import Neighborhood
from repro.core.results import Verdict
from repro.extensions.absence import (
    AbsenceDetectionMachine,
    global_support,
    random_partition_support,
)
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


def support_probe_machine(ab) -> AbsenceDetectionMachine:
    """A DA$-machine in which one probe agent asks "does any 'b' exist?".

    Nodes carrying label ``a`` start as probes (initiating states); the
    detection transition sends them to an accepting or rejecting verdict
    depending on whether the observed support contains a ``b`` marker.
    Non-probe agents idle in the marker state of their label.
    """

    def init(label):
        return ("probe", None) if label == "a" else ("mark", label)

    def delta(state, neighborhood):
        return state

    def initiating(state):
        return isinstance(state, tuple) and state[0] == "probe"

    def detect(state, support):
        has_b = any(s == ("mark", "b") for s in support)
        return ("verdict", not has_b)

    def accepting(state):
        return state == ("verdict", True)

    def rejecting(state):
        return state == ("verdict", False) or (isinstance(state, tuple) and state[0] == "mark")

    return AbsenceDetectionMachine(
        alphabet=ab, beta=2, init=init, delta=delta,
        initiating=initiating, detect=detect,
        accepting=accepting, rejecting=rejecting, name="probe",
    )


class TestAbsenceDetectionModel:
    def test_global_support_observation(self, ab):
        machine = support_probe_machine(ab)
        g = cycle_graph(ab, ["a", "b", "b"])
        config = machine.initial_configuration(g)
        after = machine.synchronous_step(g, config, strategy=global_support)
        assert after[0] == ("verdict", False)  # a 'b' exists somewhere

    def test_no_b_means_true_verdict(self, ab):
        machine = support_probe_machine(ab)
        g = cycle_graph(ab, ["a", "a", "a"])
        config = machine.initial_configuration(g)
        after = machine.synchronous_step(g, config)
        assert all(state == ("verdict", True) or state[0] == "probe" for state in after) or (
            ("verdict", True) in after
        )

    def test_hang_without_initiators(self, ab):
        machine = support_probe_machine(ab)
        g = cycle_graph(ab, ["b", "b", "b"])
        config = machine.initial_configuration(g)
        assert machine.synchronous_step(g, config) == config

    def test_random_partition_strategy_covers_everyone(self, ab):
        rng = random.Random(0)
        configuration = ("s0", "s1", "s2", "s3")
        observed = random_partition_support(configuration, [0, 2], rng)
        assert set(observed) == {0, 2}
        union = set().union(*observed.values())
        assert union == set(configuration)

    def test_run_detects_consensus(self, ab):
        machine = support_probe_machine(ab)
        verdict, _, _ = machine.run(cycle_graph(ab, ["a", "b", "b"]))
        assert verdict is Verdict.REJECT


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
        assert any(simulated_state(s) == ("verdict", False) for s in probe_states)


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
