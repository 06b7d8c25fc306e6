"""Figure 2: runs, extensions and reorderings of the Example 4.6 automaton.

The benchmark replays the three panels of Figure 2 on the five-node line:
(a) a run of the weak-broadcast automaton with two simultaneous broadcasts,
(b) an extension of that run produced by the compiled (Lemma 4.7) automaton,
(c) the projection of the compiled run back onto phase-0 snapshots, i.e. the
run it extends.  It measures the step overhead of the three-phase encoding.
"""

from __future__ import annotations

from repro.core import Alphabet, line_graph
from repro.extensions import (
    BroadcastMachine,
    WeakBroadcast,
    compile_broadcasts,
    is_phase_state,
    project_run,
    response_from_mapping,
)
from repro.workloads import EngineOptions, MachineWorkload


def example_4_6(ab: Alphabet) -> BroadcastMachine:
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


def test_example_run_and_extension(benchmark, ab):
    machine = example_4_6(ab)
    line = line_graph(ab, ["b", "a", "a", "a", "b"])
    compiled = compile_broadcasts(machine)

    def run():
        # Panel (a): one extended-model run prefix with simultaneous broadcasts.
        config = machine.initial_configuration(line)
        extended_model_prefix = [config]
        config = machine.broadcast_step(config, [0, 4], signal_of={1: 0, 2: 0, 3: 4})
        extended_model_prefix.append(config)
        config = machine.neighborhood_step(line, config, 2)
        extended_model_prefix.append(config)
        # Panels (b)/(c): the compiled automaton's run and its phase-0 projection.
        options = EngineOptions(max_steps=800, stability_window=800, record_trace=True)
        result = MachineWorkload(compiled, line, options).run(seed=7)
        snapshots = project_run(result.trace, lambda s: not is_phase_state(s))
        return extended_model_prefix, result.steps, snapshots

    prefix, compiled_steps, snapshots = benchmark(run)
    assert prefix[1] == ("b", "x", "x", "x", "b")
    assert len(snapshots) >= 1
    base_states = {"a", "b", "x"}
    assert all(set(configuration) <= base_states for configuration in snapshots)
    overhead = compiled_steps / max(1, len(snapshots) - 1) if len(snapshots) > 1 else float("inf")
    print(f"\n[Figure 2] compiled run: {compiled_steps} exclusive steps, "
          f"{len(snapshots)} phase-0 snapshots "
          f"(≈{overhead:.1f} compiled steps per simulated configuration change)"
          if overhead != float('inf') else
          f"\n[Figure 2] compiled run: {compiled_steps} steps, {len(snapshots)} snapshots")
