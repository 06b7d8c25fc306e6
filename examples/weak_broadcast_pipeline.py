"""Example 4.6 and the Lemma 4.7 compilation pipeline.

The example builds the weak-broadcast automaton of Example 4.6, replays a run
on the five-node line of Figure 2, compiles the broadcasts away with the
three-phase construction of Lemma 4.7, and shows that the compiled run passes
through exactly the phase-0 snapshots that constitute a run of the original
automaton (the "extension" relation of Definition 4.1).

Run with:  python examples/weak_broadcast_pipeline.py
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


def example_4_6(alphabet: Alphabet) -> BroadcastMachine:
    def delta(state, neighborhood):
        if state == "x" and neighborhood.has("a"):
            return "a"
        return state

    return BroadcastMachine(
        alphabet=alphabet,
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


def main() -> None:
    alphabet = Alphabet.of("a", "b")
    machine = example_4_6(alphabet)
    line = line_graph(alphabet, ["b", "a", "a", "a", "b"], name="five-node line (Fig. 2)")

    print("-- One run of the weak-broadcast automaton (extended model) --")
    config = machine.initial_configuration(line)
    print(f"t=0  {config}")
    config = machine.broadcast_step(config, [0, 4], signal_of={1: 0, 2: 0, 3: 4})
    print(f"t=1  {config}   (both end nodes broadcast simultaneously)")
    config = machine.neighborhood_step(line, config, 2)
    print(f"t=2  {config}   (middle node reacts to an 'a' neighbour)")

    print("\n-- Lemma 4.7: compile the broadcasts into a plain automaton --")
    compiled = compile_broadcasts(machine)
    options = EngineOptions(max_steps=600, stability_window=600, record_trace=True)
    result = MachineWorkload(compiled, line, options).run(seed=7)
    phase0_snapshots = project_run(result.trace, lambda s: not is_phase_state(s))
    print(f"compiled run: {result.steps} steps, "
          f"{len(phase0_snapshots)} all-phase-0 snapshots (a run of the original model)")
    for index, snapshot in enumerate(phase0_snapshots[:6]):
        print(f"  snapshot {index}: {snapshot}")
    intermediate = sum(
        1 for configuration in result.trace for s in configuration if is_phase_state(s)
    )
    print(f"intermediate (phase 1/2) node-states observed along the run: {intermediate}")


if __name__ == "__main__":
    main()
