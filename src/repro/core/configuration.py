"""Configurations of a machine on a graph and the successor relation.

A configuration is a mapping ``C : V → Q``.  The successor configuration via
a selection ``S`` is obtained by letting every node of ``S`` evaluate δ
simultaneously on its neighbourhood view while the other nodes stay idle
(Section 2.1).  Because node sets are ``0..n-1`` we represent configurations
as tuples of states, which makes them hashable — the exact decision engine
stores millions of them in hash sets.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.core.graphs import LabeledGraph, Node
from repro.core.machine import DistributedMachine, Neighborhood, Outputs, State

Configuration = tuple[State, ...]
Selection = frozenset[Node]


def initial_configuration(machine: DistributedMachine, graph: LabeledGraph) -> Configuration:
    """The initial configuration ``C0(v) = δ0(λ(v))``."""
    return tuple(machine.initial_state(graph.label_of(v)) for v in graph.nodes())


def neighborhood_of(
    machine: DistributedMachine,
    graph: LabeledGraph,
    configuration: Configuration,
    node: Node,
) -> Neighborhood:
    """The neighbourhood function ``N^C_v`` (counts capped at β)."""
    counts: dict[State, int] = {}
    for neighbour in graph.neighbors(node):
        state = configuration[neighbour]
        counts[state] = counts.get(state, 0) + 1
    return Neighborhood(counts, machine.beta, total=graph.degree(node))


def successor(
    machine: DistributedMachine,
    graph: LabeledGraph,
    configuration: Configuration,
    selection: Iterable[Node],
) -> Configuration:
    """``succ_δ(C, S)``: all selected nodes step simultaneously."""
    selected = set(selection)
    new_states = list(configuration)
    for node in selected:
        neighborhood = neighborhood_of(machine, graph, configuration, node)
        new_states[node] = machine.step(configuration[node], neighborhood)
    return tuple(new_states)


def synchronous_trace(
    machine: DistributedMachine, graph: LabeledGraph, steps: int
) -> list[Configuration]:
    """The (unique) synchronous run prefix of length ``steps``.

    The synchronous run is the workhorse of several lower-bound arguments
    (Lemmas 3.2, 3.4, Prop. D.1): under adversarial fairness it is a fair
    run, and on covering pairs / cliques / extended lines it proceeds in
    lock-step.
    """
    configuration = initial_configuration(machine, graph)
    everyone = frozenset(graph.nodes())
    trace = [configuration]
    for _ in range(steps):
        configuration = successor(machine, graph, configuration, everyone)
        trace.append(configuration)
    return trace


def enabled_nodes(
    machine: DistributedMachine, graph: LabeledGraph, configuration: Configuration
) -> list[Node]:
    """Nodes whose individual selection would change the configuration.

    A configuration with no enabled node is a fixed point under every
    selection.
    """
    enabled = []
    for node in graph.nodes():
        neighborhood = neighborhood_of(machine, graph, configuration, node)
        if machine.step(configuration[node], neighborhood) != configuration[node]:
            enabled.append(node)
    return enabled


def is_accepting_configuration(machine: Outputs, configuration: Configuration) -> bool:
    """All nodes in accepting states."""
    return all(machine.is_accepting(state) for state in configuration)


def is_rejecting_configuration(machine: Outputs, configuration: Configuration) -> bool:
    """All nodes in rejecting states."""
    return all(machine.is_rejecting(state) for state in configuration)


def consensus_value(machine: Outputs, configuration: Configuration) -> bool | None:
    """``True`` if the configuration is an accepting consensus, ``False`` if
    rejecting, ``None`` otherwise."""
    if is_accepting_configuration(machine, configuration):
        return True
    if is_rejecting_configuration(machine, configuration):
        return False
    return None


def configuration_from_counts(counts: dict[State, int]) -> Configuration:
    """A canonical per-node configuration with the given state counts.

    Nodes are assigned states in sorted (``repr``) order, so the result is a
    deterministic representative of the count vector.  Node identities are
    not preserved — consensus values, verdicts and count-level observables
    are, which is all the count-based backend reports.
    """
    states: list[State] = []
    for state, count in sorted(counts.items(), key=lambda item: repr(item[0])):
        if count < 0:
            raise ValueError("state counts cannot be negative")
        states.extend([state] * count)
    return tuple(states)


def consensus_of_counts(machine: Outputs, counts: dict[State, int]) -> bool | None:
    """:func:`consensus_value` evaluated on a count vector in O(|states|).

    Mirrors :func:`consensus_value` exactly, including its accept-first
    tie-break when every occupied state is both accepting and rejecting
    (machines do not validate disjointness of the two predicates).
    """
    accepting = True
    rejecting = True
    for state, count in counts.items():
        if count <= 0:
            continue
        if not machine.is_accepting(state):
            accepting = False
        if not machine.is_rejecting(state):
            rejecting = False
        if not accepting and not rejecting:
            return None
    if accepting:
        return True
    if rejecting:
        return False
    return None


def run_prefix(
    machine: DistributedMachine,
    graph: LabeledGraph,
    selections: Sequence[Iterable[Node]],
    start: Configuration | None = None,
) -> list[Configuration]:
    """The finite prefix of the run scheduled by ``selections``.

    Returns the list ``[C0, C1, ..., C_T]`` with ``T = len(selections)``.
    """
    configuration = start if start is not None else initial_configuration(machine, graph)
    trace = [configuration]
    for selection in selections:
        configuration = successor(machine, graph, configuration, selection)
        trace.append(configuration)
    return trace
