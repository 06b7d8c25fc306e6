"""Distributed machines with weak broadcasts (Definition 4.5).

A weak broadcast transition ``q ↦ r, f`` lets an *initiator* in state ``q``
move to ``r`` while every other agent reacts by applying the response
function ``f`` — except that several broadcasts may be initiated at the same
time, in which case every non-initiator receives exactly one of the signals
(chosen by the scheduler).  Weak broadcasts are the paper's main tool for the
upper-bound constructions: dAF threshold automata (Lemma C.5), the DAF token
construction (Lemma 5.1) and the bounded-degree doubling protocol (§6.1) are
all written with them and then compiled away using Lemma 4.7
(:mod:`repro.extensions.broadcast_sim`).

This module implements the extended model itself: the data structure and
its operational semantics (neighbourhood steps and weak-broadcast steps with
an adversarially chosen signal assignment, enumerated in full by
:meth:`BroadcastMachine.successors`).  The exact decision under
pseudo-stochastic fairness is
:class:`~repro.core.verification.AtomicModel`'s bottom-SCC analysis over
those successors.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from itertools import product

from repro.core.configuration import Configuration, neighborhood_of
from repro.core.graphs import LabeledGraph, Node
from repro.core.labels import Alphabet, Label
from repro.core.machine import Neighborhood, State
from repro.core.verification import AtomicModel


ResponseFunction = Callable[[State], State]


@dataclass(frozen=True)
class WeakBroadcast:
    """A weak broadcast transition ``q ↦ new_state, response``."""

    trigger: State
    new_state: State
    response: ResponseFunction
    name: str = ""

    def apply_response(self, state: State) -> State:
        return self.response(state)


@dataclass
class BroadcastMachine(AtomicModel):
    """A distributed machine extended with weak broadcast transitions.

    ``broadcasts`` maps each broadcast-initiating state to its (unique) weak
    broadcast, following the paper's convention that ``B`` maps ``Q_B`` into
    ``Q × Q^Q``.  Neighbourhood transitions are given by ``delta`` exactly as
    for plain machines; agents in a broadcast-initiating state never execute
    neighbourhood transitions (Definition 4.5 removes them from the
    selection).
    """

    alphabet: Alphabet
    beta: int
    init: Callable[[Label], State]
    delta: Callable[[State, Neighborhood], State]
    broadcasts: Mapping[State, WeakBroadcast]
    accepting: Iterable[State] | Callable[[State], bool] | None = None
    rejecting: Iterable[State] | Callable[[State], bool] | None = None
    name: str = "broadcast-machine"

    def __post_init__(self) -> None:
        super().__post_init__()
        for trigger, broadcast in self.broadcasts.items():
            if broadcast.trigger != trigger:
                raise ValueError(
                    f"broadcast registered under {trigger!r} has trigger {broadcast.trigger!r}"
                )

    # ------------------------------------------------------------------ #
    def is_initiating(self, state: State) -> bool:
        return state in self.broadcasts

    # ------------------------------------------------------------------ #
    # Operational semantics
    # ------------------------------------------------------------------ #
    def neighborhood_step(
        self, graph: LabeledGraph, configuration: Configuration, node: Node
    ) -> Configuration:
        """One neighbourhood transition of a single (non-initiating) node.

        Following Definition 4.5, nodes currently in a broadcast-initiating
        state are removed from the selection, so asking them to do a
        neighbourhood step is a no-op.
        """
        state = configuration[node]
        if self.is_initiating(state):
            return configuration
        new_state = self.delta(state, neighborhood_of(self, graph, configuration, node))
        if new_state == state:
            return configuration
        updated = list(configuration)
        updated[node] = new_state
        return tuple(updated)

    def broadcast_step(
        self,
        configuration: Configuration,
        initiators: Iterable[Node],
        signal_of: Mapping[Node, Node] | None = None,
    ) -> Configuration:
        """One weak-broadcast step.

        ``initiators`` is the set of nodes initiating (all must currently be
        in a broadcast-initiating state); ``signal_of`` maps every
        non-initiator to the initiator whose signal it receives.  When
        ``signal_of`` is ``None`` every non-initiator receives the signal of
        the first initiator (lowest node id) — the deterministic choice used
        by the synchronous experiments; the exact decision procedure
        enumerates all assignments instead.
        """
        initiator_list = sorted(set(initiators))
        if not initiator_list:
            return configuration
        for node in initiator_list:
            if not self.is_initiating(configuration[node]):
                raise ValueError(f"node {node} is not in a broadcast-initiating state")
        updated = list(configuration)
        for node in initiator_list:
            updated[node] = self.broadcasts[configuration[node]].new_state
        for node in range(len(configuration)):
            if node in initiator_list:
                continue
            source = initiator_list[0] if signal_of is None else signal_of[node]
            broadcast = self.broadcasts[configuration[source]]
            updated[node] = broadcast.apply_response(configuration[node])
        return tuple(updated)

    def successors(
        self, graph: LabeledGraph, configuration: Configuration
    ) -> list[Configuration]:
        """All successor configurations (used by the exact decision procedure).

        Successors consist of all single-node neighbourhood steps plus all
        weak-broadcast steps over every non-empty independent set of
        initiating nodes and every assignment of signals to non-initiators;
        ``[configuration]`` at a deadlock.  A non-initiator can only end in
        one of the distinct responses of the distinct broadcasts of the
        initiator set, so the assignments are enumerated as a product over
        those.  The enumeration is exponential in the number of initiators;
        ``max_configurations`` of the decision bounds the exploration.
        """
        result: set[Configuration] = set()
        for node in graph.nodes():
            nxt = self.neighborhood_step(graph, configuration, node)
            if nxt != configuration:
                result.add(nxt)
        initiating_nodes = [
            v for v in graph.nodes() if self.is_initiating(configuration[v])
        ]
        for initiator_set in _independent_subsets(graph, initiating_nodes):
            signals = [self.broadcasts[q] for q in {configuration[v] for v in initiator_set}]
            result.update(product(*(
                (self.broadcasts[state].new_state,) if v in initiator_set
                else {broadcast.apply_response(state) for broadcast in signals}
                for v, state in enumerate(configuration)
            )))
        return sorted(result, key=repr) or [configuration]


# ---------------------------------------------------------------------- #
# Helpers
# ---------------------------------------------------------------------- #
def _independent_subsets(graph: LabeledGraph, candidates: list[Node]) -> list[list[Node]]:
    """All non-empty independent subsets of ``candidates``."""
    subsets: list[list[Node]] = []

    def extend(index: int, chosen: list[Node]) -> None:
        if index == len(candidates):
            if chosen:
                subsets.append(list(chosen))
            return
        node = candidates[index]
        if all(not graph.has_edge(node, other) for other in chosen):
            chosen.append(node)
            extend(index + 1, chosen)
            chosen.pop()
        extend(index + 1, chosen)

    extend(0, [])
    return subsets


def response_from_mapping(mapping: Mapping[State, State]) -> ResponseFunction:
    """Build a response function from a partial mapping; unmapped states stay put.

    Matches the paper's notation ``f = {r ↦ f(r)}`` where identity mappings
    may be omitted.
    """
    table = dict(mapping)

    def response(state: State) -> State:
        return table.get(state, state)

    return response
