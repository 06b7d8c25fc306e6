"""Strong broadcast protocols (the broadcast consensus protocols of [11]).

In a strong broadcast protocol exactly one agent broadcasts per step: the
initiator moves to a new state and *every* other agent applies the response
function.  Blondin, Esparza and Jaax show these protocols decide exactly the
predicates in NL; Lemma 5.1 uses them as the source model of the DAF = NL
characterisation, simulating strong broadcasts with weak ones via the token
construction (:mod:`repro.constructions.nl_automaton`).

The module provides the model, an atomic model
(:class:`~repro.core.verification.AtomicModel`) with exact decision under
pseudo-stochastic fairness (the graph is irrelevant for strong broadcasts —
every agent hears every broadcast — so configurations are effectively
multisets, but we keep them per-node to stay uniform with the rest of the
library), plus two stock
protocols used in the experiments: threshold counting with a leader, and
majority by repeated cancel-and-rebroadcast.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass

from repro.core.configuration import Configuration
from repro.core.graphs import LabeledGraph
from repro.core.labels import Alphabet, Label
from repro.core.verification import AtomicModel

State = object


@dataclass(frozen=True)
class StrongBroadcast:
    """A broadcast ``q ↦ new_state, response`` executed atomically by one agent."""

    trigger: State
    new_state: State
    response: Callable[[State], State]


@dataclass
class StrongBroadcastProtocol(AtomicModel):
    """A protocol whose only transitions are strong broadcasts."""

    alphabet: Alphabet
    init: Callable[[Label], State]
    broadcasts: Mapping[State, StrongBroadcast]
    accepting: Iterable[State] | Callable[[State], bool] | None = None
    rejecting: Iterable[State] | Callable[[State], bool] | None = None
    name: str = "strong-broadcast-protocol"

    def broadcast(self, configuration: Configuration, node: int) -> Configuration:
        """Agent ``node`` broadcasts (if its state has a broadcast; else silent)."""
        state = configuration[node]
        if state not in self.broadcasts:
            return configuration
        rule = self.broadcasts[state]
        updated = [rule.response(s) for s in configuration]
        updated[node] = rule.new_state
        return tuple(updated)

    def successors(
        self, graph: LabeledGraph, configuration: Configuration
    ) -> list[Configuration]:
        """One broadcast by any agent (the graph plays no part);
        ``[configuration]`` at a deadlock."""
        result = {
            self.broadcast(configuration, node) for node in range(len(configuration))
        }
        result.discard(configuration)
        return sorted(result, key=repr) or [configuration]


# ---------------------------------------------------------------------- #
# Stock protocols
# ---------------------------------------------------------------------- #
def exists_broadcast_protocol(alphabet: Alphabet, label: Label) -> StrongBroadcastProtocol:
    """``x_label ≥ 1`` as a (tiny) strong broadcast protocol.

    A node that starts with the target label broadcasts "accept" once; its
    signal switches every agent to the accepting state.  Used as the minimal
    end-to-end test input for the Lemma 5.1 pipeline.
    """

    def init(node_label: Label) -> State:
        return "hit" if node_label == label else "idle"

    broadcasts = {
        "hit": StrongBroadcast(
            trigger="hit",
            new_state="done",
            response=lambda s: "done",
        )
    }
    return StrongBroadcastProtocol(
        alphabet=alphabet,
        init=init,
        broadcasts=broadcasts,
        accepting={"done", "hit"},
        rejecting={"idle"},
        name=f"strong-exists({label})",
    )


def threshold_broadcast_protocol(
    alphabet: Alphabet, label: Label, k: int
) -> StrongBroadcastProtocol:
    """``x_label ≥ k`` with strong broadcasts (the strong analogue of Lemma C.5).

    Nodes carrying the target label start at level 1, all others at level 0.
    A broadcast by a level-``i`` agent (``i < k``) promotes every *other*
    level-``i`` agent to level ``i+1`` while the initiator stays at ``i``;
    therefore level ``i+1`` is reachable only if at least ``i+1`` agents
    started at level 1.  A level-``k`` agent broadcasts the accept verdict to
    everyone.  Conversely, if at least ``k`` agents start at level 1, a
    pseudo-stochastically fair sequence of broadcasts eventually promotes some
    agent to level ``k``.
    """
    if k < 1:
        raise ValueError("threshold must be at least 1")

    def init(node_label: Label) -> State:
        return 1 if node_label == label else 0

    def promote(level: int) -> Callable[[State], State]:
        def response(state: State) -> State:
            if state == level:
                return level + 1
            return state

        return response

    broadcasts: dict[State, StrongBroadcast] = {}
    for level in range(1, k):
        broadcasts[level] = StrongBroadcast(level, level, promote(level))
    broadcasts[k] = StrongBroadcast(k, k, lambda _state: k)
    return StrongBroadcastProtocol(
        alphabet=alphabet,
        init=init,
        broadcasts=broadcasts,
        accepting={k},
        rejecting=set(range(k)),
        name=f"strong-threshold({label} ≥ {k})",
    )
