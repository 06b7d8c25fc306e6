"""Distributed machines with weak absence detection (Definition 4.8).

Absence detection lets an agent observe the *support* of the current
configuration — the set of states populated by at least one agent.  The weak
variant allows several agents to execute absence-detection transitions at the
same time; each then observes the support of only a subset ``S_v ∋ v`` of the
agents, with the guarantee that the subsets jointly cover all agents.

The paper uses the model only with the synchronous scheduler (class ``DA$``):
a step consists of a synchronous neighbourhood transition followed by an
absence detection whose initiators are all agents that landed in an
initiating state.  If no agent is in an initiating state the computation
"hangs" on the detection part (the configuration is left unchanged by it).

This module implements that synchronous semantics with a pluggable
*observation strategy* deciding the subsets ``S_v``:

* :func:`global_support` — every initiator sees the full support (the
  canonical, deterministic behaviour; it is what any covering family of
  subsets degenerates to when all agents happen to be visible);
* :func:`random_partition_support` — an adversarial-ish strategy that
  partitions the agents at random among the initiators (still covering), used
  to stress-test protocols such as §6.1 whose correctness must not depend on
  initiators seeing everything.

The compilation to a plain DAf-automaton on bounded-degree graphs
(Lemma 4.9) lives in :mod:`repro.extensions.absence_sim`.  The machine reads
its output sets through :class:`~repro.core.machine.Outputs`; it has no
exact decider of its own yet (that needs successors over every covering
family of observed subsets).
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from repro.core.configuration import Configuration, consensus_value
from repro.core.graphs import LabeledGraph, Node
from repro.core.labels import Alphabet, Label
from repro.core.machine import Neighborhood, Outputs, State
from repro.core.results import Verdict

#: An observation strategy maps (configuration-after-neighbourhood-step,
#: list of initiators, rng) to the support set observed by each initiator.
ObservationStrategy = Callable[
    [Configuration, list[Node], random.Random], dict[Node, frozenset[State]]
]


def global_support(
    configuration: Configuration, initiators: list[Node], rng: random.Random
) -> dict[Node, frozenset[State]]:
    """Every initiator observes the support of the full configuration."""
    support = frozenset(configuration)
    return {node: support for node in initiators}


def random_partition_support(
    configuration: Configuration, initiators: list[Node], rng: random.Random
) -> dict[Node, frozenset[State]]:
    """Agents are partitioned at random among the initiators (each S_v ∋ v).

    The partition covers all agents, as Definition 4.8 requires; each
    initiator only sees the states of its own block.
    """
    blocks: dict[Node, set[Node]] = {node: {node} for node in initiators}
    owners = list(initiators)
    for agent in range(len(configuration)):
        if agent in blocks:
            continue
        blocks[rng.choice(owners)].add(agent)
    return {
        node: frozenset(configuration[agent] for agent in block)
        for node, block in blocks.items()
    }


@dataclass
class AbsenceDetectionMachine(Outputs):
    """A synchronous (DA$) machine with weak absence-detection transitions.

    ``detect`` is the transition ``A : Q_A × 2^Q → Q``; it receives the
    initiating agent's state and the observed support (a frozenset of
    states).  ``initiating`` decides membership of ``Q_A``.
    """

    alphabet: Alphabet
    beta: int
    init: Callable[[Label], State]
    delta: Callable[[State, Neighborhood], State]
    initiating: Callable[[State], bool]
    detect: Callable[[State, frozenset[State]], State]
    accepting: Iterable[State] | Callable[[State], bool] | None = None
    rejecting: Iterable[State] | Callable[[State], bool] | None = None
    name: str = "absence-detection-machine"

    # ------------------------------------------------------------------ #
    def initial_configuration(self, graph: LabeledGraph) -> Configuration:
        return tuple(self.init(graph.label_of(v)) for v in graph.nodes())

    # ------------------------------------------------------------------ #
    def synchronous_step(
        self,
        graph: LabeledGraph,
        configuration: Configuration,
        strategy: ObservationStrategy = global_support,
        rng: random.Random | None = None,
    ) -> Configuration:
        """One DA$ step: synchronous neighbourhood transition, then absence detection."""
        rng = rng or random.Random(0)
        # Phase 1: synchronous neighbourhood transitions.
        intermediate: list[State] = []
        for node in graph.nodes():
            counts: dict[State, int] = {}
            for neighbour in graph.neighbors(node):
                neighbour_state = configuration[neighbour]
                counts[neighbour_state] = counts.get(neighbour_state, 0) + 1
            neighborhood = Neighborhood(counts, self.beta, total=graph.degree(node))
            intermediate.append(self.delta(configuration[node], neighborhood))
        intermediate_config = tuple(intermediate)
        # Phase 2: absence detection by all agents now in initiating states.
        initiators = [
            node for node in graph.nodes() if self.initiating(intermediate_config[node])
        ]
        if not initiators:
            # The computation hangs on the detection part (Definition 4.8):
            # the neighbourhood step is discarded and the configuration kept.
            return configuration
        observed = strategy(intermediate_config, initiators, rng)
        final = list(intermediate_config)
        for node in initiators:
            final[node] = self.detect(intermediate_config[node], observed[node])
        return tuple(final)

    def run(
        self,
        graph: LabeledGraph,
        max_steps: int = 2_000,
        strategy: ObservationStrategy = global_support,
        seed: int = 0,
    ) -> tuple[Verdict, int, Configuration]:
        """Run the synchronous semantics until consensus stabilises or steps run out."""
        rng = random.Random(seed)
        configuration = self.initial_configuration(graph)
        stable_for = 0
        for step in range(1, max_steps + 1):
            nxt = self.synchronous_step(graph, configuration, strategy, rng)
            stable_for = stable_for + 1 if nxt == configuration else 0
            configuration = nxt
            if stable_for >= 3:
                break
        return Verdict.of(consensus_value(self, configuration)), step, configuration
