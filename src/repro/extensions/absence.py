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

:meth:`AbsenceDetectionMachine.successors` enumerates that step over every
observation family Definition 4.8 allows, so the machine is an
:class:`~repro.core.verification.AtomicModel` and its exact decision under
pseudo-stochastic fairness is the bottom-SCC analysis over those
successors.  :func:`support_probe_machine` is the example machine the
``absence-probe`` scenario and the tests share.  The compilation to a plain
DAf-automaton on bounded-degree graphs (Lemma 4.9) lives in
:mod:`repro.extensions.absence_sim`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from itertools import combinations

from repro.core.configuration import Configuration, neighborhood_of
from repro.core.graphs import LabeledGraph
from repro.core.labels import Alphabet, Label
from repro.core.machine import Neighborhood, State
from repro.core.verification import AtomicModel


@dataclass
class AbsenceDetectionMachine(AtomicModel):
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

    def successors(
        self, graph: LabeledGraph, configuration: Configuration
    ) -> list[Configuration]:
        """All configurations one DA$ step reaches (``[configuration]`` when it hangs).

        After the synchronous neighbourhood transition every initiator
        detects on an observed set of states that contains its own state and
        lies in the support, the observed sets jointly covering the support.
        Each such family is what some covering family of agent subsets
        ``S_v ∋ v`` observes (give every agent to an initiator observing its
        state), and every covering family of subsets observes such a family.
        """
        intermediate = tuple(
            self.delta(configuration[v], neighborhood_of(self, graph, configuration, v))
            for v in graph.nodes()
        )
        initiators = [v for v in graph.nodes() if self.initiating(intermediate[v])]
        if not initiators:
            # The computation hangs on the detection part (Definition 4.8):
            # the neighbourhood step is discarded and the configuration kept.
            return [configuration]
        support = frozenset(intermediate)
        # One layer per initiator, keeping the states observed so far and the
        # answers given so far: families that agree on both have the same
        # successors, so each is kept once (a plain product over the
        # initiators' observable sets grows far faster with the initiators).
        partial = {(frozenset(), ())}
        for v in initiators:
            own = intermediate[v]
            others = support - {own}
            observable = [
                frozenset((own, *extra))
                for size in range(len(others) + 1)
                for extra in combinations(others, size)
            ]
            partial = {
                (seen | observed, answers + (self.detect(own, observed),))
                for seen, answers in partial
                for observed in observable
            }
        result: set[Configuration] = set()
        for seen, answers in partial:
            if seen == support:
                final = list(intermediate)
                for v, answer in zip(initiators, answers):
                    final[v] = answer
                result.add(tuple(final))
        return sorted(result, key=repr)


def support_probe_machine(alphabet: Alphabet) -> AbsenceDetectionMachine:
    """A DA$-machine in which probe agents ask "does any 'b' exist?".

    Agents labelled ``a`` start as probes ``("probe", None)``; every other
    agent idles in the marker state ``("mark", label)``.  δ is the
    identity.  A probe answers ``False`` when it observes a ``b`` marker or
    a ``False`` probe, and ``True`` otherwise.  A ``False`` answer is always
    correct, so it is final (no longer initiating), while a ``True`` probe
    keeps detecting: a partial observation may have missed the markers.
    """

    def init(label):
        return ("probe", None) if label == "a" else ("mark", label)

    def delta(state, neighborhood):
        return state

    def initiating(state):
        return state[0] == "probe" and state[1] is not False

    def detect(state, support):
        return ("probe", ("mark", "b") not in support and ("probe", False) not in support)

    def rejecting(state):
        return state == ("probe", False) or state[0] == "mark"

    return AbsenceDetectionMachine(
        alphabet=alphabet,
        beta=2,
        init=init,
        delta=delta,
        initiating=initiating,
        detect=detect,
        accepting={("probe", True)},
        rejecting=rejecting,
        name="support-probe",
    )
