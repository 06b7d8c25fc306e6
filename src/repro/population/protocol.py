"""Standard population protocols on cliques (the baseline substrate).

Classical population protocols are the special case of graph population
protocols in which the interaction graph is a clique: any ordered pair of
distinct agents may interact.  Angluin et al. showed they compute exactly the
semilinear predicates; the paper contrasts this with the NL power of
DAF-automata and the NSPACE(n) power on bounded-degree graphs.

Because agents are indistinguishable, a configuration is just a multiset of
states; this module exploits that and represents configurations as sorted
count vectors, which makes the exact decision procedure dramatically smaller
than the per-node representation (it is the same "store only the counts"
observation that the proof of Lemma 5.1 uses to place DAF inside NL).
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass

from repro.core.configuration import consensus_value
from repro.core.labels import Alphabet, Label, LabelCount
from repro.core.machine import Outputs
from repro.core.results import Verdict

State = object
PopulationConfiguration = tuple[tuple[State, int], ...]


def _normalise(counts: Mapping[State, int]) -> PopulationConfiguration:
    return tuple(sorted(((s, c) for s, c in counts.items() if c > 0), key=repr))


@dataclass
class PopulationProtocol(Outputs):
    """A population protocol ``(Q, δ, I, O)`` with clique interactions."""

    alphabet: Alphabet
    init: Callable[[Label], State]
    delta: Callable[[State, State], tuple[State, State]]
    accepting: Iterable[State] | Callable[[State], bool] | None = None
    rejecting: Iterable[State] | Callable[[State], bool] | None = None
    name: str = "population-protocol"

    # ------------------------------------------------------------------ #
    def initial_configuration(self, count: LabelCount) -> PopulationConfiguration:
        states: dict[State, int] = {}
        for label, number in count:
            if number == 0:
                continue
            state = self.init(label)
            states[state] = states.get(state, 0) + number
        return _normalise(states)

    def successors(
        self, configuration: PopulationConfiguration
    ) -> list[PopulationConfiguration]:
        """All configurations reachable in one interaction."""
        counts = dict(configuration)
        result: set[PopulationConfiguration] = set()
        states = list(counts)
        for p in states:
            for q in states:
                if p == q and counts[p] < 2:
                    continue
                p2, q2 = self.delta(p, q)
                if (p2, q2) == (p, q):
                    continue
                updated = dict(counts)
                updated[p] -= 1
                updated[q] = updated.get(q, 0) - 1
                updated[p2] = updated.get(p2, 0) + 1
                updated[q2] = updated.get(q2, 0) + 1
                result.add(_normalise(updated))
        return sorted(result, key=repr) or [configuration]

    # ------------------------------------------------------------------ #
    def decide(self, count: LabelCount, max_configurations: int = 200_000) -> Verdict:
        """Exact decision under global (pseudo-stochastic) fairness.

        The protocol stabilises to the verdict of the bottom SCCs of the
        reachable (count-vector) configuration graph, exactly as for the
        graph models.
        """
        from repro.core.verification import decide_by_bottom_sccs

        return decide_by_bottom_sccs(
            self.initial_configuration(count),
            self.successors,
            lambda c: all(self.is_accepting(state) for state, _ in c),
            lambda c: all(self.is_rejecting(state) for state, _ in c),
            max_configurations,
        ).verdict

    @staticmethod
    def consensus_window(n: int, stability_window: int = 0) -> int:
        """The consensus window of :meth:`rows` and :meth:`simulate_agents`.

        ``stability_window`` (``EngineOptions.stability_window``), but never
        below ``10·n``: a pair interaction touches two of the ``n`` agents,
        so a window that does not grow with the population declares
        transient consensus stabilised on large ones.  ``EngineOptions``
        refuses a window below 1, so ``stability_window=1`` asks for the
        ``10·n`` floor alone.
        """
        return max(stability_window, 10 * n)

    def rows(self, count: LabelCount, max_steps: int, stability_window: int = 0):
        """The count-level Monte-Carlo rows, built here only.

        A population workload runs its seeds on them
        (:class:`repro.core.vector_batch._PopulationRows`): the configuration
        is a state-count vector (agents are indistinguishable on a clique), a
        step samples an ordered *state* pair weighted by counts, and stretches
        of silent interactions are fast-forwarded geometrically, so a step
        does not depend on the population size.  A consensus must persist for
        :meth:`consensus_window` steps before a row reports it; a row that
        exhausts ``max_steps`` reports the instantaneous consensus of its
        final configuration.  :meth:`simulate_agents` is the per-agent
        reference the rows are checked against.
        """
        from repro.core.vector_batch import _PopulationRows

        counts = dict(self.initial_configuration(count))
        n = sum(counts.values())
        if n < 2:
            raise ValueError("population protocols need at least two agents")
        window = self.consensus_window(n, stability_window)
        return _PopulationRows(self, counts, max_steps, window)

    def simulate_agents(
        self,
        count: LabelCount,
        max_steps: int = 50_000,
        seed: int = 0,
        *,
        stability_window: int = 0,
    ) -> tuple[Verdict, int]:
        """The per-agent reference of the count-level :meth:`rows`.

        An explicit agent array; each step samples an ordered pair of
        distinct agents from a private ``random.Random(seed)``.  O(n)
        memory, and a consensus counts once it is seen at two consecutive
        checkpoints :meth:`consensus_window` steps apart.
        """
        rng = random.Random(seed)
        agents: list[State] = []
        for label, number in count:
            agents.extend([self.init(label)] * number)
        n = len(agents)
        if n < 2:
            raise ValueError("population protocols need at least two agents")
        window = self.consensus_window(n, stability_window)
        pending: bool | None = None  # consensus seen at the previous checkpoint
        for step in range(1, max_steps + 1):
            i = rng.randrange(n)
            j = rng.randrange(n - 1)
            if j >= i:
                j += 1
            agents[i], agents[j] = self.delta(agents[i], agents[j])
            if step % window == 0:
                current = consensus_value(self, agents)
                # Report only a consensus that persisted across a full
                # window (two consecutive checkpoints), matching the counts
                # engine's streak requirement.
                if current is not None and current is pending:
                    return Verdict.of(current), step
                pending = current
        return Verdict.of(consensus_value(self, agents)), max_steps
