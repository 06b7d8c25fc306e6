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

from repro.core.labels import Alphabet, Label, LabelCount
from repro.core.results import Verdict

State = object
PopulationConfiguration = tuple[tuple[State, int], ...]


def _normalise(counts: Mapping[State, int]) -> PopulationConfiguration:
    return tuple(sorted(((s, c) for s, c in counts.items() if c > 0), key=repr))


@dataclass
class PopulationProtocol:
    """A population protocol ``(Q, δ, I, O)`` with clique interactions."""

    alphabet: Alphabet
    init: Callable[[Label], State]
    delta: Callable[[State, State], tuple[State, State]]
    accepting: Iterable[State] | Callable[[State], bool] | None = None
    rejecting: Iterable[State] | Callable[[State], bool] | None = None
    name: str = "population-protocol"

    def __post_init__(self) -> None:
        self._accepting = _predicate(self.accepting)
        self._rejecting = _predicate(self.rejecting)

    def is_accepting(self, state: State) -> bool:
        return self._accepting(state)

    def is_rejecting(self, state: State) -> bool:
        return self._rejecting(state)

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

    def simulate(
        self,
        count: LabelCount,
        max_steps: int = 50_000,
        seed: int | None = None,
        method: str = "auto",
        *,
        memo_cap: int | None = None,
    ) -> tuple[Verdict, int]:
        """Monte-Carlo simulation with uniformly random interacting pairs.

        Two engines are available, selected by ``method``:

        ``"agents"``
            The reference engine: an explicit agent array; each step samples
            an ordered pair of distinct agents.  O(n) memory, O(n) consensus
            checks (amortised over a 10·n cadence).

        ``"counts"``
            The vectorized engine, run as a batch of one on the count-level
            row engine (:class:`repro.core.vector_batch._PopulationRows`):
            the configuration is a state-count vector (agents are
            indistinguishable on a clique), a step samples an ordered
            *state* pair weighted by counts, and stretches of silent
            interactions are fast-forwarded geometrically.  Each active step
            enumerates the ordered pairs of *occupied* states (quadratic in
            their number, with a sort) but is independent of the population
            size — the engine that makes 10⁴–10⁶-agent populations feasible.
            ``memo_cap`` (``EngineOptions.memo_cap``) bounds the count
            vectors it memoises; results do not depend on it.

        ``"auto"`` picks ``"counts"``.  Both engines draw from a private
        ``random.Random(seed)``, never the global ``random`` state, and both
        require the consensus to persist for 10·n steps before reporting it
        (the counts engine tracks the streak per step; the agents engine
        confirms the same consensus at two consecutive 10·n-step
        checkpoints), so transient consensus is not mistaken for
        stabilisation.  When ``max_steps`` is exhausted both report the
        instantaneous consensus of the final configuration.
        """
        if method == "auto":
            method = "counts"
        if method == "counts":
            result = self.rows(count, max_steps, memo_cap).run([random.Random(seed)])[0]
            return result.verdict, result.steps
        if method == "agents":
            return self._simulate_agents(count, max_steps, seed)
        raise ValueError(f"unknown simulation method {method!r}")

    def rows(self, count: LabelCount, max_steps: int, memo_cap: int | None = None):
        """The count-level rows of the ``"counts"`` engine, built here only.

        :meth:`simulate` runs them as a batch of one, and a population
        workload's ``run_many`` runs its seeds on them.
        """
        from repro.core.vector_batch import _PopulationRows

        counts = dict(self.initial_configuration(count))
        if sum(counts.values()) < 2:
            raise ValueError("population protocols need at least two agents")
        return _PopulationRows(self, counts, max_steps, memo_cap)

    def _simulate_agents(
        self, count: LabelCount, max_steps: int, seed: int | None
    ) -> tuple[Verdict, int]:
        rng = random.Random(seed)
        agents: list[State] = []
        for label, number in count:
            agents.extend([self.init(label)] * number)
        n = len(agents)
        if n < 2:
            raise ValueError("population protocols need at least two agents")
        window = 10 * n
        pending: Verdict | None = None  # consensus seen at the previous checkpoint
        for step in range(1, max_steps + 1):
            i = rng.randrange(n)
            j = rng.randrange(n - 1)
            if j >= i:
                j += 1
            agents[i], agents[j] = self.delta(agents[i], agents[j])
            if step % window == 0:
                if all(self.is_accepting(s) for s in agents):
                    current: Verdict | None = Verdict.ACCEPT
                elif all(self.is_rejecting(s) for s in agents):
                    current = Verdict.REJECT
                else:
                    current = None
                # Report only a consensus that persisted across a full
                # window (two consecutive checkpoints), matching the counts
                # engine's streak requirement.
                if current is not None and current is pending:
                    return current, step
                pending = current
        if all(self.is_accepting(s) for s in agents):
            return Verdict.ACCEPT, max_steps
        if all(self.is_rejecting(s) for s in agents):
            return Verdict.REJECT, max_steps
        return Verdict.UNDECIDED, max_steps


def _predicate(spec) -> Callable[[State], bool]:
    if spec is None:
        return lambda _s: False
    if callable(spec):
        return spec
    members = set(spec)
    return lambda s: s in members
