"""Schedulers: selection constraints, fairness constraints and schedule generators.

A scheduler ``Σ = (s, f)`` consists of a *selection constraint* (which subsets
of nodes may be selected at a step) and a *fairness constraint* (which infinite
schedules count as fair).  The paper classifies schedulers along two axes
(Section 2.2):

* Selection: **synchronous** (all nodes every step), **exclusive** (exactly one
  node per step) or **liberal** (any non-empty subset).  The main collapse
  result of Esparza & Reiter is that the selection axis does not affect the
  decision power; the experiment for Figure 1 (left) re-checks this empirically
  on concrete automata.
* Fairness: **adversarial** (only "every node selected infinitely often") or
  **pseudo-stochastic** (every finite sequence of permitted selections occurs
  infinitely often).

Infinite schedules cannot be materialised, so this module provides

* enumeration of the *permitted selections* of a graph for each selection mode
  (used by the exact decision engine, which quantifies over schedules via the
  configuration graph rather than sampling them), and
* finite schedule *generators* (random fair, round-robin, synchronous,
  adversarial strategies) used by the Monte-Carlo simulator for instances
  whose configuration graph is too large to explore exactly.
"""

from __future__ import annotations

import random
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from repro.core.graphs import LabeledGraph, Node

Selection = frozenset[Node]


class SelectionMode(Enum):
    """The three selection constraints of the paper."""

    SYNCHRONOUS = "synchronous"
    EXCLUSIVE = "exclusive"
    LIBERAL = "liberal"

    @property
    def symbol(self) -> str:
        return {"synchronous": "$", "exclusive": "1", "liberal": "*"}[self.value]


class Fairness(Enum):
    """The two fairness constraints of the paper.

    ``ADVERSARIAL`` corresponds to the lowercase ``f`` (only "every node moves
    infinitely often"), ``PSEUDO_STOCHASTIC`` to the uppercase ``F``.
    """

    ADVERSARIAL = "adversarial"
    PSEUDO_STOCHASTIC = "pseudo-stochastic"

    @property
    def symbol(self) -> str:
        return "f" if self is Fairness.ADVERSARIAL else "F"


@dataclass(frozen=True)
class Scheduler:
    """A scheduler: a selection mode plus a fairness constraint.

    For synchronous selection there is only one permitted selection, so
    adversarial and pseudo-stochastic fairness coincide (the paper writes
    such classes ``xy$``).
    """

    selection: SelectionMode
    fairness: Fairness

    def permitted_selections(self, graph: LabeledGraph) -> list[Selection]:
        """Enumerate ``s(G)``, the permitted selections of the graph."""
        return permitted_selections(graph, self.selection)

    @property
    def is_degenerate_fairness(self) -> bool:
        """Synchronous schedulers: the two fairness notions coincide."""
        return self.selection is SelectionMode.SYNCHRONOUS


def permitted_selections(graph: LabeledGraph, mode: SelectionMode) -> list[Selection]:
    """The set ``s(G)`` of permitted selections for a selection mode.

    Liberal selection is exponential in the number of nodes; the exact
    decision engine only uses it on very small graphs (and the collapse
    theorem says exclusive selection suffices anyway).
    """
    nodes = list(graph.nodes())
    if mode is SelectionMode.SYNCHRONOUS:
        return [frozenset(nodes)]
    if mode is SelectionMode.EXCLUSIVE:
        return [frozenset((v,)) for v in nodes]
    selections: list[Selection] = []
    for size in range(1, len(nodes) + 1):
        for subset in combinations(nodes, size):
            selections.append(frozenset(subset))
    return selections


# ---------------------------------------------------------------------- #
# Finite schedule generators (for Monte-Carlo simulation)
# ---------------------------------------------------------------------- #
def resolve_rng(rng: random.Random | None, seed: int | None) -> random.Random:
    """The random source a generator or backend should draw from.

    Randomised generators and simulation backends never touch the *global*
    ``random`` module state: they draw from an explicitly injected
    ``random.Random`` instance, or from a private ``random.Random(seed)``
    (which, for ``seed=None``, is seeded from OS entropy — still independent
    of ``random.seed``).  This keeps engine output reproducible per seed and
    immune to unrelated code reseeding the global generator.
    """
    if rng is not None:
        return rng
    return random.Random(seed)


class ScheduleGenerator:
    """Base class for finite schedule generators.

    A generator produces an endless stream of selections; fairness guarantees
    hold in the appropriate probabilistic or periodic sense (documented per
    subclass).  The simulation engine consumes a finite prefix.
    """

    def selections(self, graph: LabeledGraph) -> Iterator[Selection]:
        raise NotImplementedError

    def prefix(self, graph: LabeledGraph, length: int) -> list[Selection]:
        """The first ``length`` selections of the schedule."""
        out: list[Selection] = []
        for selection in self.selections(graph):
            out.append(selection)
            if len(out) >= length:
                break
        return out


@dataclass
class SynchronousSchedule(ScheduleGenerator):
    """The unique synchronous schedule: every node at every step."""

    def selections(self, graph: LabeledGraph) -> Iterator[Selection]:
        everyone = frozenset(graph.nodes())
        while True:
            yield everyone


@dataclass
class RoundRobinSchedule(ScheduleGenerator):
    """Exclusive selection cycling through nodes in a fixed order.

    This schedule is adversarial-fair (every node moves infinitely often) but
    *not* pseudo-stochastic.  It is the canonical "worst case looking"
    deterministic schedule used in the adversarial experiments.
    """

    order: Sequence[Node] | None = None

    def __post_init__(self) -> None:
        # An empty order would make selections() spin without yielding.
        if self.order is not None and not self.order:
            raise ValueError("a round-robin order needs at least one node")

    def selections(self, graph: LabeledGraph) -> Iterator[Selection]:
        order = list(self.order) if self.order is not None else list(graph.nodes())
        while True:
            for node in order:
                yield frozenset((node,))


@dataclass
class RandomExclusiveSchedule(ScheduleGenerator):
    """Exclusive selection, one node uniformly at random per step.

    With probability 1 such a schedule is fair; moreover every finite
    sequence of selections occurs infinitely often almost surely, so it is
    the natural finite surrogate for pseudo-stochastic scheduling.

    Randomness comes from ``rng`` if injected (a shared, mutable
    ``random.Random`` — successive ``selections()`` calls continue its
    stream) and otherwise from a fresh private ``random.Random(seed)`` per
    ``selections()`` call; the global ``random`` state is never consulted.
    """

    seed: int | None = None
    rng: random.Random | None = None

    def selections(self, graph: LabeledGraph) -> Iterator[Selection]:
        rng = resolve_rng(self.rng, self.seed)
        nodes = list(graph.nodes())
        while True:
            yield frozenset((rng.choice(nodes),))


@dataclass
class RandomLiberalSchedule(ScheduleGenerator):
    """Liberal selection: every node independently included with probability p.

    Draws from an injected ``rng`` or a private ``random.Random(seed)``,
    never from the global ``random`` state.
    """

    probability: float = 0.5
    seed: int | None = None
    rng: random.Random | None = None

    def selections(self, graph: LabeledGraph) -> Iterator[Selection]:
        rng = resolve_rng(self.rng, self.seed)
        nodes = list(graph.nodes())
        while True:
            chosen = [v for v in nodes if rng.random() < self.probability]
            if not chosen:
                chosen = [rng.choice(nodes)]
            yield frozenset(chosen)


@dataclass
class StarvingSchedule(ScheduleGenerator):
    """An adversarial strategy that starves one node for a long stretch.

    The node ``victim`` is selected only every ``period`` steps; all other
    steps round-robin through the remaining nodes.  The schedule is still
    fair (the victim is selected infinitely often) but exercises the
    "adversarial" corner that pseudo-stochastic schedulers never produce in
    practice.  Used in the bounded-degree majority experiments to stress the
    claim that the algorithm works under *any* fair schedule.
    """

    victim: Node = 0
    period: int = 10

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError(f"period must be at least 1, got {self.period}")

    def selections(self, graph: LabeledGraph) -> Iterator[Selection]:
        others = [v for v in graph.nodes() if v != self.victim]
        if not others:
            while True:
                yield frozenset((self.victim,))
        index = 0
        step = 0
        while True:
            step += 1
            if step % self.period == 0:
                yield frozenset((self.victim,))
            else:
                yield frozenset((others[index % len(others)],))
                index += 1


def is_fair_prefix(graph: LabeledGraph, selections: Sequence[Selection]) -> bool:
    """Whether every node occurs in at least one selection of the prefix.

    A *necessary* sanity condition used by tests on generated schedules (true
    fairness is a property of infinite schedules).
    """
    covered: set[Node] = set()
    for selection in selections:
        covered.update(selection)
    return covered == set(graph.nodes())
