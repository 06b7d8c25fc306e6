"""Convergence statistics for the simulation-level experiments.

The paper makes no quantitative running-time claims, but the benchmark
harness records convergence data (steps to stabilisation, cancellation
rounds, state-space sizes) so the reproduced experiments have measurable,
comparable series — the usual role of a figure's y-axis.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from repro.core.graphs import LabeledGraph


@dataclass
class ConvergenceSample:
    """One measured run."""

    graph_name: str
    nodes: int
    steps: int
    verdict: str
    correct: bool


@dataclass
class ConvergenceSeries:
    """A series of measured runs for one protocol / graph family."""

    name: str
    samples: list[ConvergenceSample]

    def accuracy(self) -> float:
        if not self.samples:
            return 0.0
        return sum(1 for s in self.samples if s.correct) / len(self.samples)

    def mean_steps(self) -> float:
        if not self.samples:
            return 0.0
        return statistics.fmean(s.steps for s in self.samples)

    def max_steps(self) -> int:
        return max((s.steps for s in self.samples), default=0)

    def by_size(self) -> dict[int, float]:
        """Mean steps per graph size — the series a scaling plot would show."""
        buckets: dict[int, list[int]] = {}
        for sample in self.samples:
            buckets.setdefault(sample.nodes, []).append(sample.steps)
        return {size: statistics.fmean(values) for size, values in sorted(buckets.items())}

    def summary(self) -> str:
        return (
            f"{self.name}: {len(self.samples)} runs, accuracy {self.accuracy():.2%}, "
            f"mean steps {self.mean_steps():.1f}, max steps {self.max_steps()}"
        )


def reachable_configuration_count(machine, graph: LabeledGraph, selection_mode=None) -> int:
    """Size of the reachable configuration space (a state-space statistic)."""
    from repro.core.scheduler import SelectionMode
    from repro.core.verification import explore

    mode = selection_mode or SelectionMode.EXCLUSIVE
    return explore(machine, graph, mode).size

