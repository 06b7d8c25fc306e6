"""Run outcomes shared by every simulation backend.

:class:`Verdict` and :class:`RunResult` live in this leaf module so that the
pluggable backends (:mod:`repro.core.backends`), the batched Monte-Carlo
runner (:mod:`repro.core.batch`) and the workload layer
(:mod:`repro.workloads`) can all import them without circular dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.core.configuration import Configuration


class Verdict(Enum):
    """Outcome of a simulated (or exactly decided) computation."""

    ACCEPT = "accept"
    REJECT = "reject"
    UNDECIDED = "undecided"
    INCONSISTENT = "inconsistent"

    @classmethod
    def of(cls, value: bool | None) -> "Verdict":
        """The verdict of a consensus value (``None`` is UNDECIDED)."""
        if value is None:
            return cls.UNDECIDED
        return cls.ACCEPT if value else cls.REJECT

    def as_bool(self) -> bool | None:
        if self is Verdict.ACCEPT:
            return True
        if self is Verdict.REJECT:
            return False
        return None


@dataclass
class RunResult:
    """The outcome of one simulated run.

    ``final_configuration`` is the per-node configuration the run ended in.
    Backends that do not track node identities (the count-based backend)
    return a *canonical representative*: a configuration with the right state
    counts, nodes ordered by state.  Verdicts and consensus values only
    depend on the counts, so the representative is interchangeable with the
    true configuration for every observable the engine reports.
    """

    verdict: Verdict
    steps: int
    final_configuration: Configuration
    stabilised_at: int | None = None
    trace: list[Configuration] | None = None

    def __iter__(self):
        """Unpack as ``verdict, steps = result``.

        The sibling APIs (``PopulationProtocol.simulate_agents``, the §6.1
        protocol's ``decide``) return plain ``(verdict, steps)`` tuples;
        supporting the same unpacking here keeps that idiom working
        everywhere while the richer fields stay available as attributes.
        """
        yield self.verdict
        yield self.steps

    @property
    def accepted(self) -> bool:
        return self.verdict is Verdict.ACCEPT

    @property
    def rejected(self) -> bool:
        return self.verdict is Verdict.REJECT
