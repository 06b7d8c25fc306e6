"""Distributed automata and the detection/acceptance/fairness class taxonomy.

A distributed automaton is a pair ``A = (M, Σ)`` of a machine and a scheduler
subject to the *consistency condition*: on every graph, either all fair runs
accept or all fair runs reject (Section 2.1).  Esparza & Reiter classify
automata by three machine/scheduler features (the selection axis collapses):

========== ========================= =========================
letter      lowercase                 uppercase
========== ========================= =========================
detection   ``d`` non-counting (β=1)  ``D`` counting (β≥2)
acceptance  ``a`` halting             ``A`` stable consensus
fairness    ``f`` adversarial         ``F`` pseudo-stochastic
========== ========================= =========================

:class:`AutomatonClass` represents one of the eight strings ``xyz``;
:class:`DistributedAutomaton` bundles a machine with such a class (plus a
selection mode, defaulting to exclusive as the paper assumes w.l.o.g.).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

from repro.core.graphs import LabeledGraph
from repro.core.machine import DistributedMachine
from repro.core.scheduler import Fairness, Scheduler, SelectionMode


class Detection(Enum):
    """The detection axis: non-counting ``d`` (β=1) vs counting ``D`` (β≥2)."""

    NON_COUNTING = "d"
    COUNTING = "D"


class Acceptance(Enum):
    """The acceptance axis: halting ``a`` vs stable consensus ``A``."""

    HALTING = "a"
    STABLE_CONSENSUS = "A"


@dataclass(frozen=True)
class AutomatonClass:
    """One of the eight classes ``xyz ∈ {d,D} × {a,A} × {f,F}``."""

    detection: Detection
    acceptance: Acceptance
    fairness: Fairness

    @classmethod
    def parse(cls, symbol: str) -> "AutomatonClass":
        """Parse a three-letter class string such as ``"DAf"`` or ``"daF"``."""
        if len(symbol) != 3:
            raise ValueError(f"class string must have three letters, got {symbol!r}")
        det, acc, fair = symbol
        if det not in "dD" or acc not in "aA" or fair not in "fF":
            raise ValueError(f"malformed class string {symbol!r}")
        return cls(
            detection=Detection.COUNTING if det == "D" else Detection.NON_COUNTING,
            acceptance=Acceptance.STABLE_CONSENSUS if acc == "A" else Acceptance.HALTING,
            fairness=Fairness.PSEUDO_STOCHASTIC if fair == "F" else Fairness.ADVERSARIAL,
        )

    @property
    def symbol(self) -> str:
        return (
            ("D" if self.detection is Detection.COUNTING else "d")
            + ("A" if self.acceptance is Acceptance.STABLE_CONSENSUS else "a")
            + ("F" if self.fairness is Fairness.PSEUDO_STOCHASTIC else "f")
        )

    @property
    def is_counting(self) -> bool:
        return self.detection is Detection.COUNTING

    def at_least_as_strong_as(self, other: "AutomatonClass") -> bool:
        """The natural pointwise "capital beats lowercase" order on classes."""
        strong = {
            Detection.COUNTING: 1,
            Detection.NON_COUNTING: 0,
            Acceptance.STABLE_CONSENSUS: 1,
            Acceptance.HALTING: 0,
            Fairness.PSEUDO_STOCHASTIC: 1,
            Fairness.ADVERSARIAL: 0,
        }
        return (
            strong[self.detection] >= strong[other.detection]
            and strong[self.acceptance] >= strong[other.acceptance]
            and strong[self.fairness] >= strong[other.fairness]
        )

    def __str__(self) -> str:
        return self.symbol


ALL_CLASSES: tuple[AutomatonClass, ...] = tuple(
    AutomatonClass.parse(d + a + f) for d in "dD" for a in "aA" for f in "fF"
)


@dataclass(frozen=True)
class DistributedAutomaton:
    """A machine together with its class (and a selection mode).

    The selection mode defaults to exclusive, which is what the paper assumes
    without loss of generality after the collapse theorem of [16]; the
    verification engine can re-run any automaton under a different mode to
    check the collapse empirically.
    """

    machine: DistributedMachine
    automaton_class: AutomatonClass
    selection: SelectionMode = SelectionMode.EXCLUSIVE
    name: str = field(default="")

    def __post_init__(self) -> None:
        if self.automaton_class.is_counting and self.machine.beta < 2:
            raise ValueError(
                "a counting (D..) automaton needs a machine with counting bound >= 2"
            )
        if not self.automaton_class.is_counting and self.machine.beta != 1:
            raise ValueError(
                "a non-counting (d..) automaton must use counting bound exactly 1"
            )
        if not self.name:
            object.__setattr__(
                self, "name", f"{self.machine.name}[{self.automaton_class.symbol}]"
            )

    @property
    def scheduler(self) -> Scheduler:
        return Scheduler(self.selection, self.automaton_class.fairness)

    def with_selection(self, mode: SelectionMode) -> "DistributedAutomaton":
        """The same automaton under a different selection constraint."""
        return replace(self, selection=mode)

    def permitted_selections(self, graph: LabeledGraph):
        return self.scheduler.permitted_selections(graph)

    def __repr__(self) -> str:
        return (
            f"DistributedAutomaton(name={self.name!r}, "
            f"class={self.automaton_class.symbol}, selection={self.selection.value})"
        )


def automaton(
    machine: DistributedMachine,
    class_symbol: str,
    selection: SelectionMode = SelectionMode.EXCLUSIVE,
    name: str = "",
) -> DistributedAutomaton:
    """Convenience constructor: ``automaton(machine, "DAf")``."""
    return DistributedAutomaton(
        machine=machine,
        automaton_class=AutomatonClass.parse(class_symbol),
        selection=selection,
        name=name,
    )
