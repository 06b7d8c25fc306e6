"""Figure 1 as one table: the seven classes' decision power and its witnesses.

Esparza & Reiter's 24 model combinations collapse into seven equivalence
classes with respect to decision power (Figure 1, left): the selection axis is
irrelevant, and ``daf`` and ``daF`` coincide.  :data:`FIGURE1` gives each
class its decision power on labelling properties for arbitrary networks
(Figure 1, middle) and for bounded-degree networks (Figure 1, right).  Every
cell names a :class:`Witness` — a construction of this repo and the property
it decides — or says why the repo has none.

Everything else is derived from the table:

* :func:`deciding_classes` lists the classes whose cell admits a classified
  property, through the one membership test :meth:`PowerClass.admits`;
* ``tests/test_figure1.py`` decides every checked witness exactly on small
  graphs, and checks that its property lies in the cell's class but not in
  the next weaker class of the same column;
* :func:`render_markdown` writes ``docs/figure1.md`` for ``python -m repro docs``.

Witnesses import their constructions when they are built, so importing this
module imports none.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

from repro.core.automaton import AutomatonClass
from repro.core.labels import Alphabet
from repro.properties import (
    at_least_k_property,
    classify_property,
    exists_label_property,
    majority_property,
    parity_property,
)


class PowerClass(Enum):
    """The property classes appearing in Figure 1."""

    TRIVIAL = "Trivial"
    CUTOFF_1 = "Cutoff(1)"
    CUTOFF = "Cutoff"
    NL = "NL"
    ISM_BOUNDED = "Maj ⊆ · ⊆ ISM"
    NSPACE_N = "NSPACE(n)"

    def admits(
        self, classification: dict[str, object], homogeneous_threshold: bool = False
    ) -> bool:
        """Whether a property with this ``classify_property`` result lies in the class.

        ``homogeneous_threshold`` marks the predicates of Proposition 6.3,
        which DAf decides on bounded degree.  NL and NSPACE(n) membership
        cannot be tested on a black-box predicate; every arithmetic property
        of this repo lies in both, so they admit everything.
        """
        if self is PowerClass.TRIVIAL:
            return bool(classification["trivial"])
        if self is PowerClass.CUTOFF_1:
            return bool(classification["cutoff_1"])
        if self is PowerClass.CUTOFF:
            return classification["cutoff_bound"] is not None
        if self is PowerClass.ISM_BOUNDED:
            return homogeneous_threshold or bool(
                classification["cutoff_1"] and classification["ism"]
            )
        return True


@dataclass(frozen=True)
class Witness:
    """A construction of this repo and the labelling property it decides.

    ``build`` returns both for an alphabet.  ``unchecked`` says why the
    construction has no exact decision; it is empty when it has one.
    """

    build: Callable[[Alphabet], tuple[object, object]]
    unchecked: str = ""


@dataclass(frozen=True)
class Cell:
    """One class's decision power on one kind of network, and what backs it."""

    power: PowerClass
    witness: Witness | None = None
    no_construction: str = ""


@dataclass(frozen=True)
class Row:
    """One of the seven classes: its two Figure 1 cells."""

    representative: str
    arbitrary: Cell
    bounded_degree: Cell

    def cell(self, bounded_degree: bool) -> Cell:
        """The bounded-degree cell if ``bounded_degree``, else the arbitrary one."""
        return self.bounded_degree if bounded_degree else self.arbitrary


def _exists_label(ab: Alphabet):
    from repro.constructions import exists_label_automaton

    return exists_label_automaton(ab, "a"), exists_label_property(ab, "a")


def _threshold(ab: Alphabet):
    from repro.constructions import threshold_daf_automaton

    return threshold_daf_automaton(ab, "a", 2), at_least_k_property(ab, "a", 2)


def _majority(ab: Alphabet):
    from repro.extensions.rendezvous import majority_with_movement

    return majority_with_movement(ab), majority_property(ab, strict=True)


def _parity(ab: Alphabet):
    from repro.extensions.rendezvous import parity_protocol

    return parity_protocol(ab, "a"), parity_property(ab, "a", even=False)


def _bounded_majority(ab: Alphabet):
    from repro.constructions import majority_protocol_bounded

    return majority_protocol_bounded(ab), majority_property(ab, strict=False)


_HALTING = Cell(
    PowerClass.TRIVIAL,
    no_construction=(
        "A one-state automaton decides either trivial property.  What the "
        "cell claims is that halting acceptance decides nothing else "
        "(Lemma 3.1); `benchmarks/bench_figure3_halting_surgery.py` builds "
        "the glued graphs of that proof."
    ),
)
_CUTOFF_1 = Cell(PowerClass.CUTOFF_1, Witness(_exists_label))

#: Figure 1, middle and right panels: one row per class, weakest first.
FIGURE1: tuple[Row, ...] = (
    Row("daf", _HALTING, _HALTING),
    Row("Daf", _HALTING, _HALTING),
    Row("DaF", _HALTING, _HALTING),
    Row("dAf", _CUTOFF_1, _CUTOFF_1),
    Row(
        "DAf",
        _CUTOFF_1,
        Cell(
            PowerClass.ISM_BOUNDED,
            Witness(
                _bounded_majority,
                unchecked=(
                    "not exactly checked (ROADMAP item 3): the §6.1 protocol "
                    "steps its own loop and presumes ACCEPT after a step budget"
                ),
            ),
        ),
    ),
    Row(
        "dAF",
        Cell(PowerClass.CUTOFF, Witness(_threshold)),
        Cell(PowerClass.NSPACE_N, Witness(_threshold)),
    ),
    Row(
        "DAF",
        Cell(PowerClass.NL, Witness(_majority)),
        Cell(PowerClass.NSPACE_N, Witness(_parity)),
    ),
)

#: Representatives of the seven equivalence classes (Figure 1, left).  The
#: class ``daf`` represents both ``daf`` and ``daF``.
SEVEN_CLASSES: tuple[str, ...] = tuple(row.representative for row in FIGURE1)

#: Collapse map: every one of the eight class strings to its representative.
COLLAPSE: dict[str, str] = {**{rep: rep for rep in SEVEN_CLASSES}, "daF": "daf"}


def is_included(weaker: str, stronger: str) -> bool:
    """Whether the decision power of ``weaker`` is included in that of ``stronger``.

    The inclusions proved in [16] (Figure 1, left) are the pointwise
    "capital beats lowercase" order on the representatives.
    """
    return AutomatonClass.parse(COLLAPSE[stronger]).at_least_as_strong_as(
        AutomatonClass.parse(COLLAPSE[weaker])
    )


def deciding_classes(
    classification: dict[str, object],
    bounded_degree: bool = False,
    homogeneous_threshold: bool = False,
) -> list[str]:
    """The classes that decide a property with this ``classify_property`` result.

    A ``None`` cutoff bound is read as "no cutoff within the sweep".
    """
    return [
        row.representative
        for row in FIGURE1
        if row.cell(bounded_degree).power.admits(classification, homogeneous_threshold)
    ]


def majority_deciders(bounded_degree: bool) -> list[str]:
    """The classes that decide majority ``x_a ≥ x_b`` (the paper's headline row)."""
    majority = classify_property(majority_property(Alphabet.of("a", "b"), strict=False))
    return deciding_classes(majority, bounded_degree, homogeneous_threshold=True)


HEADER = """\
# Figure 1: decision power of the seven classes

> **AUTO-GENERATED** by `python -m repro docs` from `repro.analysis.figure1`.
> Do not edit by hand: CI regenerates this file and fails on drift.  Change
> the table instead.

Each cell gives a class's decision power on labelling properties over the
alphabet `{a, b}` and its witness: a construction of this repo and the
property it decides.  A *checked* witness is decided exactly on every cycle,
line, clique and star with 3 ≤ n ≤ 5 by `tests/test_figure1.py`, which also
checks that the property lies in the cell's class and not in the next weaker
class of its column.
"""


def _render_cell(cell: Cell, ab: Alphabet, notes: list[str]) -> str:
    text = f"**{cell.power.value}**"
    if cell.witness is None:
        if cell.no_construction not in notes:
            notes.append(cell.no_construction)
        number = notes.index(cell.no_construction) + 1
        return f"{text}: no construction in this repo (note {number})"
    construction, prop = cell.witness.build(ab)
    check = cell.witness.unchecked or "checked"
    return f"{text}: `{construction.name}` decides `{prop.name}`; {check}"


def render_markdown() -> str:
    """The full ``docs/figure1.md`` content, deterministically rendered."""
    ab = Alphabet.of("a", "b")
    lines = [
        HEADER,
        f"Classes deciding majority: {', '.join(majority_deciders(False))} on "
        f"arbitrary networks; {', '.join(majority_deciders(True))} on "
        f"bounded-degree networks.",
        "",
        "| class | arbitrary networks | bounded-degree networks |",
        "|---|---|---|",
    ]
    notes: list[str] = []
    for row in FIGURE1:
        members = " = ".join(
            f"`{symbol}`" for symbol, rep in COLLAPSE.items() if rep == row.representative
        )
        lines.append(
            f"| {members} | {_render_cell(row.arbitrary, ab, notes)} "
            f"| {_render_cell(row.bounded_degree, ab, notes)} |"
        )
    lines.append("")
    lines.extend(f"{number}. {note}" for number, note in enumerate(notes, 1))
    return "\n".join(lines) + "\n"
