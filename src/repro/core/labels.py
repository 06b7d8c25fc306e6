"""Label alphabets, label counts (multisets) and the cutoff function.

The paper works with labelled graphs over a finite alphabet ``Λ``.  The
*label count* ``L_G`` of a graph ``G`` assigns to each label the number of
nodes carrying it (Definition A.1).  A *labelling property* depends only on
this multiset, never on the structure of the graph.

The *cutoff function* ``⌈M⌉_β`` replaces every component of a multiset larger
than ``β`` by ``β`` (Section 2).  Cutoffs are the central tool of the paper's
lower bounds: the classes DAf, dAf and dAF can only decide properties whose
value depends on a cutoff of the label count (Lemmas 3.4 and 3.5).

This module provides an immutable :class:`LabelCount` multiset with the
operations the paper uses (cutoff, scalar multiplication, addition of a
single label, comparison) plus the :class:`Alphabet` helper.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass


Label = str


@dataclass(frozen=True)
class Alphabet:
    """A finite, ordered label alphabet ``Λ``.

    The ordering is only used for deterministic iteration and pretty
    printing; the semantics of the paper never depend on it.
    """

    labels: tuple[Label, ...]

    def __post_init__(self) -> None:
        if len(self.labels) == 0:
            raise ValueError("alphabet must contain at least one label")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate labels in alphabet: {self.labels}")

    @classmethod
    def of(cls, *labels: Label) -> "Alphabet":
        """Build an alphabet from individual labels, e.g. ``Alphabet.of('a', 'b')``."""
        return cls(tuple(labels))

    def __contains__(self, label: object) -> bool:
        return label in self.labels

    def __iter__(self) -> Iterator[Label]:
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label: Label) -> int:
        """Position of ``label`` in the alphabet ordering."""
        return self.labels.index(label)

    def count(self, assignment: Mapping[Label, int]) -> "LabelCount":
        """Create a :class:`LabelCount` over this alphabet from a mapping."""
        return LabelCount.from_mapping(self, assignment)


class LabelCount:
    """An immutable multiset ``L : Λ → N`` of labels (the label count of a graph).

    Instances are hashable and support the operations used throughout the
    paper: the cutoff ``⌈L⌉_β``, scalar multiplication ``λ·L`` (Corollary 3.3),
    pointwise addition, and adding a single occurrence of a label
    (the ``L + x`` notation of Proposition D.1).
    """

    __slots__ = ("_alphabet", "_counts")

    def __init__(self, alphabet: Alphabet, counts: Iterable[int]):
        counts = tuple(int(c) for c in counts)
        if len(counts) != len(alphabet):
            raise ValueError(
                f"expected {len(alphabet)} counts for alphabet {alphabet.labels}, "
                f"got {len(counts)}"
            )
        if any(c < 0 for c in counts):
            raise ValueError(f"label counts must be non-negative, got {counts}")
        self._alphabet = alphabet
        self._counts = counts

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_mapping(
        cls, alphabet: Alphabet, assignment: Mapping[Label, int]
    ) -> "LabelCount":
        """Build from a ``{label: count}`` mapping; missing labels count 0."""
        unknown = set(assignment) - set(alphabet.labels)
        if unknown:
            raise ValueError(f"labels {sorted(unknown)} not in alphabet {alphabet.labels}")
        return cls(alphabet, (assignment.get(label, 0) for label in alphabet))

    @classmethod
    def from_labels(cls, alphabet: Alphabet, labels: Iterable[Label]) -> "LabelCount":
        """Build by counting an iterable of labels (e.g. the node labelling)."""
        counts = {label: 0 for label in alphabet}
        for label in labels:
            if label not in counts:
                raise ValueError(f"label {label!r} not in alphabet {alphabet.labels}")
            counts[label] += 1
        return cls(alphabet, (counts[label] for label in alphabet))

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def alphabet(self) -> Alphabet:
        return self._alphabet

    def __getitem__(self, label: Label) -> int:
        return self._counts[self._alphabet.index(label)]

    def get(self, label: Label, default: int = 0) -> int:
        if label in self._alphabet:
            return self[label]
        return default

    def as_dict(self) -> dict[Label, int]:
        """A plain ``{label: count}`` dictionary (including zero entries)."""
        return dict(zip(self._alphabet.labels, self._counts))

    def as_tuple(self) -> tuple[int, ...]:
        """The counts in alphabet order."""
        return self._counts

    def total(self) -> int:
        """Total number of nodes, ``|L| = Σ_x L(x)``."""
        return sum(self._counts)

    def support(self) -> frozenset[Label]:
        """The set of labels with a strictly positive count."""
        return frozenset(
            label for label, c in zip(self._alphabet.labels, self._counts) if c > 0
        )

    def to_label_sequence(self) -> list[Label]:
        """Expand the multiset into an explicit list of labels (alphabet order)."""
        out: list[Label] = []
        for label, c in zip(self._alphabet.labels, self._counts):
            out.extend([label] * c)
        return out

    # ------------------------------------------------------------------ #
    # The paper's operations
    # ------------------------------------------------------------------ #
    def cutoff(self, beta: int) -> "LabelCount":
        """The cutoff ``⌈L⌉_β``: components larger than ``β`` are replaced by ``β``."""
        if beta < 0:
            raise ValueError("cutoff bound must be non-negative")
        return LabelCount(self._alphabet, (min(c, beta) for c in self._counts))

    def scale(self, factor: int) -> "LabelCount":
        """Scalar multiplication ``λ·L`` (used for the ISM property)."""
        if factor < 0:
            raise ValueError("scaling factor must be non-negative")
        return LabelCount(self._alphabet, (factor * c for c in self._counts))

    def add_label(self, label: Label, amount: int = 1) -> "LabelCount":
        """The multiset ``L + amount·x`` (adding occurrences of one label)."""
        index = self._alphabet.index(label)
        counts = list(self._counts)
        counts[index] += amount
        if counts[index] < 0:
            raise ValueError("resulting count would be negative")
        return LabelCount(self._alphabet, counts)

    def __add__(self, other: "LabelCount") -> "LabelCount":
        self._check_same_alphabet(other)
        return LabelCount(
            self._alphabet, (a + b for a, b in zip(self._counts, other._counts))
        )

    def __mul__(self, factor: int) -> "LabelCount":
        return self.scale(factor)

    __rmul__ = __mul__

    def dominates(self, other: "LabelCount") -> bool:
        """Pointwise ``self ≥ other`` (the order used with Dickson's lemma)."""
        self._check_same_alphabet(other)
        return all(a >= b for a, b in zip(self._counts, other._counts))

    # ------------------------------------------------------------------ #
    # Dunder plumbing
    # ------------------------------------------------------------------ #
    def _check_same_alphabet(self, other: "LabelCount") -> None:
        if self._alphabet != other._alphabet:
            raise ValueError("label counts are over different alphabets")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabelCount):
            return NotImplemented
        return self._alphabet == other._alphabet and self._counts == other._counts

    def __hash__(self) -> int:
        return hash((self._alphabet, self._counts))

    def __iter__(self) -> Iterator[tuple[Label, int]]:
        return iter(zip(self._alphabet.labels, self._counts))

    def __repr__(self) -> str:
        inner = ", ".join(f"{label}: {c}" for label, c in self)
        return f"LabelCount({{{inner}}})"


def cutoff_equal(first: LabelCount, second: LabelCount, beta: int) -> bool:
    """Whether ``⌈L_G⌉_β = ⌈L_H⌉_β`` — the indistinguishability relation of §3."""
    return first.cutoff(beta) == second.cutoff(beta)


def enumerate_label_counts(
    alphabet: Alphabet, max_per_label: int, min_total: int = 0
) -> list[LabelCount]:
    """Enumerate every label count with each component in ``[0, max_per_label]``.

    Used by the experiment harness to sweep the space of small inputs when
    re-deriving the Figure 1 classification empirically.
    """
    counts: list[LabelCount] = []

    def recurse(index: int, prefix: list[int]) -> None:
        if index == len(alphabet):
            candidate = LabelCount(alphabet, prefix)
            if candidate.total() >= min_total:
                counts.append(candidate)
            return
        for value in range(max_per_label + 1):
            recurse(index + 1, prefix + [value])

    recurse(0, [])
    return counts
