"""Threshold, homogeneous-threshold and related arithmetic labelling properties.

The paper's running examples:

* **Majority** — "more nodes carry label ``a`` than ``b``", i.e.
  ``x_a - x_b ≥ 1`` (strict) or ``x_a - x_b ≥ 0`` (non-strict).  Majority
  admits no cutoff, so DAf/dAf/dAF cannot decide it on arbitrary graphs
  (Corollary 3.6); DAF can (Lemma 5.1); bounded-degree DAf can
  (Proposition 6.3).
* **Homogeneous threshold predicates** — ``a1·x1 + … + al·xl ≥ 0`` with integer
  coefficients.  These are exactly the predicates the Section 6.1 algorithm
  decides, and they are invariant under scalar multiplication (ISM).
* **General (inhomogeneous) linear thresholds** — ``a·x ≥ c``; ``x_i ≥ k`` is
  the building block of the dAF = Cutoff characterisation (Lemma C.5).
* **Modulo / divisibility / parity / primality** — examples of NL (resp. ISM)
  properties beyond thresholds, used in the DAF experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.labels import Alphabet, Label, LabelCount
from repro.properties.base import LabellingProperty


@dataclass(repr=False)
class LinearThresholdProperty(LabellingProperty):
    """The predicate ``Σ_x coefficients[x] · L(x) ≥ constant``."""

    alphabet: Alphabet
    coefficients: dict[Label, int]
    constant: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        unknown = set(self.coefficients) - set(self.alphabet.labels)
        if unknown:
            raise ValueError(f"coefficients mention unknown labels {sorted(unknown)}")
        if not self.name:
            terms = " + ".join(
                f"{coefficient}·{label}"
                for label, coefficient in self.coefficients.items()
                if coefficient != 0
            )
            self.name = f"{terms or '0'} ≥ {self.constant}"

    def weighted_sum(self, count: LabelCount) -> int:
        return sum(
            coefficient * count[label]
            for label, coefficient in self.coefficients.items()
        )

    def evaluate(self, count: LabelCount) -> bool:
        return self.weighted_sum(count) >= self.constant

    @property
    def is_homogeneous(self) -> bool:
        """Homogeneous thresholds (constant 0) are the Section 6.1 predicates."""
        return self.constant == 0

    def coefficient_vector(self) -> tuple[int, ...]:
        """Coefficients in alphabet order (zero for unmentioned labels)."""
        return tuple(self.coefficients.get(label, 0) for label in self.alphabet)


def majority_property(
    alphabet: Alphabet, first: Label = "a", second: Label = "b", strict: bool = True
) -> LinearThresholdProperty:
    """Majority: more (or at least as many) nodes labelled ``first`` than ``second``.

    The strict version ``x_first > x_second`` is encoded as
    ``x_first - x_second ≥ 1``; the non-strict version is homogeneous
    (``≥ 0``) and is therefore directly in the scope of the Section 6.1
    bounded-degree algorithm.
    """
    coefficients = {first: 1, second: -1}
    constant = 1 if strict else 0
    name = f"majority({first} {'>' if strict else '≥'} {second})"
    return LinearThresholdProperty(
        alphabet=alphabet, coefficients=coefficients, constant=constant, name=name
    )


def exists_label_property(alphabet: Alphabet, label: Label) -> LinearThresholdProperty:
    """``x_label ≥ 1`` — "some node carries this label", the Cutoff(1) generator."""
    return LinearThresholdProperty(
        alphabet=alphabet,
        coefficients={label: 1},
        constant=1,
        name=f"exists({label})",
    )


def at_least_k_property(alphabet: Alphabet, label: Label, k: int) -> LinearThresholdProperty:
    """``x_label ≥ k`` — the building block of the dAF = Cutoff result (Lemma C.5)."""
    return LinearThresholdProperty(
        alphabet=alphabet,
        coefficients={label: 1},
        constant=k,
        name=f"{label} ≥ {k}",
    )


@dataclass(repr=False)
class ModuloProperty(LabellingProperty):
    """``Σ coefficients[x]·L(x) ≡ remainder (mod modulus)`` — a semilinear, non-threshold example."""

    alphabet: Alphabet
    coefficients: dict[Label, int]
    modulus: int
    remainder: int
    name: str = ""

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        if not self.name:
            self.name = f"Σ·x ≡ {self.remainder} (mod {self.modulus})"

    def evaluate(self, count: LabelCount) -> bool:
        total = sum(
            coefficient * count[label]
            for label, coefficient in self.coefficients.items()
        )
        return total % self.modulus == self.remainder % self.modulus


def parity_property(alphabet: Alphabet, label: Label, even: bool = True) -> ModuloProperty:
    """Whether the number of nodes labelled ``label`` is even (or odd)."""
    return ModuloProperty(
        alphabet=alphabet,
        coefficients={label: 1},
        modulus=2,
        remainder=0 if even else 1,
        name=f"{label} {'even' if even else 'odd'}",
    )


@dataclass(repr=False)
class DivisibilityProperty(LabellingProperty):
    """``x_first | x_second`` — divisibility.

    This predicate is invariant under scalar multiplication but is *not* a
    homogeneous threshold, witnessing the gap between the DAf bounded-degree
    upper bound (ISM) and lower bound (homogeneous thresholds) that the paper
    points out in Section 6.
    """

    alphabet: Alphabet
    first: Label
    second: Label
    name: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            self.name = f"{self.first} | {self.second}"

    def evaluate(self, count: LabelCount) -> bool:
        divisor = count[self.first]
        dividend = count[self.second]
        if divisor == 0:
            return dividend == 0
        return dividend % divisor == 0


@dataclass(repr=False)
class PrimeSizeProperty(LabellingProperty):
    """Whether the total number of nodes is prime — the paper's example of an
    NL labelling property decidable by DAF but far outside Cutoff."""

    alphabet: Alphabet
    name: str = "|V| is prime"

    def evaluate(self, count: LabelCount) -> bool:
        n = count.total()
        if n < 2:
            return False
        factor = 2
        while factor * factor <= n:
            if n % factor == 0:
                return False
            factor += 1
        return True
