"""Labelling properties: predicates on label counts.

A labelling property is a predicate ``ϕ : N^Λ → {0, 1}`` that depends only on
the label count of a graph, never on its structure (Definition A.1 / C.1).
Majority is a labelling property; "the graph is a cycle" is not.

:class:`LabellingProperty` is the abstract interface used by constructions
("build me an automaton deciding ϕ") and by the verification harness ("does
this automaton's verdict match ϕ on these graphs?").  Concrete properties
live in :mod:`repro.properties.threshold`, :mod:`repro.properties.cutoff` and
:mod:`repro.properties.presburger`; boolean combinators are provided here
because every property class in the paper is closed under them.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.core.labels import Alphabet, LabelCount


class LabellingProperty:
    """Abstract base class for labelling properties."""

    #: The alphabet the property talks about.
    alphabet: Alphabet
    #: A short human-readable name, used in benchmark tables.
    name: str = "property"

    def evaluate(self, count: LabelCount) -> bool:
        """Whether the label count satisfies the property."""
        raise NotImplementedError

    def __call__(self, count: LabelCount) -> bool:
        return self.evaluate(count)

    # Boolean combinators ------------------------------------------------ #
    def __and__(self, other: "LabellingProperty") -> "LabellingProperty":
        return AndProperty(self, other)

    def __or__(self, other: "LabellingProperty") -> "LabellingProperty":
        return OrProperty(self, other)

    def __invert__(self) -> "LabellingProperty":
        return NotProperty(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


@dataclass(repr=False)
class FunctionProperty(LabellingProperty):
    """A property given directly by a Python predicate on label counts."""

    alphabet: Alphabet
    function: Callable[[LabelCount], bool]
    name: str = "function-property"

    def evaluate(self, count: LabelCount) -> bool:
        return bool(self.function(count))


@dataclass(repr=False)
class TrivialProperty(LabellingProperty):
    """The two trivial properties: always true or always false.

    Halting classes (DaF and below) can decide exactly these (Prop. C.2).
    """

    alphabet: Alphabet
    value: bool
    name: str = "trivial"

    def __post_init__(self) -> None:
        self.name = f"trivial-{'true' if self.value else 'false'}"

    def evaluate(self, count: LabelCount) -> bool:
        return self.value


@dataclass(repr=False)
class AndProperty(LabellingProperty):
    left: LabellingProperty
    right: LabellingProperty

    def __post_init__(self) -> None:
        if self.left.alphabet != self.right.alphabet:
            raise ValueError("conjunction of properties over different alphabets")
        self.alphabet = self.left.alphabet
        self.name = f"({self.left.name} ∧ {self.right.name})"

    def evaluate(self, count: LabelCount) -> bool:
        return self.left.evaluate(count) and self.right.evaluate(count)


@dataclass(repr=False)
class OrProperty(LabellingProperty):
    left: LabellingProperty
    right: LabellingProperty

    def __post_init__(self) -> None:
        if self.left.alphabet != self.right.alphabet:
            raise ValueError("disjunction of properties over different alphabets")
        self.alphabet = self.left.alphabet
        self.name = f"({self.left.name} ∨ {self.right.name})"

    def evaluate(self, count: LabelCount) -> bool:
        return self.left.evaluate(count) or self.right.evaluate(count)


@dataclass(repr=False)
class NotProperty(LabellingProperty):
    inner: LabellingProperty

    def __post_init__(self) -> None:
        self.alphabet = self.inner.alphabet
        self.name = f"¬{self.inner.name}"

    def evaluate(self, count: LabelCount) -> bool:
        return not self.inner.evaluate(count)


def property_from_function(
    alphabet: Alphabet, function: Callable[[LabelCount], bool], name: str
) -> FunctionProperty:
    """Convenience wrapper for ad-hoc properties in tests and examples."""
    return FunctionProperty(alphabet=alphabet, function=function, name=name)
