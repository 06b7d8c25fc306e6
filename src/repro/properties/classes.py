"""Property classes of Figure 1: ISM, Trivial, Cutoff and helpers for NL/NSPACE.

Besides the cutoff classes (see :mod:`repro.properties.cutoff`) the
bounded-degree panel of Figure 1 uses *invariance under scalar multiplication*
(ISM): a labelling property ϕ is ISM iff ``ϕ(L) = ϕ(λ·L)`` for every λ ≥ 1.
DAf-automata on bounded-degree graphs can decide only ISM properties
(Corollary 3.3) and at least all homogeneous threshold predicates
(Proposition 6.3); the divisibility predicate sits in the gap.

NL and NSPACE(n) membership cannot be checked for a black-box predicate; the
library represents the classes constructively — a property "is in NL for our
purposes" when it is presented by an evaluator that a log-space machine could
implement (all the arithmetic predicates in this package qualify).  Which of
the seven classes decide a classified property is read off the Figure 1
table in :mod:`repro.analysis.figure1`.
"""

from __future__ import annotations

from repro.core.labels import LabelCount, enumerate_label_counts
from repro.properties.base import LabellingProperty
from repro.properties.cutoff import admits_cutoff_up_to, is_cutoff_one, is_trivial_up_to


def ism_counterexample(
    prop: LabellingProperty,
    max_per_label: int,
    max_factor: int,
    min_total: int = 1,
) -> tuple[LabelCount, int] | None:
    """A pair ``(L, λ)`` with ``ϕ(L) ≠ ϕ(λ·L)``, if one exists in the sweep."""
    for count in enumerate_label_counts(prop.alphabet, max_per_label, min_total):
        base = prop.evaluate(count)
        for factor in range(1, max_factor + 1):
            if prop.evaluate(count.scale(factor)) != base:
                return count, factor
    return None


def is_invariant_under_scaling(
    prop: LabellingProperty,
    max_per_label: int,
    max_factor: int,
    min_total: int = 1,
) -> bool:
    """Empirical ISM check: ``ϕ(L) = ϕ(λ·L)`` for every L and λ in the sweep."""
    return ism_counterexample(prop, max_per_label, max_factor, min_total) is None


def classify_property(
    prop: LabellingProperty,
    max_per_label: int = 6,
    max_cutoff: int = 4,
    max_factor: int = 3,
) -> dict[str, object]:
    """Empirically classify a property against the Figure 1 classes.

    Returns a dictionary with the empirical findings over the sweep:
    ``trivial``, ``cutoff_1``, ``cutoff_bound`` (smallest bound found or
    ``None``), and ``ism``.  :func:`repro.analysis.figure1.deciding_classes`
    turns it into the classes that decide the property.

    The cutoff sweep only tests bounds that the label-count sweep can actually
    refute (a cutoff at ``max_per_label`` or above is vacuously satisfied), so
    the effective maximum bound is capped at ``max_per_label − 2``.
    """
    effective_cutoff = max(1, min(max_cutoff, max_per_label - 2))
    return {
        "name": prop.name,
        "trivial": is_trivial_up_to(prop, max_per_label),
        "cutoff_1": is_cutoff_one(prop, max_per_label),
        "cutoff_bound": admits_cutoff_up_to(prop, effective_cutoff, max_per_label),
        "ism": is_invariant_under_scaling(prop, max_per_label, max_factor),
    }
