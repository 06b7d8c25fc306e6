"""Tests for labelling properties, cutoff classes and semilinear sets."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.figure1 import deciding_classes
from repro.core.labels import Alphabet, LabelCount
from repro.properties import (
    DivisibilityProperty,
    PrimeSizeProperty,
    TrivialProperty,
    admits_cutoff_at,
    admits_cutoff_up_to,
    at_least_k_property,
    classify_property,
    counterexample_to_cutoff,
    cutoff_table_property,
    exists_label_property,
    is_cutoff_one,
    is_invariant_under_scaling,
    is_trivial_up_to,
    ism_counterexample,
    majority_property,
    majority_semilinear,
    modulo_semilinear,
    parity_property,
    property_from_function,
    support_property,
    threshold_semilinear,
)
from repro.properties.presburger import LinearSet, SemilinearSet


@pytest.fixture
def ab():
    return Alphabet.of("a", "b")


def lc(ab, a, b):
    return LabelCount.from_mapping(ab, {"a": a, "b": b})


class TestThresholdProperties:
    def test_majority_strict(self, ab):
        maj = majority_property(ab)
        assert maj(lc(ab, 3, 2))
        assert not maj(lc(ab, 2, 2))
        assert not maj(lc(ab, 1, 4))

    def test_majority_non_strict_is_homogeneous(self, ab):
        maj = majority_property(ab, strict=False)
        assert maj.is_homogeneous
        assert maj(lc(ab, 2, 2))

    def test_exists_and_threshold(self, ab):
        assert exists_label_property(ab, "a")(lc(ab, 1, 5))
        assert not exists_label_property(ab, "a")(lc(ab, 0, 5))
        thr = at_least_k_property(ab, "b", 3)
        assert thr(lc(ab, 0, 3)) and not thr(lc(ab, 5, 2))

    def test_parity(self, ab):
        even = parity_property(ab, "a", even=True)
        assert even(lc(ab, 2, 1)) and not even(lc(ab, 3, 1))

    def test_divisibility(self, ab):
        div = DivisibilityProperty(ab, "a", "b")
        assert div(lc(ab, 2, 6))
        assert not div(lc(ab, 2, 5))
        assert div(lc(ab, 0, 0)) and not div(lc(ab, 0, 3))

    def test_prime_size(self, ab):
        prime = PrimeSizeProperty(ab)
        assert prime(lc(ab, 3, 2))  # 5 nodes
        assert not prime(lc(ab, 4, 2))  # 6 nodes
        assert not prime(lc(ab, 1, 0))

    def test_boolean_combinators(self, ab):
        both = exists_label_property(ab, "a") & exists_label_property(ab, "b")
        assert both(lc(ab, 1, 1)) and not both(lc(ab, 2, 0))
        either = exists_label_property(ab, "a") | exists_label_property(ab, "b")
        assert either(lc(ab, 0, 1))
        neg = ~exists_label_property(ab, "a")
        assert neg(lc(ab, 0, 3)) and not neg(lc(ab, 1, 3))

    def test_coefficient_vector(self, ab):
        maj = majority_property(ab)
        assert maj.coefficient_vector() == (1, -1)


class TestCutoffClasses:
    def test_threshold_admits_its_cutoff(self, ab):
        thr = at_least_k_property(ab, "a", 2)
        assert admits_cutoff_at(thr, 2, max_per_label=5)
        assert not admits_cutoff_at(thr, 1, max_per_label=5)
        assert admits_cutoff_up_to(thr, 4, 5) == 2

    def test_majority_admits_no_cutoff_in_sweep(self, ab):
        maj = majority_property(ab)
        assert admits_cutoff_up_to(maj, 3, max_per_label=6) is None
        witness = counterexample_to_cutoff(maj, 3, max_per_label=6)
        assert witness is not None
        assert maj(witness) != maj(witness.cutoff(3))

    def test_exists_is_cutoff_one(self, ab):
        assert is_cutoff_one(exists_label_property(ab, "a"), max_per_label=4)
        assert not is_cutoff_one(at_least_k_property(ab, "a", 2), max_per_label=4)

    def test_trivial_detection(self, ab):
        assert is_trivial_up_to(TrivialProperty(ab, True), max_per_label=3)
        assert not is_trivial_up_to(exists_label_property(ab, "a"), max_per_label=3)

    def test_support_property(self, ab):
        prop = support_property(ab, required={"a"}, forbidden={"b"})
        assert prop(lc(ab, 3, 0)) and not prop(lc(ab, 3, 1)) and not prop(lc(ab, 0, 0))

    def test_cutoff_table_property(self, ab):
        prop = cutoff_table_property(ab, 2, {(2, 0), (2, 1)})
        assert prop(lc(ab, 5, 0)) and prop(lc(ab, 2, 1)) and not prop(lc(ab, 1, 0))
        assert not prop(lc(ab, 3, 2))


class TestISMAndClassification:
    def test_majority_is_ism(self, ab):
        assert is_invariant_under_scaling(majority_property(ab, strict=False), 4, 3)
        assert is_invariant_under_scaling(majority_property(ab, strict=True), 4, 3)

    def test_threshold_is_not_ism(self, ab):
        thr = at_least_k_property(ab, "a", 2)
        assert not is_invariant_under_scaling(thr, 4, 3)
        witness = ism_counterexample(thr, 4, 3)
        assert witness is not None
        count, factor = witness
        assert thr(count) != thr(count.scale(factor))

    def test_divisibility_is_ism(self, ab):
        assert is_invariant_under_scaling(DivisibilityProperty(ab, "a", "b"), 4, 3)

    def test_classification_of_reference_properties(self, ab):
        maj = classify_property(majority_property(ab, strict=False), max_per_label=4)
        assert maj["trivial"] is False and maj["cutoff_bound"] is None and maj["ism"] is True
        exists = classify_property(exists_label_property(ab, "a"), max_per_label=4)
        assert exists["cutoff_1"] is True

    def test_deciding_classes_tables(self, ab):
        maj = classify_property(majority_property(ab, strict=False), max_per_label=4)
        assert deciding_classes(maj) == ["DAF"]
        assert deciding_classes(maj, bounded_degree=True, homogeneous_threshold=True) == [
            "DAf", "dAF", "DAF",
        ]
        exists = classify_property(exists_label_property(ab, "a"), max_per_label=4)
        assert "dAf" in deciding_classes(exists)


class TestSemilinear:
    def test_linear_set_membership(self):
        linear = LinearSet(base=(1, 0), periods=((1, 0), (0, 1)))
        assert linear.contains((3, 4))
        assert not linear.contains((0, 4))

    def test_linear_set_rejects_bad_vectors(self):
        with pytest.raises(ValueError):
            LinearSet(base=(0,), periods=((0,),))
        with pytest.raises(ValueError):
            LinearSet(base=(-1,), periods=((1,),))

    def test_semilinear_union(self):
        a = SemilinearSet((LinearSet((2, 0), ((1, 0),)),))
        b = SemilinearSet((LinearSet((0, 2), ((0, 1),)),))
        union = a.union(b)
        assert union.contains((3, 0)) and union.contains((0, 2))
        assert not union.contains((1, 1))

    def test_threshold_semilinear_matches_direct(self, ab):
        direct = at_least_k_property(ab, "a", 2)
        semilinear = threshold_semilinear(ab, "a", 2)
        for a in range(5):
            for b in range(4):
                assert direct(lc(ab, a, b)) == semilinear(lc(ab, a, b))

    def test_modulo_semilinear_matches_direct(self, ab):
        direct = parity_property(ab, "a", even=False)
        semilinear = modulo_semilinear(ab, "a", 2, 1)
        for a in range(6):
            for b in range(3):
                assert direct(lc(ab, a, b)) == semilinear(lc(ab, a, b))

    @given(st.integers(0, 8), st.integers(0, 8), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_majority_semilinear_matches_direct(self, a, b, strict):
        ab = Alphabet.of("a", "b")
        direct = majority_property(ab, strict=strict)
        semilinear = majority_semilinear(ab, strict=strict)
        count = LabelCount.from_mapping(ab, {"a": a, "b": b})
        assert direct(count) == semilinear(count)


@given(st.integers(0, 10), st.integers(0, 10), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_cutoff_property_really_only_depends_on_cutoff(a, b, bound):
    ab = Alphabet.of("a", "b")
    prop = property_from_function(
        ab, lambda c, bound=bound: c.cutoff(bound)["a"] >= 1 and c.cutoff(bound)["b"] <= bound - 1
        if bound > 1 else c.cutoff(1)["a"] >= 1, "adhoc"
    )
    count = LabelCount.from_mapping(ab, {"a": a, "b": b})
    assert prop(count) == prop(count.cutoff(bound))
