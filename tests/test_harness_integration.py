"""Integration tests: the agreement harness on the library's own constructions."""

from __future__ import annotations

import pytest

from repro.analysis.harness import check_decides_property, check_same_verdict
from repro.analysis.limitations import covering_pair
from repro.core.labels import Alphabet, LabelCount, enumerate_label_counts
from repro.constructions import exists_label_automaton, threshold_daf_automaton
from repro.properties import at_least_k_property, exists_label_property


@pytest.fixture
def ab():
    return Alphabet.of("a", "b")


class TestAgreementHarness:
    def test_exists_automaton_decides_exists_property(self, ab):
        report = check_decides_property(
            exists_label_automaton(ab, "a"),
            exists_label_property(ab, "a"),
            max_per_label=2,
            min_total=3,
        )
        assert report.all_agree, report.summary()
        assert report.checked > 0

    def test_threshold_automaton_decides_threshold_property(self, ab):
        counts = [
            LabelCount.from_mapping(ab, {"a": a, "b": b})
            for a in range(0, 3)
            for b in range(0, 3)
            if a + b >= 3
        ]
        report = check_decides_property(
            threshold_daf_automaton(ab, "a", 2),
            at_least_k_property(ab, "a", 2),
            counts=counts,
            max_configurations=600_000,
        )
        assert report.all_agree, report.summary()

    def test_mismatch_is_detected(self, ab):
        """Pairing the exists-automaton with the wrong property must be flagged."""
        report = check_decides_property(
            exists_label_automaton(ab, "a"),
            at_least_k_property(ab, "a", 2),
            max_per_label=2,
            min_total=3,
        )
        assert not report.all_agree
        assert report.disagreements

    def test_same_verdict_on_covering_pairs(self, ab):
        pairs = []
        for factor in (2, 3):
            base, cover, _ = covering_pair(ab, ["a", "b", "b"], factor)
            pairs.append((base, cover))
        same, total = check_same_verdict(exists_label_automaton(ab, "a"), pairs)
        assert same == total == 2


class TestLabelCounts:
    def test_enumerate_counts_respects_paper_convention(self, ab):
        counts = enumerate_label_counts(ab, 3, min_total=3)
        assert all(c.total() >= 3 for c in counts)
