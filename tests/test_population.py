"""Tests for the population-protocol baselines and cross-checks against properties."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.labels import Alphabet, LabelCount
from repro.core.results import Verdict
from repro.population import (
    PopulationProtocol,
    four_state_majority,
    parity_population_protocol,
    threshold_protocol,
)
from repro.properties import at_least_k_property, majority_property, parity_property
from repro.workloads import EngineOptions, PopulationWorkload


@pytest.fixture
def ab():
    return Alphabet.of("a", "b")


def lc(ab, a, b):
    return LabelCount.from_mapping(ab, {"a": a, "b": b})


def run_counts(protocol, count, seed, max_steps=50_000, stability_window=1):
    """``(verdict, steps)`` of one seeded run on the count-level rows."""
    options = EngineOptions(max_steps=max_steps, stability_window=stability_window)
    result = PopulationWorkload(protocol, count, options).run(seed)
    return result.verdict, result.steps


class TestPopulationSubstrate:
    def test_initial_configuration_is_multiset(self, ab):
        protocol = four_state_majority(ab)
        config = protocol.initial_configuration(lc(ab, 2, 1))
        assert dict(config) == {"A": 2, "B": 1}

    def test_successors_conserve_population(self, ab):
        protocol = four_state_majority(ab)
        config = protocol.initial_configuration(lc(ab, 2, 2))
        for successor in protocol.successors(config):
            assert sum(count for _, count in successor) == 4

    def test_requires_two_agents_for_simulation(self, ab):
        protocol = four_state_majority(ab)
        with pytest.raises(ValueError):
            protocol.simulate_agents(lc(ab, 1, 0), seed=0)
        with pytest.raises(ValueError):
            run_counts(protocol, lc(ab, 1, 0), seed=0)


class TestCountEngine:
    """The count-vector simulation engine against the per-agent reference."""

    @pytest.mark.parametrize("a, b", [(3, 2), (2, 3), (2, 2), (6, 4), (1, 5)])
    def test_counts_method_matches_exact(self, ab, a, b):
        protocol = four_state_majority(ab)
        exact = protocol.decide(lc(ab, a, b))
        verdict, _ = run_counts(protocol, lc(ab, a, b), seed=1)
        assert verdict is exact

    def test_counts_method_deterministic(self, ab):
        protocol = four_state_majority(ab)
        runs = [run_counts(protocol, lc(ab, 4, 3), seed=9) for _ in range(2)]
        assert runs[0] == runs[1]

    def test_counts_method_ignores_global_random(self, ab):
        import random

        protocol = four_state_majority(ab)
        random.seed(0)
        one = run_counts(protocol, lc(ab, 4, 3), seed=5)
        random.seed(4242)
        two = run_counts(protocol, lc(ab, 4, 3), seed=5)
        assert one == two

    def test_counts_method_scales_beyond_agent_feasibility(self, ab):
        """A 50,000-agent threshold instance decided in count space."""
        protocol = threshold_protocol(ab, "a", 3)
        big = lc(ab, 25_000, 25_000)
        verdict, steps = run_counts(protocol, big, seed=3, max_steps=50_000_000)
        assert verdict is Verdict.ACCEPT
        assert steps > 0


class TestMajorityBaseline:
    @pytest.mark.parametrize(
        "a, b, expected",
        [(3, 2, Verdict.ACCEPT), (2, 3, Verdict.REJECT), (2, 2, Verdict.REJECT), (4, 1, Verdict.ACCEPT)],
    )
    def test_exact_decision(self, ab, a, b, expected):
        protocol = four_state_majority(ab)
        assert protocol.decide(lc(ab, a, b)) is expected

    def test_non_strict_variant_accepts_ties(self, ab):
        protocol = four_state_majority(ab, strict=False)
        assert protocol.decide(lc(ab, 2, 2)) is Verdict.ACCEPT

    def test_simulation_agrees_with_exact(self, ab):
        protocol = four_state_majority(ab)
        verdict, _ = run_counts(protocol, lc(ab, 6, 4), seed=1)
        assert verdict is Verdict.ACCEPT

    @given(st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_matches_majority_property(self, a, b):
        ab = Alphabet.of("a", "b")
        protocol = four_state_majority(ab)
        prop = majority_property(ab, strict=True)
        verdict = protocol.decide(lc(ab, a, b))
        assert verdict.as_bool() == prop(lc(ab, a, b))


class TestThresholdAndParityBaselines:
    @pytest.mark.parametrize("a, b, k", [(3, 1, 2), (1, 3, 2), (2, 2, 3), (4, 0, 4)])
    def test_threshold_matches_property(self, ab, a, b, k):
        protocol = threshold_protocol(ab, "a", k)
        prop = at_least_k_property(ab, "a", k)
        assert protocol.decide(lc(ab, a, b)).as_bool() == prop(lc(ab, a, b))

    @pytest.mark.parametrize("a, b", [(1, 2), (2, 2), (3, 1), (4, 1), (0, 3)])
    def test_parity_matches_property(self, ab, a, b):
        protocol = parity_population_protocol(ab, "a")
        prop = parity_property(ab, "a", even=False)
        if a + b < 2:
            pytest.skip("populations need two agents")
        assert protocol.decide(lc(ab, a, b)).as_bool() == prop(lc(ab, a, b))


class TestCrossModelAgreement:
    """The same predicate evaluated by three independent engines must agree."""

    def test_majority_three_ways(self, ab):
        from repro.extensions.rendezvous import majority_with_movement
        from repro.core.graphs import cycle_graph

        pp = four_state_majority(ab)
        gp = majority_with_movement(ab)
        prop = majority_property(ab, strict=True)
        for a, b in [(2, 1), (1, 2), (2, 2), (3, 2)]:
            count = lc(ab, a, b)
            expected = prop(count)
            assert pp.decide(count).as_bool() == expected
            graph = cycle_graph(ab, count.to_label_sequence())
            assert gp.decide_pseudo_stochastic(graph).as_bool() == expected


class TestAgentsEnginePersistence:
    def test_agents_engine_confirms_consensus_across_two_checkpoints(self, ab):
        """The agents engine must not report a consensus seen at a single
        checkpoint — it confirms it at two consecutive 10·n checkpoints,
        matching the counts engine's persistence window."""
        protocol = PopulationProtocol(
            alphabet=ab,
            init=lambda label: "x",
            delta=lambda p, q: (p, q),
            accepting={"x"},
            name="already-accepting",
        )
        count = lc(ab, 3, 2)  # n = 5
        verdict, steps = protocol.simulate_agents(count, max_steps=10_000, seed=1)
        assert verdict is Verdict.ACCEPT
        assert steps == 2 * 10 * 5

    @pytest.mark.parametrize("window, expected", [(1, 50), (30, 50), (80, 80)])
    def test_both_engines_take_the_wider_window(self, ab, window, expected):
        """Both engines wait ``max(stability_window, 10·n)`` steps (n = 5):
        the counts engine one window, the agents engine two checkpoints."""
        protocol = PopulationProtocol(
            alphabet=ab,
            init=lambda label: "x",
            delta=lambda p, q: (p, q),
            accepting={"x"},
            name="already-accepting",
        )
        assert protocol.consensus_window(5, window) == expected
        runs = {
            "counts": run_counts(
                protocol, lc(ab, 3, 2), seed=1, max_steps=10_000, stability_window=window
            ),
            "agents": protocol.simulate_agents(
                lc(ab, 3, 2), max_steps=10_000, seed=1, stability_window=window
            ),
        }
        assert runs == {
            "counts": (Verdict.ACCEPT, expected),
            "agents": (Verdict.ACCEPT, 2 * expected),
        }

    def test_counts_engine_agrees_on_fixed_point(self, ab):
        protocol = PopulationProtocol(
            alphabet=ab,
            init=lambda label: "x",
            delta=lambda p, q: (p, q),
            accepting={"x"},
            name="already-accepting",
        )
        verdict, _ = run_counts(protocol, lc(ab, 3, 2), seed=1, max_steps=10_000)
        assert verdict is Verdict.ACCEPT
