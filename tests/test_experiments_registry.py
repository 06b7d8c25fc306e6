"""Registry completeness: every scenario constructs and runs under its defaults."""

from __future__ import annotations

import warnings

import pytest

from repro.core.results import Verdict
from repro.workloads import (
    KINDS,
    SCENARIOS,
    EngineOptions,
    InstanceSpec,
    SpecValidationWarning,
    build_workload,
    get_scenario,
    list_scenarios,
)


def workload(name, **engine):
    """The default instance of ``name``; narrow windows are fine for a smoke run."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SpecValidationWarning)
        return build_workload(InstanceSpec(name, engine=EngineOptions(**engine)))


class TestRegistryShape:
    def test_every_required_kind_is_covered(self):
        kinds = {scenario.kind for scenario in list_scenarios()}
        assert kinds == set(KINDS)

    def test_listing_is_sorted_and_complete(self):
        names = [scenario.name for scenario in list_scenarios()]
        assert names == sorted(SCENARIOS)
        assert len(names) >= 6

    def test_get_scenario_unknown_name(self):
        with pytest.raises(KeyError, match="registered scenarios"):
            get_scenario("no-such-scenario")

    def test_unknown_parameters_rejected(self):
        with pytest.raises(ValueError, match="unknown parameters"):
            InstanceSpec("exists-label", {"a": 1, "b": 4, "typo": 3})


class TestRegistryCompleteness:
    """Every registered scenario must construct and complete one short run."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_builds_and_runs(self, name):
        outcome = workload(name, max_steps=2_000, stability_window=50).run(5)
        assert isinstance(outcome.verdict, Verdict)
        assert 0 <= outcome.steps <= 2_000

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_run_batch_returns_batch_result(self, name):
        from repro.core.batch import BatchResult

        batch = workload(name, max_steps=2_000, stability_window=50).run_many(
            runs=2, base_seed=1
        )
        assert isinstance(batch, BatchResult)
        assert batch.runs_executed == 2

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_defaults_reach_declared_ground_truth(self, name):
        """Under the defaults (with a real step budget), the declared ground
        truth must be reproduced — the end-to-end sanity of the registry."""
        instance = workload(name, max_steps=60_000, stability_window=300)
        if instance.expected is None:
            pytest.skip("scenario declares no ground truth for its defaults")
        outcome = instance.run(9)
        assert outcome.verdict.as_bool() == instance.expected
