"""Tests for the batched Monte-Carlo runner (run_many / BatchResult)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    Alphabet,
    BatchResult,
    Verdict,
    clique_graph,
    cycle_graph,
    derive_seed,
    implicit_clique_graph,
)
from repro.core.batch import quorum_reached
from repro.core.labels import LabelCount
from repro.constructions import exists_label_machine
from repro.population import four_state_majority
from repro.workloads import EngineOptions, MachineWorkload, PopulationWorkload


@pytest.fixture
def ab():
    return Alphabet.of("a", "b")


@pytest.fixture
def flood(ab):
    """The exists-label flooding machine on a 4-cycle containing one ``a``."""
    return MachineWorkload(
        exists_label_machine(ab, "a"),
        cycle_graph(ab, ["a", "b", "b", "b"]),
        EngineOptions(max_steps=2_000, stability_window=50),
    )


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(0, 0) == derive_seed(0, 0)
        assert derive_seed(17, 3) == derive_seed(17, 3)

    def test_distinct_across_indices_and_bases(self):
        seeds = {derive_seed(base, index) for base in range(4) for index in range(16)}
        assert len(seeds) == 64

    def test_nonnegative_63_bit(self):
        for index in range(32):
            seed = derive_seed(123, index)
            assert 0 <= seed < 2**63


class TestQuorumReached:
    """The one stopping rule of collect_batch and both batch engines."""

    def test_accept_target_stops(self):
        assert quorum_reached((1, 1, 4), 2, accepts=1, rejects=0)

    def test_reject_counts_too(self):
        assert quorum_reached((2, 1, 3), 2, accepts=0, rejects=2)
        assert not quorum_reached((2, 1, 3), 2, accepts=1, rejects=1)

    def test_no_decisions_no_stop(self):
        assert not quorum_reached((1, 1, 4), 2, accepts=0, rejects=0)
        assert not quorum_reached((1, 1, 4), 3, accepts=0, rejects=0)

    def test_min_runs_gates_the_stop(self):
        assert not quorum_reached((1, 3, 4), 2, accepts=2, rejects=0)
        assert quorum_reached((1, 3, 4), 3, accepts=2, rejects=0)

    def test_never_stops_at_the_full_batch(self):
        # Even with the target met, consuming every run is no early stop.
        assert not quorum_reached((4, 1, 4), 4, accepts=4, rejects=0)
        assert not quorum_reached((99, 1, 4), 4, accepts=4, rejects=0)


class TestRunMany:
    def test_batch_is_deterministic(self, flood):
        one = flood.run_many(runs=6, base_seed=3)
        two = flood.run_many(runs=6, base_seed=3)
        assert one.verdicts == two.verdicts
        assert one.steps == two.steps

    def test_run_i_independent_of_batch_size(self, flood):
        """Derived seeds make run ``i`` reproducible regardless of the batch."""
        small = flood.run_many(runs=3, base_seed=9)
        large = flood.run_many(runs=6, base_seed=9)
        assert small.verdicts == large.verdicts[:3]
        assert small.steps == large.steps[:3]

    def test_consensus_and_statistics(self, flood):
        batch = flood.run_many(runs=8, base_seed=0)
        assert batch.consensus is Verdict.ACCEPT
        assert batch.runs_executed == 8
        assert batch.verdict_counts[Verdict.ACCEPT] == 8
        assert batch.acceptance_rate() == 1.0
        p50 = batch.step_percentile(50)
        p90 = batch.step_percentile(90)
        assert min(batch.steps) <= p50 <= p90 <= max(batch.steps)
        assert str(int(p50)) in batch.summary() or "p50" in batch.summary()

    def test_quorum_early_stop(self, flood):
        batch = flood.run_many(runs=10, base_seed=0, quorum=0.3)
        assert batch.stopped_early
        assert batch.runs_executed < batch.planned_runs
        assert batch.consensus is Verdict.ACCEPT

    def test_keep_results_retains_run_objects(self, flood):
        batch = flood.run_many(runs=3, base_seed=0, keep_results=True)
        assert batch.results is not None and len(batch.results) == 3
        assert all(r.verdict is Verdict.ACCEPT for r in batch.results)
        light = flood.run_many(runs=3, base_seed=0)
        assert light.results is None

    def test_batch_on_explicit_clique(self, ab):
        workload = MachineWorkload(
            exists_label_machine(ab, "a"),
            clique_graph(ab, ["a", "b", "b"]),
            EngineOptions(max_steps=2_000, stability_window=50),
        )
        batch = workload.run_many(runs=3)
        assert batch.consensus is Verdict.ACCEPT

    def test_count_backend_batch_on_implicit_clique(self, ab):
        """The batched runner rides the count backend on large populations."""
        workload = MachineWorkload(
            exists_label_machine(ab, "a"),
            implicit_clique_graph(ab, ["a"] + ["b"] * 1999),
            EngineOptions(max_steps=200_000, stability_window=100),
        )
        batch = workload.run_many(runs=5, base_seed=2, quorum=0.6)
        assert batch.consensus is Verdict.ACCEPT
        assert batch.stopped_early

    def test_rejects_empty_batch(self, flood):
        with pytest.raises(ValueError):
            flood.run_many(runs=0)


class TestBatchResultSemantics:
    def _batch(self, verdicts, steps=None):
        return BatchResult(
            verdicts=list(verdicts),
            steps=list(steps or range(1, len(list(verdicts)) + 1)),
            planned_runs=len(list(verdicts)),
            base_seed=0,
        )

    def test_consensus_undecided_when_nothing_decided(self):
        batch = self._batch([Verdict.UNDECIDED, Verdict.UNDECIDED])
        assert batch.consensus is Verdict.UNDECIDED

    def test_consensus_inconsistent_on_disagreement(self):
        batch = self._batch([Verdict.ACCEPT, Verdict.REJECT, Verdict.ACCEPT])
        assert batch.consensus is Verdict.INCONSISTENT

    def test_consensus_ignores_undecided_minority(self):
        batch = self._batch([Verdict.REJECT, Verdict.UNDECIDED, Verdict.REJECT])
        assert batch.consensus is Verdict.REJECT
        assert batch.decided_runs == 2

    def test_percentile_bounds_checked(self):
        batch = self._batch([Verdict.ACCEPT])
        with pytest.raises(ValueError):
            batch.step_percentile(101)


class TestPopulationRunMany:
    def test_population_batch(self, ab):
        protocol = four_state_majority(ab)
        count = LabelCount.from_mapping(ab, {"a": 6, "b": 4})
        batch = PopulationWorkload(protocol, count).run_many(runs=5, base_seed=1)
        assert batch.consensus is Verdict.ACCEPT
        assert batch.runs_executed == 5

    def test_population_batch_deterministic(self, ab):
        protocol = four_state_majority(ab)
        count = LabelCount.from_mapping(ab, {"a": 2, "b": 5})
        workload = PopulationWorkload(protocol, count)
        one = workload.run_many(runs=4, base_seed=7)
        two = workload.run_many(runs=4, base_seed=7)
        assert one.verdicts == two.verdicts and one.steps == two.steps
        assert one.consensus is Verdict.REJECT


class TestPercentile:
    """The pure-python percentile reproduces numpy's ``linear`` method bit
    for bit (numpy is a test-only oracle here)."""

    SAMPLES = (
        [7],
        [9, 3],
        [23, 4, 15, 8, 16],
        [40, 10, 30, 20],
        [5, 5, 5, 5, 5, 5],
        [1, 100, 2, 99, 3, 98, 4],
    )
    PERCENTILES = (0, 10, 25, 50, 66.6, 75, 90, 100)

    def _batch_for(self, steps):
        return BatchResult(
            verdicts=[Verdict.ACCEPT] * len(steps),
            steps=list(steps),
            planned_runs=len(steps),
            base_seed=0,
        )

    @settings(max_examples=200, deadline=None)
    @given(
        steps=st.lists(st.integers(0, 10**9), min_size=1, max_size=40),
        percentile=st.one_of(
            st.sampled_from(PERCENTILES),
            st.integers(0, 100),
            st.floats(0, 100, allow_nan=False),
        ),
    )
    def test_matches_numpy_percentile_exactly(self, steps, percentile):
        numpy = pytest.importorskip("numpy")
        cases = [(sample, pct) for sample in self.SAMPLES for pct in self.PERCENTILES]
        for sample, pct in cases + [(steps, percentile)]:
            expected = float(numpy.percentile(numpy.asarray(sample), pct))
            got = self._batch_for(sample).step_percentile(pct)
            assert got == expected, f"steps={sample} percentile={pct}"

    def test_single_sample_and_bounds(self):
        batch = self._batch_for([42])
        assert batch.step_percentile(0) == 42.0
        assert batch.step_percentile(50) == 42.0
        assert batch.step_percentile(100) == 42.0
        with pytest.raises(ValueError):
            batch.step_percentile(-1)
        with pytest.raises(ValueError):
            BatchResult(verdicts=[], steps=[], planned_runs=0, base_seed=0).step_percentile(50)
