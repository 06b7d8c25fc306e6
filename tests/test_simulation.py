"""Tests for the Monte-Carlo machine run path and its pluggable backends."""

from __future__ import annotations

import random

import pytest

from repro.core.automaton import automaton
from repro.core.backends import (
    BackendUnsupported,
    CountBasedBackend,
    PerNodeBackend,
    resolve_backend,
)
from repro.core.configuration import enabled_nodes, synchronous_trace
from repro.core.graphs import clique_graph, cycle_graph, implicit_clique_graph, random_connected_graph
from repro.core.labels import Alphabet
from repro.core.machine import DistributedMachine
from repro.core.results import Verdict
from repro.core.scheduler import RandomExclusiveSchedule, RoundRobinSchedule, SynchronousSchedule
from repro.workloads import EngineOptions, MachineWorkload


@pytest.fixture
def ab():
    return Alphabet.of("a", "b")


def flooding_machine(ab):
    def init(label):
        return "yes" if label == "a" else "no"

    def delta(state, neighborhood):
        if state == "no" and neighborhood.has("yes"):
            return "yes"
        return state

    return DistributedMachine(
        alphabet=ab, beta=1, init=init, delta=delta,
        accepting={"yes"}, rejecting={"no"}, name="flood",
    )


def workload(machine, graph, **options):
    return MachineWorkload(machine, graph, EngineOptions(**options))


def run(machine, graph, schedule, **options):
    """One run of ``machine`` on ``graph`` under an explicit schedule."""
    return workload(machine, graph, **options).run_with_schedule(schedule)


class TestMachineRuns:
    def test_accepts_with_random_schedule(self, ab):
        machine = flooding_machine(ab)
        g = cycle_graph(ab, ["a", "b", "b", "b", "b"])
        result = workload(machine, g, max_steps=2000, stability_window=50).run(1)
        assert result.verdict is Verdict.ACCEPT
        assert result.stabilised_at is not None

    def test_rejects_without_a(self, ab):
        machine = flooding_machine(ab)
        g = cycle_graph(ab, ["b", "b", "b"])
        result = run(machine, g, RoundRobinSchedule(), max_steps=500, stability_window=50)
        assert result.verdict is Verdict.REJECT

    def test_trace_recording(self, ab):
        machine = flooding_machine(ab)
        g = cycle_graph(ab, ["a", "b", "b"])
        result = run(
            machine, g, SynchronousSchedule(),
            max_steps=50, stability_window=10, record_trace=True,
        )
        assert result.trace is not None
        assert result.trace[0] == ("yes", "no", "no")
        assert result.trace[-1] == result.final_configuration

    def test_synchronous_schedule_runs_the_synchronous_trace(self, ab):
        machine = flooding_machine(ab)
        g = cycle_graph(ab, ["a", "b", "b", "b", "b"])
        options = dict(max_steps=2000, stability_window=50)
        traced = run(machine, g, SynchronousSchedule(), record_trace=True, **options)
        assert traced.trace == synchronous_trace(machine, g, traced.steps)
        assert traced.verdict is Verdict.ACCEPT
        assert traced.stabilised_at == traced.steps == 2 + 50
        assert run(machine, g, SynchronousSchedule(), **options) == PerNodeBackend().run(
            machine, g, SynchronousSchedule(), **options
        )

    def test_seed_parameterises_the_default_schedule(self, ab):
        machine = flooding_machine(ab)
        g = cycle_graph(ab, ["a", "b", "b"])
        same = workload(machine, g, max_steps=500, stability_window=20)
        assert same.run(7) == same.run(7)
        assert same.run(7) == run(
            machine, g, RandomExclusiveSchedule(seed=7), max_steps=500, stability_window=20
        )

    def test_batch_consensus_accepts(self, ab):
        machine = flooding_machine(ab)
        g = cycle_graph(ab, ["a", "b", "b", "b"])
        batch = workload(machine, g, max_steps=2000, stability_window=50).run_many(5)
        assert batch.consensus is Verdict.ACCEPT

    def test_auto_backend_run_on_explicit_clique(self, ab):
        machine = flooding_machine(ab)
        clique = clique_graph(ab, ["a", "b", "b"])
        result = workload(machine, clique, max_steps=2000, stability_window=50).run(2)
        assert result.verdict is Verdict.ACCEPT

    def test_simulation_matches_exact_decision_on_random_graphs(self, ab):
        from repro.core.verification import decide

        machine = flooding_machine(ab)
        auto = automaton(machine, "dAF")
        for seed in range(3):
            labels = ["a" if seed == 0 else "b", "b", "b", "a", "b"]
            g = random_connected_graph(ab, labels, max_degree=3, seed=seed)
            exact = decide(auto, g).verdict
            simulated = workload(machine, g, max_steps=3000, stability_window=60).run(seed)
            assert exact == simulated.verdict


def _signature(result):
    return (result.verdict, result.steps, result.stabilised_at, result.final_configuration)


class TestBackendSelection:
    def test_auto_uses_count_backend_on_cliques(self, ab):
        machine = flooding_machine(ab)
        clique = clique_graph(ab, ["a", "b", "b"])
        schedule = RandomExclusiveSchedule(seed=0)
        assert isinstance(resolve_backend("auto", machine, clique, schedule), CountBasedBackend)

    def test_auto_falls_back_per_node_off_clique(self, ab):
        machine = flooding_machine(ab)
        cycle = cycle_graph(ab, ["a", "b", "b", "b"])
        schedule = RandomExclusiveSchedule(seed=0)
        assert isinstance(resolve_backend("auto", machine, cycle, schedule), PerNodeBackend)

    def test_trace_recording_forces_per_node(self, ab):
        machine = flooding_machine(ab)
        clique = clique_graph(ab, ["a", "b", "b"])
        schedule = RandomExclusiveSchedule(seed=0)
        backend = resolve_backend("auto", machine, clique, schedule, record_trace=True)
        assert isinstance(backend, PerNodeBackend)

    def test_explicit_count_backend_rejects_non_clique(self, ab):
        machine = flooding_machine(ab)
        cycle = cycle_graph(ab, ["a", "b", "b", "b"])
        with pytest.raises(BackendUnsupported):
            workload(machine, cycle, backend="count").run(0)

    def test_unknown_backend_name_rejected(self, ab):
        machine = flooding_machine(ab)
        clique = clique_graph(ab, ["a", "b", "b"])
        with pytest.raises(ValueError):
            workload(machine, clique, backend="gpu").run(0)

    def test_count_backend_matches_per_node_verdict(self, ab):
        machine = flooding_machine(ab)
        clique = clique_graph(ab, ["a", "b", "b", "b", "b"])
        verdicts = {
            workload(machine, clique, max_steps=2000, stability_window=50, backend=backend)
            .run(4)
            .verdict
            for backend in ("per-node", "count")
        }
        assert verdicts == {Verdict.ACCEPT}

    def test_count_backend_on_implicit_clique(self, ab):
        machine = flooding_machine(ab)
        graph = implicit_clique_graph(ab, ["a"] + ["b"] * 499)
        result = workload(
            machine, graph, max_steps=50_000, stability_window=100, backend="count"
        ).run(1)
        assert result.verdict is Verdict.ACCEPT
        assert result.stabilised_at is not None


class TestDeterminism:
    """Same seed ⇒ identical run, for every backend and schedule generator."""

    @pytest.mark.parametrize("backend", ["per-node", "count"])
    def test_same_seed_same_run_on_clique(self, ab, backend):
        machine = flooding_machine(ab)
        clique = clique_graph(ab, ["a", "b", "b", "b"])
        same = workload(machine, clique, max_steps=2000, stability_window=50, backend=backend)
        runs = [same.run(11) for _ in range(2)]
        assert _signature(runs[0]) == _signature(runs[1])

    @pytest.mark.parametrize(
        "schedule_factory",
        [
            lambda: RandomExclusiveSchedule(seed=13),
            lambda: RoundRobinSchedule(),
            lambda: SynchronousSchedule(),
        ],
        ids=["random-exclusive", "round-robin", "synchronous"],
    )
    def test_same_seed_same_run_per_schedule(self, ab, schedule_factory):
        machine = flooding_machine(ab)
        g = cycle_graph(ab, ["a", "b", "b", "b", "b"])
        same = workload(machine, g, max_steps=2000, stability_window=50)
        runs = [same.run_with_schedule(schedule_factory()) for _ in range(2)]
        assert _signature(runs[0]) == _signature(runs[1])

    def test_traces_identical_with_same_seed(self, ab):
        machine = flooding_machine(ab)
        g = cycle_graph(ab, ["a", "b", "b", "b"])
        same = workload(machine, g, max_steps=300, stability_window=30, record_trace=True)
        one = same.run(21)
        two = same.run(21)
        assert one.trace == two.trace

    @pytest.mark.parametrize("backend", ["per-node", "count"])
    def test_global_seeding_does_not_affect_engine(self, ab, backend):
        """Reseeding the global ``random`` module must not change engine output."""
        machine = flooding_machine(ab)
        clique = clique_graph(ab, ["a", "b", "b", "b"])
        same = workload(machine, clique, max_steps=2000, stability_window=50, backend=backend)

        random.seed(1)
        one = same.run(3)
        random.seed(999_999)
        two = same.run(3)
        assert _signature(one) == _signature(two)

    def test_engine_does_not_consume_global_random_stream(self, ab):
        """The engine must not advance the global random generator."""
        machine = flooding_machine(ab)
        clique = clique_graph(ab, ["a", "b", "b", "b"])
        random.seed(42)
        expected = [random.random() for _ in range(5)]
        random.seed(42)
        workload(machine, clique, max_steps=2000, stability_window=50).run(8)
        observed = [random.random() for _ in range(5)]
        assert observed == expected


class TestHelpers:
    def test_synchronous_trace_length(self, ab):
        machine = flooding_machine(ab)
        g = cycle_graph(ab, ["a", "b", "b"])
        trace = synchronous_trace(machine, g, 4)
        assert len(trace) == 5

    def test_enabled_nodes(self, ab):
        machine = flooding_machine(ab)
        g = cycle_graph(ab, ["a", "b", "b"])
        config = ("yes", "no", "no")
        assert set(enabled_nodes(machine, g, config)) == {1, 2}
        assert enabled_nodes(machine, g, ("yes", "yes", "yes")) == []


class TestReviewRegressions:
    """Regressions from the backend-architecture review."""

    def overlap_machine(self, ab):
        # accepting/rejecting predicates are not validated for disjointness;
        # every state here is accepting and "b-holders" are also rejecting.
        return DistributedMachine(
            alphabet=ab, beta=1,
            init=lambda label: label,
            delta=lambda state, neighborhood: state,
            accepting=lambda s: True,
            rejecting=lambda s: s == "b",
            name="overlap",
        )

    def test_consensus_of_counts_matches_consensus_value_on_overlap(self, ab):
        from repro.core.configuration import consensus_of_counts, consensus_value

        machine = self.overlap_machine(ab)
        # consensus_value tie-breaks accept-first on an all-overlapping
        # configuration; the count-level evaluation must mirror it.
        assert consensus_value(machine, ("b", "b", "b")) is True
        assert consensus_of_counts(machine, {"b": 3}) is True
        assert consensus_of_counts(machine, {"a": 1, "b": 2}) is True

    def test_backends_agree_on_overlapping_predicates(self, ab):
        machine = self.overlap_machine(ab)
        labels = ["b", "b", "b", "b"]
        options = dict(max_steps=200, stability_window=20)
        per_node = workload(
            machine, clique_graph(ab, labels), backend="per-node", **options
        ).run(2)
        count = workload(
            machine, implicit_clique_graph(ab, labels), backend="count", **options
        ).run(2)
        assert per_node.verdict is Verdict.ACCEPT
        assert count.verdict is Verdict.ACCEPT

    def test_run_many_validates_quorum(self, ab):
        g = cycle_graph(ab, ["a", "b", "b"])
        flood = workload(flooding_machine(ab), g, max_steps=100, stability_window=10)
        with pytest.raises(ValueError, match="quorum"):
            flood.run_many(runs=5, quorum=5.0)

    def test_run_result_unpacks_like_sibling_simulate_apis(self, ab):
        """`verdict, steps = workload.run(...)` must work, matching the
        (verdict, steps) tuples returned by the population/broadcast APIs."""
        machine = flooding_machine(ab)
        g = cycle_graph(ab, ["a", "b", "b"])
        result = workload(machine, g, max_steps=500, stability_window=20).run(5)
        verdict, steps = result
        assert verdict is result.verdict is Verdict.ACCEPT
        assert steps == result.steps > 0

    def test_schedule_subclass_falls_back_to_per_node(self, ab):
        """A RandomExclusiveSchedule subclass may override selections();
        the count backend never consults that stream, so 'auto' must keep
        the subclass on the per-node backend."""

        class BiasedSchedule(RandomExclusiveSchedule):
            def selections(self, graph):
                while True:
                    yield frozenset((0,))  # always node 0

        machine = flooding_machine(ab)
        g = clique_graph(ab, ["a", "b", "b"])
        backend = resolve_backend("auto", machine, g, BiasedSchedule(seed=1))
        assert isinstance(backend, PerNodeBackend)
        # the exact classes still go to the count backend
        backend = resolve_backend("auto", machine, g, RandomExclusiveSchedule(seed=1))
        assert isinstance(backend, CountBasedBackend)
