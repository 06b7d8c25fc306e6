"""Unit tests for the compiled transition kernels (repro.core.compile)."""

from __future__ import annotations

import pickle

import pytest

from repro.core import (
    Alphabet,
    CompiledMachineUnbound,
    CompiledPerNodeBackend,
    PerNodeBackend,
    RandomExclusiveSchedule,
    compile_machine,
    cycle_graph,
)
from repro.core.backends import resolve_backend
from repro.core.compile import CompiledMachine
from repro.constructions import exists_label_machine
from repro.workloads import CompiledMachineWorkload, EngineOptions, MachineWorkload

AB = Alphabet.of("a", "b")


def _workload(machine, graph, **options):
    return MachineWorkload(machine, graph, EngineOptions(**options))


@pytest.fixture
def machine():
    return exists_label_machine(AB, "a")


@pytest.fixture
def graph():
    return cycle_graph(AB, ["a", "b", "b", "b", "b"])


def run_shipped(compiled, graph, seed, **options):
    """One seeded run of a compiled machine through the shipped-workload surface."""
    workload = CompiledMachineWorkload(
        compiled=compiled, graph=graph, options=EngineOptions(**options)
    )
    return workload.run(seed)


def run_result_tuple(result):
    return (result.verdict, result.steps, result.stabilised_at, result.final_configuration)


class TestCompiledMachine:
    def test_interning_is_dense_and_stable(self, machine):
        compiled = CompiledMachine(machine)
        # The init table is eagerly interned over the whole alphabet.
        ids = {compiled.init_id("a"), compiled.init_id("b")}
        assert ids <= set(range(compiled.num_states))
        first = compiled.intern(machine.initial_state("a"))
        assert compiled.intern(machine.initial_state("a")) == first
        assert compiled.state_of(first) == machine.initial_state("a")

    def test_unknown_label_raises_like_the_machine(self, machine):
        compiled = CompiledMachine(machine)
        with pytest.raises(ValueError):
            compiled.init_id("z")
        with pytest.raises(ValueError):
            machine.initial_state("z")

    def test_table_grows_lazily_and_flags_match_predicates(self, machine, graph):
        compiled = CompiledMachine(machine)
        assert compiled.table_size == 0
        run_shipped(compiled, graph, 1, max_steps=500, stability_window=30)
        assert compiled.table_size > 0
        for sid in range(compiled.num_states):
            state = compiled.state_of(sid)
            assert compiled.is_accepting_id(sid) == machine.is_accepting(state)
            assert compiled.is_rejecting_id(sid) == machine.is_rejecting(state)

    def test_compile_machine_caches_on_the_machine(self, machine):
        assert compile_machine(machine) is compile_machine(machine)

    def test_bind_rejects_mismatched_machine(self, machine):
        compiled = pickle.loads(pickle.dumps(CompiledMachine(machine)))
        other = exists_label_machine(AB, "b")  # different init table, same beta
        with pytest.raises(ValueError, match="init"):
            compiled.bind(other)
        assert not compiled.bound
        wrong_beta = exists_label_machine(AB, "a")
        wrong_beta.beta = machine.beta + 1
        with pytest.raises(ValueError, match="beta"):
            compiled.bind(wrong_beta)

    def test_failed_bind_leaves_tables_clean(self, machine, graph):
        compiled = CompiledMachine(machine)
        before = (compiled.num_states, compiled.table_size)
        clone = pickle.loads(pickle.dumps(compiled))
        with pytest.raises(ValueError):
            clone.bind(exists_label_machine(AB, "b"))
        # The wrong machine's states must not have been interned with the
        # wrong machine's accept/reject flags.
        assert (clone.num_states, clone.table_size) == before
        clone.bind(exists_label_machine(AB, "a"))
        result = run_shipped(clone, graph, 4, max_steps=500, stability_window=30)
        reference = _workload(
            machine, graph, max_steps=500, stability_window=30, backend="per-node"
        ).run(4)
        assert run_result_tuple(result) == run_result_tuple(reference)


class TestPickling:
    def test_unbound_copy_serves_memoised_views(self, machine, graph):
        compiled = CompiledMachine(machine)
        warm = run_shipped(compiled, graph, 9, max_steps=800, stability_window=40)
        clone = pickle.loads(pickle.dumps(compiled))
        assert not clone.bound
        assert clone.table_size == compiled.table_size
        # Replaying the same run touches only memoised views: no δ needed.
        replay = run_shipped(clone, graph, 9, max_steps=800, stability_window=40)
        assert run_result_tuple(replay) == run_result_tuple(warm)

    def test_unmemoised_view_without_loader_raises(self, machine):
        clone = pickle.loads(pickle.dumps(CompiledMachine(machine)))
        graph = cycle_graph(AB, ["a", "b", "b"])
        with pytest.raises(CompiledMachineUnbound):
            run_shipped(clone, graph, 0, max_steps=10, stability_window=5)

    def test_loader_rebinds_on_first_miss(self, graph):
        loader_calls = []

        def loader():
            loader_calls.append(1)
            return exists_label_machine(AB, "a")

        compiled = CompiledMachine(exists_label_machine(AB, "a"), loader=loader)
        # Simulate crossing a process boundary (loses the live machine but
        # keeps the loader; a lambda-free loader also survives real pickling,
        # which test_experiments_executor exercises end to end).
        state = compiled.__getstate__()
        clone = CompiledMachine.__new__(CompiledMachine)
        clone.__setstate__(state)
        result = run_shipped(clone, graph, 2, max_steps=500, stability_window=30)
        assert loader_calls == [1]
        assert clone.bound
        reference = _workload(
            exists_label_machine(AB, "a"),
            graph,
            max_steps=500,
            stability_window=30,
            backend="per-node",
        ).run(2)
        assert run_result_tuple(result) == run_result_tuple(reference)


class TestBackendIntegration:
    def test_auto_picks_compiled_on_non_cliques(self, machine, graph):
        backend = resolve_backend("auto", machine, graph, RandomExclusiveSchedule(seed=0))
        assert isinstance(backend, CompiledPerNodeBackend)

    def test_trace_requests_fall_back_to_the_reference_loop(self, machine, graph):
        backend = resolve_backend(
            "auto", machine, graph, RandomExclusiveSchedule(seed=0), record_trace=True
        )
        assert type(backend) is PerNodeBackend

    def test_implicit_cliques_stay_off_the_compiled_engine(self, machine):
        """An implicit clique's adjacency is generated on demand; the compiled
        engine would materialise all n(n-1)/2 edges, so schedule subclasses
        (which the count backend refuses) must keep the streaming reference
        loop — exactly the pre-compiled-engine behaviour."""
        from repro.core import implicit_clique_graph
        from repro.core.backends import BackendUnsupported

        graph = implicit_clique_graph(AB, ["a"] + ["b"] * 9)

        class BiasedSchedule(RandomExclusiveSchedule):
            pass

        backend = resolve_backend("auto", machine, graph, BiasedSchedule(seed=1))
        assert type(backend) is PerNodeBackend
        with pytest.raises(BackendUnsupported):
            _workload(machine, graph, backend="compiled").run(1)

    def test_named_compiled_backend_rejects_traces(self, machine, graph):
        from repro.core.backends import BackendUnsupported

        workload = _workload(machine, graph, backend="compiled", record_trace=True)
        with pytest.raises(BackendUnsupported):
            workload.run(0)

    def test_window_below_one_is_refused(self, machine, graph):
        """The row loop assumes a window of at least 1; below it the
        reference stabilises at once, so the compiled backend refuses."""
        with pytest.raises(ValueError, match="stability_window"):
            CompiledPerNodeBackend().run(
                machine, graph, RandomExclusiveSchedule(seed=0), max_steps=10, stability_window=0
            )

    def test_run_many_reuses_one_compiled_table(self, machine, graph):
        workload = _workload(
            machine, graph, max_steps=600, stability_window=40, backend="compiled"
        )
        workload.run_many(runs=4, base_seed=5)
        compiled = compile_machine(machine)
        size_after_batch = compiled.table_size
        assert size_after_batch > 0
        # A second batch over the same seeds revisits only memoised views.
        workload.run_many(runs=4, base_seed=5)
        assert compile_machine(machine) is compiled
        assert compiled.table_size == size_after_batch
