"""The unified workload surface: spec round-trips, run parity, guards.

The acceptance contract of the workload layer:

* every registered scenario is runnable via ``InstanceSpec -> build_workload``
  and its ``run`` results match the engines underneath (the seeded machine
  run path, ``PopulationProtocol.rows``);
* every ``InstanceSpec`` pickles and JSON round-trips losslessly;
* spec-level validation catches the documented footguns (rendez-vous
  stabilisation window) and plain typos;
* compiled memo tables respect the spec'd size cap and report statistics.
"""

from __future__ import annotations

import json
import pickle
import warnings

import pytest

from repro.core.batch import BatchResult
from repro.core.results import RunResult, Verdict
from repro.workloads import (
    SCENARIOS,
    CompiledMachineWorkload,
    EngineOptions,
    InstanceSpec,
    MachineWorkload,
    PopulationWorkload,
    SpecValidationWarning,
    Workload,
    build_workload,
    get_scenario,
    list_scenarios,
)

ALL_SCENARIOS = sorted(SCENARIOS)

#: Small, fast engine options shared by the parity matrix.  The wide window
#: keeps the rendez-vous scenarios out of the spec-level window warning.
FAST = dict(max_steps=2_000, stability_window=50)
SAFE = dict(max_steps=20_000, stability_window=2_000)


def spec_of(name: str, params: dict | None = None, **engine) -> InstanceSpec:
    opts = dict(SAFE)
    opts.update(engine)
    with warnings.catch_warnings():
        # Some tests deliberately run the rendez-vous scenarios with a narrow
        # window; the spec-level warning for that is under test elsewhere.
        warnings.simplefilter("ignore", SpecValidationWarning)
        return InstanceSpec(name, dict(params or {}), EngineOptions(**opts))


# ---------------------------------------------------------------------- #
# Spec construction, validation and round-trips
# ---------------------------------------------------------------------- #
class TestInstanceSpec:
    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_params_normalise_to_the_full_assignment(self, name):
        spec = spec_of(name)
        assert spec.params == get_scenario(name).defaults
        assert spec.kind == get_scenario(name).kind

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_json_round_trip(self, name):
        spec = spec_of(name)
        assert InstanceSpec.from_json(spec.to_json()) == spec
        assert InstanceSpec.from_dict(json.loads(spec.to_json())) == spec
        assert spec.key() == InstanceSpec.from_json(spec.to_json()).key()

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_pickle_round_trip(self, name):
        spec = spec_of(name)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.key() == spec.key()

    def test_partial_and_full_params_describe_the_same_spec(self):
        partial = spec_of("exists-label", {"a": 0})
        full = spec_of("exists-label", dict(partial.params))
        assert partial == full and partial.key() == full.key()

    def test_specs_hash_consistently_with_equality(self):
        partial = spec_of("exists-label", {"a": 0})
        full = spec_of("exists-label", dict(partial.params))
        other = spec_of("exists-label", {"a": 1})
        assert len({partial, full, other}) == 2

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError, match="registered scenarios"):
            spec_of("no-such-scenario")

    def test_unknown_parameters_rejected(self):
        with pytest.raises(ValueError, match="unknown parameters"):
            spec_of("exists-label", {"typo": 3})

    def test_unknown_engine_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown engine option"):
            InstanceSpec.from_dict(
                {"scenario": "exists-label", "engine": {"max_stepz": 7}}
            )
        with pytest.raises(ValueError, match="unknown engine option"):
            EngineOptions.from_dict({"memo_cap": 3})

    def test_bad_engine_values_rejected(self):
        with pytest.raises(ValueError, match="max_steps"):
            EngineOptions(max_steps=0)


class TestSpecGuards:
    @pytest.mark.parametrize("name", ["rendezvous-parity", "rendezvous-majority"])
    def test_narrow_window_on_rendezvous_warns(self, name):
        with pytest.warns(SpecValidationWarning, match="falsely report stabilisation"):
            InstanceSpec(name, engine=EngineOptions(stability_window=600))

    def test_wide_window_on_rendezvous_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", SpecValidationWarning)
            InstanceSpec("rendezvous-parity", engine=EngineOptions(stability_window=2_000))

    def test_narrow_window_elsewhere_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", SpecValidationWarning)
            InstanceSpec("exists-label", engine=EngineOptions(stability_window=50))

    def test_distinct_rendezvous_specs_warn_once_each(self):
        # The guard dedups per spec identity (scenario + params + window),
        # not once per process: three distinct narrow-window specs are three
        # distinct footguns, each reported exactly once.  Entering
        # catch_warnings resets the dedup state, so earlier tests that warned
        # for the same specs cannot swallow these.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default", SpecValidationWarning)
            specs = [
                ("rendezvous-parity", 600),
                ("rendezvous-majority", 600),
                ("rendezvous-parity", 700),
            ]
            for name, window in specs:
                for _ in range(2):  # the repeat must stay silent
                    InstanceSpec(name, engine=EngineOptions(stability_window=window))
        guard = [w for w in caught if issubclass(w.category, SpecValidationWarning)]
        assert len(guard) == len(specs)

    def test_rendezvous_warning_reset_restores_the_guard(self):
        engine = EngineOptions(stability_window=600)
        for _ in range(2):  # each fresh catch_warnings block warns again
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("default", SpecValidationWarning)
                InstanceSpec("rendezvous-parity", engine=engine)
                InstanceSpec("rendezvous-parity", engine=engine)
            assert len(caught) == 1

    def test_rendezvous_warning_respects_always_filter(self):
        # warn_once_per_key defers to the stdlib filters: under "always" the
        # repeat is re-emitted (the registry only applies to "default").
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", SpecValidationWarning)
            for _ in range(2):
                InstanceSpec(
                    "rendezvous-parity", engine=EngineOptions(stability_window=600)
                )
        assert len(caught) == 2

    def test_multi_probe_with_markers_builds_and_rejects(self):
        from repro.core.verification import decide_pseudo_stochastic

        workload = build_workload(spec_of("absence-probe", {"a": 2, "b": 1}))
        assert workload.run(0).verdict is Verdict.REJECT
        exact = decide_pseudo_stochastic(workload.machine, workload.graph)
        assert exact.verdict is Verdict.REJECT

    def test_multi_probe_without_markers_allowed(self):
        assert spec_of("absence-probe", {"a": 3, "b": 0}).params["a"] == 3

    def test_single_probe_with_markers_allowed(self):
        assert spec_of("absence-probe", {"a": 1, "b": 2}).params["b"] == 2

    @pytest.mark.parametrize("backend", ["agents", "counts", "no-such-engine"])
    def test_population_refuses_other_backend_names(self, backend):
        workload = build_workload(spec_of("population-parity", backend=backend, **FAST))
        with pytest.raises(ValueError, match="unknown backend"):
            workload.run(1)
        with pytest.raises(ValueError, match="unknown backend"):
            workload.run_many(runs=3)

    def test_population_window_is_the_option_but_at_least_ten_n(self):
        # population-threshold a=3, b=4 has n = 7 agents: the floor is 70.
        workload = build_workload(
            spec_of("population-threshold", {"a": 3, "b": 4, "k": 3}, stability_window=600)
        )
        assert workload.rows().window == 600
        assert workload.with_options(stability_window=50).rows().window == 70

    def test_executor_records_the_rejection_per_task(self):
        from repro.experiments.executor import run_spec
        from repro.experiments.spec import ExperimentSpec

        spec = ExperimentSpec.from_dict(
            {
                "name": "probe-guard",
                "runs": 1,
                "sweeps": [
                    {"scenario": "absence-probe", "grid": {"a": [0, 1], "b": [3]}}
                ],
            }
        )
        summary = run_spec(spec, workers=1)
        statuses = {r["params"]["a"]: r["status"] for r in summary.records}
        assert statuses[1] == "ok"
        assert statuses[0] == "failed"
        failed = next(r for r in summary.records if r["status"] == "failed")
        assert "at least one probe" in failed["error"]


# ---------------------------------------------------------------------- #
# Run parity: the workload surface vs the engines underneath
# ---------------------------------------------------------------------- #
class TestRunParity:
    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_run_matches_the_engine_underneath(self, name):
        import random

        from repro.core.backends import resolve_backend
        from repro.core.scheduler import RandomExclusiveSchedule

        workload = build_workload(spec_of(name, **FAST))
        for seed in (5, 77):
            result = workload.run(seed)
            if isinstance(workload, PopulationWorkload):
                rows = workload.protocol.rows(workload.count, 2_000, 50)
                assert result == rows.run([random.Random(seed)])[0]
                continue
            schedule = RandomExclusiveSchedule(seed=seed)
            backend = resolve_backend("auto", workload.machine, workload.graph, schedule)
            direct = backend.run(
                workload.machine,
                workload.graph,
                schedule,
                max_steps=2_000,
                stability_window=50,
            )
            assert result == direct

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_run_many_matches_run_many_sequential(self, name):
        workload = build_workload(spec_of(name, **FAST))
        batch = workload.run_many(runs=3, base_seed=13)
        sequential = workload.run_many_sequential(runs=3, base_seed=13)
        assert isinstance(batch, BatchResult)
        assert batch.verdicts == sequential.verdicts
        assert batch.steps == sequential.steps
        assert batch.planned_runs == sequential.planned_runs
        assert batch.stopped_early == sequential.stopped_early

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_rebuilt_from_json_runs_identically(self, name):
        spec = spec_of(name, **FAST)
        workload = build_workload(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SpecValidationWarning)
            rebuilt = build_workload(InstanceSpec.from_json(spec.to_json()))
        assert rebuilt.expected == workload.expected
        for seed in (5, 77):
            one, two = workload.run(seed), rebuilt.run(seed)
            assert (one.verdict, one.steps) == (two.verdict, two.steps)

    def test_machine_workload_run_matches_run_with_schedule(self):
        from repro.core.scheduler import RandomExclusiveSchedule

        workload = build_workload(spec_of("exists-label", {"a": 1, "b": 5}, **FAST))
        direct = workload.run_with_schedule(RandomExclusiveSchedule(seed=21))
        via_workload = workload.run(21)
        assert isinstance(via_workload, RunResult)
        assert direct == via_workload

    def test_quorum_early_stop_flows_through(self):
        workload = build_workload(spec_of("exists-label", {"a": 1, "b": 4}, **FAST))
        batch = workload.run_many(runs=10, base_seed=0, quorum=0.3)
        assert batch.stopped_early
        assert batch.consensus is Verdict.ACCEPT


# ---------------------------------------------------------------------- #
# Shipping: picklable workloads for every kind
# ---------------------------------------------------------------------- #
class TestShipping:
    def test_machine_workload_ships_compiled_and_agrees(self):
        workload = build_workload(spec_of("exists-label", {"a": 1, "b": 5}, **FAST))
        shipped = workload.shippable()
        assert isinstance(shipped, CompiledMachineWorkload)
        clone = pickle.loads(pickle.dumps(shipped))
        assert not clone.compiled.bound
        for seed in (3, 2024):
            assert clone.run(seed) == workload.run(seed)
        assert clone.compiled.bound  # registry loader re-attached δ on a miss

    def test_population_workload_does_not_ship(self):
        workload = build_workload(spec_of("population-parity", **FAST))
        assert workload.shippable() is None

    def test_count_backend_clique_does_not_ship(self):
        workload = build_workload(spec_of("clique-majority", **FAST))
        assert workload.shippable() is None

    def test_explicit_backend_does_not_ship(self):
        workload = build_workload(
            spec_of("exists-label", {"a": 1, "b": 5}, backend="per-node", **FAST)
        )
        assert workload.shippable() is None

    def test_with_options_shares_the_heavy_parts(self):
        workload = build_workload(spec_of("exists-label", {"a": 1, "b": 5}, **FAST))
        widened = workload.with_options(max_steps=5_000)
        assert widened.machine is workload.machine
        assert widened.graph is workload.graph
        assert widened.options.max_steps == 5_000
        assert workload.options.max_steps == FAST["max_steps"]


# ---------------------------------------------------------------------- #
# One machine per scenario recipe per process
# ---------------------------------------------------------------------- #
#: Two points of each shared recipe, on different graphs and sizes.
SHARED_RECIPES = [
    ("exists-label", {"a": 1, "b": 4}, {"a": 3, "b": 9, "graph": "line"}),
    (
        "threshold-broadcast",
        {"a": 2, "b": 2, "k": 2},
        {"a": 3, "b": 6, "k": 2, "graph": "random-regular"},
    ),
    ("absence-probe", {"a": 1, "b": 2}, {"a": 3, "b": 0, "graph": "line"}),
    ("rendezvous-parity", {"a": 3, "b": 4}, {"a": 1, "b": 2, "graph": "line"}),
    (
        "rendezvous-majority",
        {"a": 4, "b": 1},
        {"a": 5, "b": 3, "graph": "implicit-clique"},
    ),
]

#: A target point and the points of its recipe run before it.  The warm-up
#: points discover the machine's states in another order than the target
#: does on its own, so its interned state ids, and their relative order,
#: differ from a fresh machine's (a count-row mover order by id, instead of
#: by ``repr``, fails the clique cases).
ORDER_CASES = [
    (
        "threshold-broadcast",
        {"a": 1, "b": 7, "k": 2},
        [
            {"a": 4, "b": 1, "k": 2, "graph": "line"},
            {"a": 3, "b": 9, "k": 2, "graph": "random-regular", "graph_seed": 2},
        ],
    ),
    (
        "rendezvous-parity",
        {"a": 3, "b": 4},
        [
            {"a": 1, "b": 2, "graph": "line"},
            {"a": 2, "b": 2, "graph": "implicit-clique"},
            {"a": 3, "b": 1, "graph": "cycle"},
        ],
    ),
    (
        "rendezvous-majority",
        {"a": 5, "b": 3},
        [
            {"a": 5, "b": 2, "graph": "line"},
            {"a": 4, "b": 2, "graph": "random-regular", "graph_seed": 2},
            {"a": 6, "b": 2, "graph": "implicit-clique"},
        ],
    ),
]


class TestRecipeMachines:
    @pytest.mark.parametrize(("name", "first", "second"), SHARED_RECIPES)
    def test_points_of_one_recipe_share_one_compiled_machine(
        self, name, first, second
    ):
        from repro.core.compile import compile_machine

        one = build_workload(spec_of(name, first))
        two = build_workload(spec_of(name, second))
        assert two.machine is one.machine
        assert compile_machine(two.machine) is compile_machine(one.machine)

    def test_threshold_broadcast_has_one_machine_per_k(self):
        two = build_workload(spec_of("threshold-broadcast", {"a": 3, "k": 2}))
        three = build_workload(spec_of("threshold-broadcast", {"a": 3, "k": 3}))
        again = build_workload(spec_of("threshold-broadcast", {"a": 4, "k": 3}))
        assert three.machine is not two.machine
        assert again.machine is three.machine

    def test_the_memo_keys_on_the_builder_and_its_arguments(self):
        from repro.workloads.catalog import RECIPE_MACHINES, _recipe_machine

        built = []

        def build(*args):
            built.append(args)
            return object()

        one = _recipe_machine(build, "a", 2)
        assert _recipe_machine(build, "a", 2) is one
        assert _recipe_machine(build, "a", 3) is not one
        assert built == [("a", 2), ("a", 3)]
        assert RECIPE_MACHINES[build, ("a", 2)] is one

    def test_clique_majority_builds_a_fresh_machine_per_point(self):
        from repro.core.compile import compile_machine

        one = build_workload(spec_of("clique-majority"))
        two = build_workload(spec_of("clique-majority"))
        assert two.machine is not one.machine
        assert compile_machine(two.machine) is not compile_machine(one.machine)

    @pytest.mark.parametrize(
        "name", ["population-majority", "population-threshold", "population-parity"]
    )
    def test_population_points_build_a_fresh_protocol(self, name):
        one = build_workload(spec_of(name))
        two = build_workload(spec_of(name))
        assert two.protocol is not one.protocol

    @pytest.mark.parametrize("graph", ["cycle", "random-regular", "implicit-clique"])
    @pytest.mark.parametrize(("name", "target", "warmups"), ORDER_CASES)
    def test_a_point_after_others_of_its_recipe_runs_as_on_a_fresh_machine(
        self, name, target, warmups, graph
    ):
        from repro.core.compile import compile_machine
        from repro.workloads.catalog import RECIPE_MACHINES

        params = {**target, "graph": graph, "graph_seed": 3}
        fresh = build_workload(spec_of(name, params))
        expected = fresh.run_many(4, base_seed=5, keep_results=True).results
        single = [fresh.run(seed) for seed in (11, 12)]
        fresh_states = list(compile_machine(fresh.machine)._states)

        RECIPE_MACHINES.clear()
        for warmup in warmups:
            build_workload(spec_of(name, warmup)).run_many(3, base_seed=1)
        warm = build_workload(spec_of(name, params))
        compiled = compile_machine(warm.machine)
        assert compiled.table_size > 0
        # The test bites only if the shared table numbered states differently.
        assert [compiled._ids.get(state) for state in fresh_states] != list(
            range(len(fresh_states))
        )
        assert warm.run_many(4, base_seed=5, keep_results=True).results == expected
        assert [warm.run(seed) for seed in (11, 12)] == single


# ---------------------------------------------------------------------- #
# Compiled memo-table statistics
# ---------------------------------------------------------------------- #
class TestMemoStats:
    def test_stats_track_entries_and_hit_rate(self):
        from repro.core.compile import compile_machine

        workload = build_workload(spec_of("exists-label", {"a": 1, "b": 9}, **FAST))
        workload.run(17)
        compiled = compile_machine(workload.machine)
        stats = compiled.stats()
        assert set(stats) == {"table_entries", "hits", "misses", "hit_rate"}
        assert stats["table_entries"] == compiled.table_size > 0
        assert stats["hits"] + stats["misses"] > 0
        assert 0.0 <= stats["hit_rate"] <= 1.0


# ---------------------------------------------------------------------- #
# Registry facade
# ---------------------------------------------------------------------- #
class TestRegistryFacade:
    def test_all_nine_scenarios_cover_all_five_kinds(self):
        from repro.workloads import KINDS

        assert len(ALL_SCENARIOS) == 9
        assert {s.kind for s in list_scenarios()} == set(KINDS)

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_build_workload_returns_a_workload(self, name):
        workload = build_workload(spec_of(name, **FAST))
        assert isinstance(workload, Workload)
        assert isinstance(workload, (MachineWorkload, PopulationWorkload))
        assert workload.spec is not None
        assert workload.options.max_steps == FAST["max_steps"]

    def test_build_workload_convenience_form(self):
        workload = build_workload("exists-label", {"a": 0}, **FAST)
        assert workload.expected is False
        assert workload.run(3).verdict is Verdict.REJECT
