"""Spec round-trips, content-hash keys and deterministic expansion."""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.core.batch import derive_seed
from repro.experiments.spec import ExperimentSpec, SweepSpec
from repro.workloads.spec import canonical_json


def sample_spec() -> ExperimentSpec:
    return ExperimentSpec.from_dict(
        {
            "name": "sample",
            "sweeps": [
                {"scenario": "exists-label", "grid": {"a": [0, 1], "b": [4]}},
                {"scenario": "population-parity", "grid": {"a": [2, 3], "b": [2]}, "runs": 2},
            ],
            "runs": 3,
            "base_seed": 11,
            "max_steps": 5_000,
            "stability_window": 100,
            "backend": "auto",
        }
    )


class TestRoundTrip:
    def test_dict_round_trip_is_lossless(self):
        spec = sample_spec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        assert ExperimentSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()

    def test_json_round_trip_is_lossless(self):
        spec = sample_spec()
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_file_round_trip(self, tmp_path):
        spec = sample_spec()
        path = spec.save(tmp_path / "spec.json")
        assert ExperimentSpec.load(path) == spec

    def test_scalar_grid_values_become_singletons(self):
        sweep = SweepSpec(scenario="exists-label", grid={"a": 1, "b": [4]})
        assert sweep.grid == {"a": [1], "b": [4]}

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown spec fields"):
            ExperimentSpec.from_dict(
                {"name": "x", "sweeps": [{"scenario": "s", "grid": {}}], "bogus": 1}
            )
        with pytest.raises(ValueError, match="unknown sweep fields"):
            ExperimentSpec.from_dict(
                {"name": "x", "sweeps": [{"scenario": "s", "grid": {}, "nope": 2}]}
            )

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(name="x", sweeps=())
        with pytest.raises(ValueError):
            ExperimentSpec.from_dict({"name": "x", "sweeps": []})

    def test_invalid_settings_rejected(self):
        base = {"name": "x", "sweeps": [{"scenario": "s", "grid": {"a": [1]}}]}
        for bad in ({"runs": 0}, {"max_steps": 0}, {"stability_window": 0}):
            with pytest.raises(ValueError):
                ExperimentSpec.from_dict({**base, **bad})
        with pytest.raises(ValueError, match="stability_window"):
            ExperimentSpec.from_dict(
                {
                    "name": "x",
                    "sweeps": [{"scenario": "s", "grid": {"a": [1]}, "stability_window": 0}],
                }
            )


class TestKey:
    def test_key_is_stable_across_instances(self):
        assert sample_spec().key() == sample_spec().key()

    def test_key_changes_with_content(self):
        spec = sample_spec()
        other = ExperimentSpec.from_dict({**spec.to_dict(), "base_seed": 12})
        assert spec.key() != other.key()

    def test_key_is_the_content_hash_computed_once_per_instance(self, monkeypatch):
        import repro.experiments.spec as spec_module

        spec = sample_spec()
        digest = hashlib.sha256(canonical_json(spec.to_dict()).encode()).hexdigest()
        calls = []

        def counting(value):
            calls.append(value)
            return canonical_json(value)

        monkeypatch.setattr(spec_module, "canonical_json", counting)
        assert [spec.key() for _ in range(3)] == [digest[:12]] * 3
        assert len(calls) == 1

    def test_replace_gives_a_fresh_key(self):
        spec = sample_spec()
        spec.key()
        other = dataclasses.replace(spec, base_seed=spec.base_seed + 1)
        assert other.key() != spec.key()
        assert other.key() == ExperimentSpec.from_dict(other.to_dict()).key()

    def test_key_ignores_dict_insertion_order(self):
        data = sample_spec().to_dict()
        reordered = dict(reversed(list(data.items())))
        assert ExperimentSpec.from_dict(reordered).key() == sample_spec().key()


class TestExpansion:
    def test_expansion_is_deterministic(self):
        first = sample_spec().expand()
        second = sample_spec().expand()
        assert first == second

    def test_point_and_run_counts(self):
        spec = sample_spec()
        points = spec.points()
        assert [p.scenario for p in points] == [
            "exists-label",
            "exists-label",
            "population-parity",
            "population-parity",
        ]
        # per-sweep runs override: 3 + 3 + 2 + 2
        assert len(spec.expand()) == 10

    def test_grid_enumeration_order_sorted_keys_listed_values(self):
        spec = ExperimentSpec.from_dict(
            {
                "name": "order",
                "sweeps": [{"scenario": "s", "grid": {"b": [9, 8], "a": [1, 2]}}],
            }
        )
        params = [p.params for p in spec.points()]
        assert params == [
            {"a": 1, "b": 9},
            {"a": 1, "b": 8},
            {"a": 2, "b": 9},
            {"a": 2, "b": 8},
        ]

    def test_seeds_derive_from_base_seed(self):
        spec = sample_spec()
        tasks = spec.expand()
        point0 = spec.points()[0]
        assert point0.seed == derive_seed(spec.base_seed, 0)
        assert tasks[0].seed == derive_seed(point0.seed, 0)
        assert tasks[1].seed == derive_seed(point0.seed, 1)
        # Tasks are reproducible in isolation: ids encode scenario/point/run.
        assert tasks[0].task_id == "exists-label:0:0"
        assert tasks[-1].task_id == "population-parity:3:1"

    def test_per_sweep_overrides(self):
        spec = ExperimentSpec.from_dict(
            {
                "name": "override",
                "runs": 3,
                "max_steps": 1_000,
                "stability_window": 100,
                "sweeps": [
                    {"scenario": "s1", "grid": {"a": [1]}},
                    {
                        "scenario": "s2",
                        "grid": {"a": [1]},
                        "runs": 7,
                        "max_steps": 9_000,
                        "stability_window": 2_000,
                    },
                ],
            }
        )
        default_point, overridden_point = spec.points()
        assert (default_point.runs, default_point.max_steps, default_point.stability_window) == (
            3,
            1_000,
            100,
        )
        assert (
            overridden_point.runs,
            overridden_point.max_steps,
            overridden_point.stability_window,
        ) == (7, 9_000, 2_000)
        tasks = spec.expand()
        assert tasks[-1].stability_window == 2_000
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_task_dict_round_trip(self):
        task = sample_spec().expand()[0]
        from repro.experiments.spec import RunTask

        assert RunTask.from_dict(task.to_dict()) == task
