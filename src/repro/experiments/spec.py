"""Declarative experiment specs and their deterministic task expansion.

An :class:`ExperimentSpec` describes *what* to run — a list of scenario
sweeps, each a parameter grid over a registered scenario — together with the
Monte-Carlo settings (runs per grid point, base seed, step bounds, backend).
Specs round-trip losslessly through plain dicts and JSON, which is what the
``python -m repro run`` CLI consumes and what the result store keys on:
:meth:`ExperimentSpec.key` is a SHA-256 content hash of the canonical JSON
form, so the same spec always maps to the same store file and a re-run of an
interrupted sweep resumes instead of recomputing.

Expansion is deterministic: grid points enumerate in sweep order with
parameter keys sorted and values in their listed order; point ``i`` draws its
seed as ``derive_seed(base_seed, i)`` and run ``j`` of that point as
``derive_seed(point_seed, j)`` (:func:`repro.core.batch.derive_seed`), so any
single task is reproducible in isolation — the property the executor's
serial/parallel determinism contract rests on.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from repro.core.batch import derive_seed
from repro.workloads.spec import canonical_json

_SPEC_FIELDS = {
    "name",
    "sweeps",
    "runs",
    "base_seed",
    "max_steps",
    "stability_window",
    "backend",
}
_SWEEP_FIELDS = {"scenario", "grid", "runs", "max_steps", "stability_window"}
_TYPE_NAMES = {Mapping: "an object", list: "a list", int: "an integer", str: "a string"}


def _checked(value, kind: type, what: str, optional: bool = False):
    """``value`` if it is a JSON ``kind`` (a bool is no integer), else ``ValueError``.

    Spec documents are user input: a wrongly typed field must end in an
    ``invalid spec`` message, not in a ``TypeError`` deep in validation.
    """
    if optional and value is None:
        return value
    if kind is list:
        ok = isinstance(value, (list, tuple))
    else:
        ok = isinstance(value, kind) and not (kind is int and isinstance(value, bool))
    if not ok:
        raise ValueError(f"{what} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return value


@dataclass(frozen=True)
class SweepSpec:
    """One scenario sweep: a parameter grid plus optional per-sweep overrides.

    ``grid`` maps parameter names to the list of values to sweep; scalar
    values are accepted as singletons.  ``runs`` / ``max_steps`` /
    ``stability_window`` override the spec-level settings for this sweep only
    (e.g. the rendez-vous handshake compilations have long transient
    consensus stretches and need a wider window than simple detectors).
    """

    scenario: str
    grid: Mapping[str, list] = field(default_factory=dict)
    runs: int | None = None
    max_steps: int | None = None
    stability_window: int | None = None

    def __post_init__(self) -> None:
        normalised = {
            key: list(values) if isinstance(values, (list, tuple)) else [values]
            for key, values in dict(self.grid).items()
        }
        for key, values in normalised.items():
            if not values:
                raise ValueError(f"sweep over {self.scenario!r}: empty grid for {key!r}")
        object.__setattr__(self, "grid", normalised)
        for name in ("runs", "max_steps", "stability_window"):
            override = getattr(self, name)
            if override is not None and override < 1:
                raise ValueError(f"sweep over {self.scenario!r}: {name} must be at least 1")

    def to_dict(self) -> dict:
        out: dict = {"scenario": self.scenario, "grid": {k: list(v) for k, v in self.grid.items()}}
        if self.runs is not None:
            out["runs"] = self.runs
        if self.max_steps is not None:
            out["max_steps"] = self.max_steps
        if self.stability_window is not None:
            out["stability_window"] = self.stability_window
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "SweepSpec":
        _checked(data, Mapping, "a sweep")
        unknown = set(data) - _SWEEP_FIELDS
        if unknown:
            raise ValueError(f"unknown sweep fields {sorted(unknown)}")
        if "scenario" not in data:
            raise ValueError("a sweep needs a 'scenario' name")
        scenario = _checked(data["scenario"], str, "a sweep's 'scenario'")
        where = f"sweep over {scenario!r}:"
        overrides = {
            name: _checked(data.get(name), int, f"{where} {name!r}", optional=True)
            for name in ("runs", "max_steps", "stability_window")
        }
        grid = _checked(data.get("grid", {}), Mapping, f"{where} 'grid'")
        return cls(scenario=scenario, grid=grid, **overrides)

    def points(self) -> list[dict]:
        """The parameter dicts of this sweep's grid, in deterministic order."""
        if not self.grid:
            return [{}]
        keys = sorted(self.grid)
        return [
            dict(zip(keys, combo))
            for combo in itertools.product(*(self.grid[key] for key in keys))
        ]


@dataclass(frozen=True)
class GridPoint:
    """One expanded grid point: a scenario instance recipe plus its seed."""

    index: int
    scenario: str
    params: dict
    runs: int
    max_steps: int
    stability_window: int
    seed: int

    @property
    def params_key(self) -> str:
        return canonical_json(self.params)


@dataclass(frozen=True)
class RunTask:
    """One unit of executor work: a single Monte-Carlo run of a grid point."""

    task_id: str
    point_index: int
    scenario: str
    params: dict
    run_index: int
    seed: int
    max_steps: int
    stability_window: int
    backend: str

    def to_dict(self) -> dict:
        return {
            "task_id": self.task_id,
            "point_index": self.point_index,
            "scenario": self.scenario,
            "params": dict(self.params),
            "run_index": self.run_index,
            "seed": self.seed,
            "max_steps": self.max_steps,
            "stability_window": self.stability_window,
            "backend": self.backend,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunTask":
        return cls(**dict(data))

    def instance_spec(self):
        """The :class:`~repro.workloads.spec.InstanceSpec` this task denotes.

        A task is an instance spec plus a seed: scenario, parameters and the
        per-task engine options map one-to-one onto the declarative workload
        descriptor (running its full spec validation), which is what the
        executor's workers build their :class:`~repro.workloads.base.Workload`
        from.
        """
        from repro.workloads.spec import EngineOptions, InstanceSpec

        return InstanceSpec(
            scenario=self.scenario,
            params=dict(self.params),
            engine=EngineOptions(
                max_steps=self.max_steps,
                stability_window=self.stability_window,
                backend=self.backend,
            ),
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative sweep description; see the module docstring."""

    name: str
    sweeps: tuple[SweepSpec, ...]
    runs: int = 5
    base_seed: int = 0
    max_steps: int = 20_000
    stability_window: int = 300
    backend: str = "auto"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a spec needs a name")
        sweeps = tuple(
            s if isinstance(s, SweepSpec) else SweepSpec.from_dict(s) for s in self.sweeps
        )
        if not sweeps:
            raise ValueError("a spec needs at least one sweep")
        object.__setattr__(self, "sweeps", sweeps)
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if self.stability_window < 1:
            raise ValueError("stability_window must be at least 1")

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "sweeps": [sweep.to_dict() for sweep in self.sweeps],
            "runs": self.runs,
            "base_seed": self.base_seed,
            "max_steps": self.max_steps,
            "stability_window": self.stability_window,
            "backend": self.backend,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ExperimentSpec":
        _checked(data, Mapping, "a spec")
        unknown = set(data) - _SPEC_FIELDS
        if unknown:
            raise ValueError(f"unknown spec fields {sorted(unknown)}")
        if "name" not in data or "sweeps" not in data:
            raise ValueError("a spec needs 'name' and 'sweeps'")
        sweeps = _checked(data["sweeps"], list, "'sweeps'")
        return cls(
            name=_checked(data["name"], str, "'name'"),
            sweeps=tuple(SweepSpec.from_dict(s) for s in sweeps),
            runs=_checked(data.get("runs", 5), int, "'runs'"),
            base_seed=_checked(data.get("base_seed", 0), int, "'base_seed'"),
            max_steps=_checked(data.get("max_steps", 20_000), int, "'max_steps'"),
            stability_window=_checked(
                data.get("stability_window", 300), int, "'stability_window'"
            ),
            backend=_checked(data.get("backend", "auto"), str, "'backend'"),
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentSpec":
        return cls.from_json(Path(path).read_text())

    # ------------------------------------------------------------------ #
    # Identity and expansion
    # ------------------------------------------------------------------ #
    def key(self) -> str:
        """Content hash of the canonical spec: the result-store identity.

        Hashed once per instance (the spec is frozen); a copy made with
        ``dataclasses.replace`` is a new instance and hashes afresh.
        """
        return self._key

    @cached_property
    def _key(self) -> str:
        digest = hashlib.sha256(canonical_json(self.to_dict()).encode()).hexdigest()
        return digest[:12]

    def points(self) -> list[GridPoint]:
        """All grid points, in deterministic enumeration order."""
        points: list[GridPoint] = []
        index = 0
        for sweep in self.sweeps:
            runs = sweep.runs if sweep.runs is not None else self.runs
            max_steps = sweep.max_steps if sweep.max_steps is not None else self.max_steps
            stability_window = (
                sweep.stability_window
                if sweep.stability_window is not None
                else self.stability_window
            )
            for params in sweep.points():
                points.append(
                    GridPoint(
                        index=index,
                        scenario=sweep.scenario,
                        params=params,
                        runs=runs,
                        max_steps=max_steps,
                        stability_window=stability_window,
                        seed=derive_seed(self.base_seed, index),
                    )
                )
                index += 1
        return points

    def expand(self) -> list[RunTask]:
        """Per-run tasks for the whole spec, in deterministic order."""
        tasks: list[RunTask] = []
        for point in self.points():
            for run_index in range(point.runs):
                tasks.append(
                    RunTask(
                        task_id=f"{point.scenario}:{point.index}:{run_index}",
                        point_index=point.index,
                        scenario=point.scenario,
                        params=dict(point.params),
                        run_index=run_index,
                        seed=derive_seed(point.seed, run_index),
                        max_steps=point.max_steps,
                        stability_window=point.stability_window,
                        backend=self.backend,
                    )
                )
        return tasks
