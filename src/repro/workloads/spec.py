"""Declarative instance descriptors: one picklable recipe per workload.

An :class:`InstanceSpec` is the single serialisable description of one
concrete workload instance — which scenario, with which full parameter
assignment, under which engine options.  It is plain data: dict/JSON
round-trippable (like :class:`~repro.experiments.spec.ExperimentSpec`) and
picklable by construction, so *every* workload kind can cross a process
boundary as a spec regardless of whether its machine or protocol closes over
lambdas.  :func:`repro.workloads.base.build_workload` turns a spec into a
runnable :class:`~repro.workloads.base.Workload`.

Validation happens at spec level, not inside per-kind run paths:

* parameter keys are merged against the scenario defaults and unknown keys
  are rejected (:func:`~repro.workloads.registry.validated_params`);
* **rendez-vous handshake points with a stabilisation window below 2000
  steps** emit a :class:`SpecValidationWarning` — the Figure 4 handshake has
  long transient consensus stretches, and a narrow window falsely declares
  them stabilised on some seeds (the documented footgun that previously had
  to be patched per sweep with ``stability_window`` overrides).
"""

from __future__ import annotations

import hashlib
import json
import sys
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.workloads.registry import get_scenario, validated_params

_ENGINE_FIELDS = {"max_steps", "stability_window", "backend", "record_trace"}
_SPEC_FIELDS = {"scenario", "params", "engine"}

#: The handshake compilations need at least this stabilisation window: the
#: Figure 4 five-status handshake passes through long transient consensus
#: stretches, and narrower windows falsely stabilise them on some seeds.
RENDEZVOUS_MIN_WINDOW = 2000


#: One ``warn_explicit`` registry per dedup key.  The registries inherit the
#: stdlib semantics wholesale: the ``default`` action emits once per key,
#: ``always`` re-emits, ``ignore`` suppresses without consuming the key, and
#: every ``catch_warnings`` block resets them via the filters version.
_keyed_registries: dict[object, dict] = {}


class SpecValidationWarning(UserWarning):
    """A spec is valid but uses settings with a documented failure mode."""


def warn_once_per_key(
    key: object,
    message: str,
    category: type[Warning] = UserWarning,
    stacklevel: int = 1,
) -> None:
    """Warn with dedup keyed by ``key`` instead of the stdlib call-site registry.

    The stdlib registry swallows any warning whose rendered message repeats,
    so two distinct specs that happen to format the same advisory would warn
    only once per long-lived worker process.  ``key`` should be a hashable
    *(label, identity)* pair — e.g. ``("rendezvous-window", spec.key())`` —
    so that *distinct* identities each warn once per process while repeats
    of the *same* identity stay quiet.  Filter semantics match
    ``warnings.warn``: ``always`` re-emits every call, ``ignore`` stays
    silent (without marking the key as emitted), ``error`` raises, and
    entering a ``catch_warnings`` block resets the dedup state, so tests
    observe the warning regardless of what warned earlier.

    ``stacklevel`` selects the frame reported as the warning's location,
    counted exactly like ``warnings.warn`` (``1`` = the caller).
    """
    frame = sys._getframe(stacklevel)
    registry = _keyed_registries.setdefault(key, {})
    warnings.warn_explicit(
        message,
        category,
        filename=frame.f_code.co_filename,
        lineno=frame.f_lineno,
        module=frame.f_globals.get("__name__", "<unknown>"),
        registry=registry,
    )


def canonical_json(value: object) -> str:
    """The canonical serialisation used for hashing and grouping keys."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class EngineOptions:
    """How to run an instance: step bounds, backend, trace recording.

    Every run draws a private seeded random-exclusive schedule; runs under
    any other schedule generator go through
    :meth:`~repro.workloads.machine.MachineWorkload.run_with_schedule`.

    ``backend`` names a simulation backend (``"auto"``, ``"per-node"``,
    ``"compiled"``, ``"count"``).  Population workloads have one engine:
    they accept and ignore these names, so a sweep's backend column does not
    apply to them, and refuse any other.

    ``stability_window`` is at least 1.  A population workload waits
    ``max(stability_window, 10·n)`` steps
    (:meth:`~repro.population.protocol.PopulationProtocol.consensus_window`),
    so ``stability_window=1`` asks for the 10·n floor alone.
    """

    max_steps: int = 20_000
    stability_window: int = 300
    backend: str = "auto"
    record_trace: bool = False

    def __post_init__(self) -> None:
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if self.stability_window < 1:
            raise ValueError("stability_window must be at least 1")

    def to_dict(self) -> dict:
        """The JSON-ready field dict (inverse of :meth:`from_dict`)."""
        return {
            "max_steps": self.max_steps,
            "stability_window": self.stability_window,
            "backend": self.backend,
            "record_trace": self.record_trace,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "EngineOptions":
        """Options from a (possibly partial) dict; unknown fields are rejected."""
        unknown = set(data) - _ENGINE_FIELDS
        if unknown:
            raise ValueError(f"unknown engine option fields {sorted(unknown)}")
        return cls(
            max_steps=data.get("max_steps", 20_000),
            stability_window=data.get("stability_window", 300),
            backend=data.get("backend", "auto"),
            record_trace=data.get("record_trace", False),
        )


@dataclass(frozen=True)
class InstanceSpec:
    """One workload instance, declaratively: scenario + params + engine options.

    ``params`` is normalised to the *full* parameter assignment (scenario
    defaults merged with the given overrides), so a spec is self-describing
    and two specs describing the same instance compare (and hash) equal.
    Construction validates: the scenario must be registered, parameter keys
    must be accepted, and the workload-specific guards of the module
    docstring apply.
    """

    scenario: str
    params: dict = field(default_factory=dict)
    engine: EngineOptions = field(default_factory=EngineOptions)

    def __post_init__(self) -> None:
        scenario = get_scenario(self.scenario)
        object.__setattr__(self, "params", validated_params(self.scenario, self.params))
        if not isinstance(self.engine, EngineOptions):
            object.__setattr__(self, "engine", EngineOptions.from_dict(self.engine))
        self._validate_workload_guards(scenario.kind)

    def __hash__(self) -> int:
        # The frozen dataclass would auto-derive a field-wise hash, but the
        # params dict is unhashable; hash the canonical JSON instead so specs
        # work as set members / dict keys, matching their value equality.
        return hash((self.scenario, self.params_key(), self.engine))

    def _validate_workload_guards(self, kind: str) -> None:
        if kind == "rendezvous" and self.engine.stability_window < RENDEZVOUS_MIN_WINDOW:
            # Dedup by spec identity, not by the stdlib call-site registry:
            # two distinct narrow-window specs format byte-identical advisories
            # once the scenario and window coincide, and even when they differ
            # the warning must survive a long-lived worker that already warned
            # for another spec.  See warn_once_per_key.
            warn_once_per_key(
                ("rendezvous-window", self.key()),
                f"rendezvous scenario {self.scenario!r} with "
                f"stability_window={self.engine.stability_window}: the Figure 4 "
                f"handshake has transient consensus stretches that outlast "
                f"windows below {RENDEZVOUS_MIN_WINDOW} steps on some seeds, so "
                f"the run may falsely report stabilisation; widen the window",
                SpecValidationWarning,
                stacklevel=3,
            )

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """The JSON-ready spec dict (inverse of :meth:`from_dict`)."""
        return {
            "scenario": self.scenario,
            "params": dict(self.params),
            "engine": self.engine.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "InstanceSpec":
        """A validated spec from its dict form; unknown fields are rejected."""
        unknown = set(data) - _SPEC_FIELDS
        if unknown:
            raise ValueError(f"unknown instance spec fields {sorted(unknown)}")
        if "scenario" not in data:
            raise ValueError("an instance spec needs a 'scenario' name")
        return cls(
            scenario=data["scenario"],
            params=dict(data.get("params", {})),
            engine=EngineOptions.from_dict(data.get("engine", {})),
        )

    def to_json(self, indent: int | None = 2) -> str:
        """The spec as a JSON document (see ``docs/spec-format.md``)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "InstanceSpec":
        """A validated spec parsed from its JSON document form."""
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------ #
    # Identity and construction
    # ------------------------------------------------------------------ #
    @property
    def kind(self) -> str:
        """The workload family of the underlying scenario."""
        return get_scenario(self.scenario).kind

    def key(self) -> str:
        """Content hash of the canonical spec (cache / store identity)."""
        digest = hashlib.sha256(canonical_json(self.to_dict()).encode()).hexdigest()
        return digest[:12]

    def params_key(self) -> str:
        """The canonical JSON of the full parameter assignment."""
        return canonical_json(self.params)

    def build(self) -> "object":
        """The runnable :class:`~repro.workloads.base.Workload` of this spec."""
        from repro.workloads.base import build_workload

        return build_workload(self)
