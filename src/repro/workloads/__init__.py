"""One picklable instance descriptor + one run surface for every workload.

The paper spans one conceptual object — a weak asynchronous model deciding a
property on a labelled graph — and this package gives the repo one API for
it:

* :class:`~repro.workloads.spec.InstanceSpec` — a declarative, picklable,
  JSON round-trippable description of one workload instance (scenario name +
  full parameter assignment + :class:`~repro.workloads.spec.EngineOptions`),
  with validation at the spec layer (unknown parameters, the rendez-vous
  stabilisation-window footgun);
* :class:`~repro.workloads.base.Workload` — the uniform run surface:
  ``run(seed) -> RunResult`` and ``run_many(...) -> BatchResult``,
  implemented once for distributed machines, compiled machines, the
  broadcast/absence/rendez-vous compilation pipelines and population
  protocols; :func:`~repro.workloads.base.build_workload` maps a spec to its
  workload, and ``Workload.shippable()`` answers process-boundary crossing
  uniformly;
* :mod:`~repro.workloads.registry` / :mod:`~repro.workloads.catalog` — the
  scenario registry.

Quick use::

    from repro.workloads import InstanceSpec, build_workload

    spec = InstanceSpec("exists-label", {"a": 1, "b": 5})
    workload = build_workload(spec)
    result = workload.run(seed=42)          # RunResult
    batch = workload.run_many(runs=20)      # BatchResult
"""

from repro.workloads.base import Workload, build_workload
from repro.workloads.machine import CompiledMachineWorkload, MachineWorkload
from repro.workloads.population import PopulationWorkload
from repro.workloads.registry import (
    KINDS,
    SCENARIOS,
    Scenario,
    get_scenario,
    list_scenarios,
    register_scenario,
    validated_params,
)
from repro.workloads.spec import (
    RENDEZVOUS_MIN_WINDOW,
    EngineOptions,
    InstanceSpec,
    SpecValidationWarning,
)

# Populate the registry with the built-in scenarios.
from repro.workloads import catalog as _catalog  # noqa: E402,F401  (import side effect)

__all__ = [
    "KINDS",
    "RENDEZVOUS_MIN_WINDOW",
    "SCENARIOS",
    "CompiledMachineWorkload",
    "EngineOptions",
    "InstanceSpec",
    "MachineWorkload",
    "PopulationWorkload",
    "Scenario",
    "SpecValidationWarning",
    "Workload",
    "build_workload",
    "get_scenario",
    "list_scenarios",
    "register_scenario",
    "validated_params",
]
