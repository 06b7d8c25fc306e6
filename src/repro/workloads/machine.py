"""Machine-backed workloads: live machines and pre-compiled shippable forms.

:class:`MachineWorkload` wraps a :class:`~repro.core.machine.DistributedMachine`
on a concrete graph — this covers the detection machines *and* every
extension pipeline (the broadcast / absence / rendez-vous compilations all
produce plain machines).  :class:`CompiledMachineWorkload` is its picklable
stand-in: a :class:`~repro.core.compile.CompiledMachine` (plain data plus a
registry-backed loader) and the graph, which pickles as a whole.  The sweep
executor does not ship it: its chunks build every workload from the spec.

``run_with_schedule`` here is *the* machine run surface: backend resolution
plus dispatch.  :meth:`MachineWorkload.run` calls it with a seeded
random-exclusive schedule; callers with an ad-hoc schedule generator
(synchronous, round-robin, starving, a biased subclass) pass it in
directly, and it runs on the per-node reference.
"""

from __future__ import annotations

import functools
import json
import pickle
import random
from dataclasses import dataclass, field

from repro.core.backends import resolve_backend
from repro.core.compile import CompiledMachine, compile_machine
from repro.core.machine import DistributedMachine
from repro.core.results import RunResult
from repro.core.scheduler import RandomExclusiveSchedule, ScheduleGenerator
from repro.obs.tracing import span
from repro.workloads.base import Workload
from repro.workloads.registry import get_scenario, validated_params
from repro.workloads.spec import EngineOptions, InstanceSpec


#: The seeded schedule whose per-run backend names a batch's row engine.
_PROBE_SCHEDULE = RandomExclusiveSchedule(seed=0)


def _scenario_machine(name: str, params_json: str) -> DistributedMachine:
    """Rebuild just the machine of a registry scenario.

    Module-level with plain-string arguments so a ``functools.partial`` over
    it pickles by reference; each unpickled copy of a
    :class:`~repro.core.compile.CompiledMachine` calls it once, to re-bind δ
    on its first unmemoised view, and so rebuilds the scenario's graph too.
    Goes through the registry builder directly — not through spec
    validation, which building the shippable form already ran.
    """
    params = validated_params(name, json.loads(params_json))
    workload = get_scenario(name).builder(params)
    return workload.machine


@dataclass
class MachineWorkload(Workload):
    """A distributed machine on a concrete graph.

    :meth:`run` draws a seeded random-exclusive schedule on the backend the
    engine options name; runs under any other schedule generator go through
    :meth:`run_with_schedule`.
    """

    machine: DistributedMachine
    graph: object  # LabeledGraph | ImplicitCliqueGraph (same read interface)
    options: EngineOptions = field(default_factory=EngineOptions)
    expected: bool | None = None
    spec: InstanceSpec | None = None

    # ------------------------------------------------------------------ #
    def run(self, seed: int) -> RunResult:
        """One Monte-Carlo run: build the seeded schedule, resolve, dispatch."""
        return self.run_with_schedule(RandomExclusiveSchedule(seed=seed))

    def run_with_schedule(self, schedule: ScheduleGenerator) -> RunResult:
        """Resolve a backend and execute — the single machine run path."""
        options = self.options
        backend = resolve_backend(
            options.backend, self.machine, self.graph, schedule, options.record_trace
        )
        with span("run", engine=backend.engine, machine=self.machine.name):
            return backend.run(
                self.machine,
                self.graph,
                schedule,
                max_steps=options.max_steps,
                stability_window=options.stability_window,
                record_trace=options.record_trace,
            )

    def _row_backend(self):
        """``(backend, None)`` if :meth:`run` runs on a row engine, else
        ``(None, reason)``: the per-run ladder, asked for a seeded schedule."""
        options = self.options
        if type(self) is not MachineWorkload:
            return None, "workload-kind"
        if options.record_trace:
            return None, "record-trace"
        try:
            backend = resolve_backend(
                options.backend, self.machine, self.graph, _PROBE_SCHEDULE
            )
        except Exception:  # noqa: BLE001 - every run raises it itself
            return None, "resolution-error"
        if backend.engine not in ("vector-batch", "vector-pernode"):
            return None, f"backend-{backend.name}"
        return backend, None

    def row_plan(self) -> tuple[str | None, str | None]:
        """The engine label of the backend :meth:`run` resolves, if a row engine."""
        backend, reason = self._row_backend()
        return (None, reason) if backend is None else (backend.engine, None)

    def rows(self):
        """The row engine of that backend, built by the backend's own ``rows``."""
        backend, reason = self._row_backend()
        if backend is None:
            raise ValueError(
                f"workload {type(self).__name__} is not batch-vectorizable ({reason})"
            )
        options = self.options
        return backend.rows(
            self.machine, self.graph, options.max_steps, options.stability_window
        )

    # ------------------------------------------------------------------ #
    def shippable(self) -> "Workload | None":
        """A pre-compiled picklable stand-in, or ``None``.

        Only declarative workloads whose ``"auto"`` backend resolves to the
        compiled per-node engine ship: population-style clique instances are
        served by the (faster) count backend, explicit backend choices must
        keep resolving inside the worker, and a workload without a spec has
        no registry recipe for the δ re-binding loader.  When a stand-in *is*
        returned, running it is bit-identical to running this workload —
        same engine, same random stream.
        """
        if self.spec is None:
            return None
        return self.ship_as(self.spec.scenario, self.spec.params)

    def ship_as(self, scenario: str, params) -> "CompiledMachineWorkload | None":
        """The shippable form under an explicit registry identity."""
        options = self.options
        if options.backend != "auto" or self.row_plan()[0] != "vector-pernode":
            return None
        loader = functools.partial(
            _scenario_machine, scenario, json.dumps(dict(params), sort_keys=True)
        )
        shipped = CompiledMachineWorkload(
            compiled=compile_machine(self.machine, loader=loader),
            graph=self.graph,
            options=options,
            expected=self.expected,
            spec=self.spec,
        )
        try:
            pickle.dumps(shipped)
        except Exception:  # noqa: BLE001 - unpicklable graph/states: rebuild instead
            return None
        return shipped


@dataclass
class CompiledMachineWorkload(Workload):
    """A machine workload pre-compiled so that it pickles as a whole.

    Carries a :class:`~repro.core.compile.CompiledMachine` — plain data plus
    a registry-backed loader — instead of a live machine, so the whole
    workload pickles.  Runs execute directly on the per-node row engine
    (:mod:`repro.core.vector_pernode`) as a batch of one — the engine the
    compiled backend hands a seeded random-exclusive run to, so a run is
    bit-identical to what ``backend="auto"`` does for the instances
    :meth:`MachineWorkload.ship_as` produces; the declarative ``backend``
    option is therefore intentionally not re-consulted here.  ``run_many``
    dispatches to the same engine, for which such a workload is always
    eligible by construction.
    """

    compiled: CompiledMachine
    graph: object  # LabeledGraph (same read interface as MachineWorkload)
    options: EngineOptions = field(default_factory=EngineOptions)
    expected: bool | None = None
    spec: InstanceSpec | None = None

    def run(self, seed: int) -> RunResult:
        """One run on the per-node row engine (see the class docstring)."""
        with span("run", engine="vector-pernode", machine=self.compiled.name):
            return self.rows().run([random.Random(seed)])[0]

    def row_plan(self) -> tuple[str | None, str | None]:
        """Always the per-node rung (see :meth:`Workload.row_plan`)."""
        if type(self) is not CompiledMachineWorkload:
            return None, "workload-kind"
        return "vector-pernode", None

    def rows(self):
        """The per-node row engine over the shipped compiled table."""
        from repro.core.vector_pernode import _PerNodeRows

        options = self.options
        return _PerNodeRows(
            self.compiled, self.graph, options.max_steps, options.stability_window
        )
