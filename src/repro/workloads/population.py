"""Population-protocol workloads (clique populations under pair interactions)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.labels import LabelCount
from repro.core.results import RunResult
from repro.obs.metrics import enable_if, get_metrics
from repro.obs.tracing import span
from repro.workloads.base import Workload
from repro.workloads.spec import EngineOptions, InstanceSpec

#: Machine-backend names map to the population engines' ``"auto"`` — the
#: population kinds have no per-node/compiled/count ladder, so a sweep's
#: backend column does not apply to them.  The population-specific names
#: (``"agents"``, ``"counts"``) pass through, and anything else is handed
#: to ``PopulationProtocol.simulate`` to reject.
_MACHINE_BACKENDS = ("auto", "per-node", "compiled", "count")


@dataclass
class PopulationWorkload(Workload):
    """A population protocol on a label count (clique interactions).

    The protocol's own engines (see
    :meth:`~repro.population.protocol.PopulationProtocol.simulate`) do the
    running: the ``"counts"``/``"auto"`` method is a batch of one on the
    count-level row engine that ``run_many`` batches on, and ``"agents"`` is
    the reference agent array.  This class gives them the uniform
    ``run``/``run_many`` surface.  The engines track consensus with their
    10·n streak window, so ``stability_window`` does not apply; population
    runs report no final configuration (``final_configuration`` is an empty
    tuple).
    """

    protocol: object  # PopulationProtocol (duck-typed; imported lazily by builders)
    count: LabelCount
    options: EngineOptions = field(default_factory=EngineOptions)
    expected: bool | None = None
    spec: InstanceSpec | None = None

    def run(self, seed: int) -> RunResult:
        """One Monte-Carlo run through the protocol's own simulation engines."""
        if self.options.schedule != "random-exclusive":
            # Mirrors the spec-level guard for workloads constructed directly:
            # a declared schedule must never be silently dropped.
            raise ValueError(
                f"population workloads cannot take "
                f"schedule={self.options.schedule!r}: pair interactions have "
                f"no other schedule semantics"
            )
        enable_if(self.options.metrics)
        method = self._method()
        # The counts method runs on the row engine, which counts its own run.
        routed = method in ("auto", "counts")
        engine = "vector-batch" if routed else f"population-{method}"
        with span("run", engine=engine):
            verdict, steps = self.protocol.simulate(
                self.count,
                max_steps=self.options.max_steps,
                seed=seed,
                method=method,
                memo_cap=self.options.memo_cap,
            )
        metrics = get_metrics()
        if metrics.enabled and not routed:
            metrics.counter("engine.runs", engine=engine).inc()
            metrics.counter("engine.steps", engine=engine).inc(steps)
        return RunResult(verdict=verdict, steps=steps, final_configuration=())

    def _method(self) -> str:
        backend = self.options.backend
        return "auto" if backend in _MACHINE_BACKENDS else backend

    def row_plan(self) -> tuple[str | None, str | None]:
        """The count-level rung, under the counts method and two or more agents."""
        if type(self) is not PopulationWorkload:
            return None, "workload-kind"
        if self.options.schedule != "random-exclusive":
            return None, "schedule-kind"
        if self._method() not in ("auto", "counts"):
            return None, "method-kind"
        if self.count.total() < 2:
            return None, "population-too-small"
        return "vector-batch", None

    def rows(self):
        """The rows of the protocol's counts engine, as ``simulate`` builds them."""
        options = self.options
        return self.protocol.rows(self.count, options.max_steps, options.memo_cap)
