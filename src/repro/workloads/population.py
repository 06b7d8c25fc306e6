"""Population-protocol workloads (clique populations under pair interactions)."""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.labels import LabelCount
from repro.core.results import RunResult
from repro.obs.tracing import span
from repro.workloads.base import Workload
from repro.workloads.spec import EngineOptions, InstanceSpec

#: The backend names a population workload accepts and ignores: the
#: population kinds have no per-node/compiled/count ladder, so a sweep's
#: backend column does not apply to them.
_MACHINE_BACKENDS = ("auto", "per-node", "compiled", "count")


@dataclass
class PopulationWorkload(Workload):
    """A population protocol on a label count (clique interactions).

    Runs execute on the protocol's count-level rows
    (:meth:`~repro.population.protocol.PopulationProtocol.rows`): a
    :meth:`run` is a batch of one, and ``run_many`` batches its seeds on the
    same rows.  The consensus window is ``stability_window``, but never
    below ``10·n`` (see
    :meth:`~repro.population.protocol.PopulationProtocol.consensus_window`).
    Population runs report no final configuration (``final_configuration``
    is an empty tuple).
    """

    protocol: object  # PopulationProtocol (duck-typed; imported lazily by builders)
    count: LabelCount
    options: EngineOptions = field(default_factory=EngineOptions)
    expected: bool | None = None
    spec: InstanceSpec | None = None

    def run(self, seed: int) -> RunResult:
        """One Monte-Carlo run: a batch of one on :meth:`rows`."""
        with span("run", engine="vector-batch"):
            return self.rows().run([random.Random(seed)])[0]

    def row_plan(self) -> tuple[str | None, str | None]:
        """The count-level rung, for two or more agents."""
        if type(self) is not PopulationWorkload:
            return None, "workload-kind"
        if self.options.backend not in _MACHINE_BACKENDS:
            return None, "resolution-error"  # every run raises it itself
        if self.count.total() < 2:
            return None, "population-too-small"
        return "vector-batch", None

    def rows(self):
        """The count-level rows of the protocol under these options."""
        options = self.options
        if options.backend not in _MACHINE_BACKENDS:
            raise ValueError(
                f"unknown backend {options.backend!r} for a population "
                f"workload; expected one of {_MACHINE_BACKENDS}"
            )
        return self.protocol.rows(
            self.count, options.max_steps, options.stability_window
        )
