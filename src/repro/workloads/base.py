"""The unified run surface: one ``Workload`` protocol for every model.

:class:`Workload` is the one entry point for "run this instance and tell me
the verdict": every workload kind (distributed machines, compiled machines,
the broadcast/absence/rendez-vous compilations — which are machines once
compiled — and population protocols) implements

* ``run(seed) -> RunResult`` — one Monte-Carlo run under the spec'd schedule;
* ``run_many(runs, base_seed, ...) -> BatchResult`` — implemented **once**,
  here, for every kind: per-run seeds via
  :func:`~repro.core.batch.derive_seed`, quorum early stopping, and the
  deterministic-replication shortcut for synchronous schedules.

``run_many`` decides no engine of its own: deterministic workloads are
simulated once and replicated; every other workload is asked which row
engine its seeded ``run`` uses (:meth:`Workload.row_plan`) — the
count-level one (:mod:`repro.core.vector_batch`, shared successor graph) or
the per-node one (:mod:`repro.core.vector_pernode`, shared view caches) —
and that engine (:meth:`Workload.rows`) runs the seeds one after another;
a workload without one takes the per-run loop,
:meth:`Workload.run_many_sequential`.  A seeded random-exclusive ``run`` is
itself a batch of one on the same row engine, and row ``j`` draws from its
own ``random.Random(derive_seed(base_seed, j))``, so a batch equals its
single runs byte for byte (batch-size invariance).

:func:`build_workload` turns a declarative
:class:`~repro.workloads.spec.InstanceSpec` into the matching workload, and
:meth:`Workload.shippable` answers "can this cross a process boundary
pre-built?" uniformly.  The sweep executor does not ask: its chunks build
every workload from the task's spec.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

from repro.core.batch import BatchResult, collect_batch, derive_seed, quorum_target
from repro.core.results import RunResult
from repro.core.vector_batch import resolve_batch_backend
from repro.obs.metrics import enable_if, get_metrics
from repro.workloads.registry import get_scenario
from repro.workloads.spec import EngineOptions, InstanceSpec


def _count_rung(rung: str, runs: int) -> None:
    # One increment per run_many dispatch decision, plus the batch size —
    # the "which rung did my sweep actually take" signal of `repro stats`.
    metrics = get_metrics()
    if metrics.enabled:
        metrics.counter("dispatch.rung", rung=rung).inc()
        metrics.counter("dispatch.runs", rung=rung).inc(runs)


class Workload:
    """One runnable instance: ``run`` a seed, ``run_many`` a batch.

    Subclasses set ``options`` (an :class:`~repro.workloads.spec.EngineOptions`),
    ``expected`` (the scenario's declared ground truth, if any) and ``spec``
    (the declarative recipe this workload was built from, when there is one),
    and implement :meth:`run` and :meth:`deterministic`.
    """

    options: EngineOptions
    expected: bool | None = None
    spec: InstanceSpec | None = None

    # ------------------------------------------------------------------ #
    def run(self, seed: int) -> RunResult:
        """One Monte-Carlo run with the given seed."""
        raise NotImplementedError

    @property
    def deterministic(self) -> bool:
        """Whether every seed yields the same run (e.g. synchronous schedules)."""
        return False

    def row_plan(self) -> tuple[str | None, str | None]:
        """``(rung, None)`` if a row engine runs this workload's seeded runs,
        else ``(None, reason)``.

        The rung is the ``engine=`` label (``"vector-batch"`` or
        ``"vector-pernode"``) that one :meth:`run` counts its run under, so
        ``run_many`` samples the scheduler law a single run samples.  The
        reason is a short stable code (``dispatch.fallback{reason=...}``).
        Eligibility is *exact-type*: a subclass may override :meth:`run`, so
        it keeps the per-run loop, which calls ``run`` verbatim.
        """
        return None, "workload-kind"

    def rows(self):
        """The row engine :meth:`row_plan` names, built for these options."""
        raise ValueError(f"workload {type(self).__name__} is not batch-vectorizable")

    # ------------------------------------------------------------------ #
    def run_many(
        self,
        runs: int,
        base_seed: int = 0,
        quorum: float | None = None,
        min_runs: int = 1,
        keep_results: bool = False,
    ) -> BatchResult:
        """A batch of independent Monte-Carlo runs — the one batch surface.

        Run ``i`` uses ``derive_seed(base_seed, i)``, so any single run is
        reproducible in isolation and independent of the batch size.
        ``quorum`` enables early stopping once that fraction of the planned
        runs agrees on a decided verdict.  A :meth:`deterministic` workload
        has a *unique* run: it is simulated once and replicated, and
        ``quorum`` is ignored on that path (no compute can be saved, and
        truncating the replicated batch would misreport it as stopped early)
        — though the argument is still validated so a bad quorum fails
        identically everywhere.

        A workload whose :meth:`row_plan` names a row engine runs its seeds
        on :meth:`rows`: count rows for clique instances
        (:mod:`repro.core.vector_batch`, over a shared successor graph),
        per-node rows for the compiled per-node ones
        (:mod:`repro.core.vector_pernode`, over shared memo tables).  Either
        way the result is byte-identical to :meth:`run_many_sequential`,
        whose single runs are batches of one on the same engine — a
        performance dispatch, never a semantic one.
        """
        if runs < 1:
            raise ValueError("a batch needs at least one run")
        enable_if(self.options.metrics)
        if self.deterministic:
            quorum_target(runs, quorum)
            _count_rung("replicate", runs)
            result = self.run(derive_seed(base_seed, 0))

            def outcomes():
                for _ in range(runs):
                    yield result.verdict, result.steps, result

            return collect_batch(
                outcomes(),
                runs=runs,
                base_seed=base_seed,
                quorum=None,
                min_runs=min_runs,
                keep_results=keep_results,
            )
        backend = resolve_batch_backend(self)
        if backend is None:
            _count_rung("sequential", runs)
            return self.run_many_sequential(
                runs,
                base_seed=base_seed,
                quorum=quorum,
                min_runs=min_runs,
                keep_results=keep_results,
            )
        _count_rung(backend.name, runs)
        # The quorum rule is evaluated twice on the same data: by the row
        # engine over the finished prefix (to skip rows past the stop) and by
        # collect_batch over the returned rows (to fold them), so the
        # truncation is the per-run loop's.
        target = quorum_target(runs, quorum)
        results = backend.run_rows(
            self,
            [derive_seed(base_seed, index) for index in range(runs)],
            early_stop=None if target is None else (target, min_runs, runs),
            materialise_configurations=keep_results,
        )
        return collect_batch(
            ((result.verdict, result.steps, result) for result in results),
            runs=runs,
            base_seed=base_seed,
            quorum=quorum,
            min_runs=min_runs,
            keep_results=keep_results,
        )

    def run_many_sequential(
        self,
        runs: int,
        base_seed: int = 0,
        quorum: float | None = None,
        min_runs: int = 1,
        keep_results: bool = False,
    ) -> BatchResult:
        """The per-run batch loop: one :meth:`run` call per derived seed.

        ``run_many`` falls back to this loop when no batch engine is
        eligible.  For every workload and every argument combination
        ``run_many(...) == run_many_sequential(...)`` byte for byte (the
        batch differential suite asserts this); on a batch-eligible
        workload each :meth:`run` is a batch of one on the row engine
        ``run_many`` uses, so the equality checks batch-size invariance,
        not an independent loop.  Runs are evaluated lazily, so a quorum
        stop never starts the skipped runs — as in the batch engines, which
        never simulate the rows past the stop either.
        """
        if runs < 1:
            raise ValueError("a batch needs at least one run")

        def outcomes():
            for index in range(runs):
                result = self.run(derive_seed(base_seed, index))
                yield result.verdict, result.steps, result

        return collect_batch(
            outcomes(),
            runs=runs,
            base_seed=base_seed,
            quorum=quorum,
            min_runs=min_runs,
            keep_results=keep_results,
        )

    # ------------------------------------------------------------------ #
    def with_options(self, **overrides) -> "Workload":
        """A shallow copy with some engine options replaced.

        The heavy parts (machine, graph, compiled tables, protocol) are
        shared — this is how the executor reuses one cached workload across
        tasks whose step bounds differ.
        """
        clone = replace(self, options=replace(self.options, **overrides))
        return clone

    def shippable(self) -> "Workload | None":
        """A picklable form of this workload, or ``None``.

        The default answers by construction: the workload itself if it
        pickles (compiled machines, plain-data workloads), ``None`` when it
        holds closures.  Subclasses may return a pre-compiled stand-in
        instead (see :meth:`~repro.workloads.machine.MachineWorkload.shippable`).
        """
        try:
            pickle.dumps(self)
        except Exception:  # noqa: BLE001 - any pickling failure means "rebuild"
            return None
        return self


def build_workload(spec: InstanceSpec | str, params=None, **engine) -> Workload:
    """The runnable workload of a spec — the one construction entry point.

    Accepts either a ready :class:`~repro.workloads.spec.InstanceSpec` or the
    convenience form ``build_workload("exists-label", {"a": 1}, max_steps=...)``
    which assembles the spec first (running full spec validation either way).
    """
    if not isinstance(spec, InstanceSpec):
        spec = InstanceSpec(
            scenario=spec, params=dict(params or {}), engine=EngineOptions(**engine)
        )
    scenario = get_scenario(spec.scenario)
    workload = scenario.builder(dict(spec.params))
    workload.options = spec.engine
    workload.spec = spec
    return workload
