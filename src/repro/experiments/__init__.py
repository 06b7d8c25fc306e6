"""Experiment orchestration: declarative specs, parallel sweeps, result store.

This package is the layer that drives every runnable workload of the
reproduction at scale, the way sampling-based toolboxes package their
analyses behind a declarative front end:

* :mod:`repro.workloads` — the unified workload layer this package runs on:
  the scenario registry (detection machines, the broadcast/absence/rendez-vous
  compilations, population protocols), the declarative
  :class:`~repro.workloads.spec.InstanceSpec` descriptor and the
  :class:`~repro.workloads.base.Workload` run surface;
* :mod:`repro.experiments.spec` — :class:`ExperimentSpec`, a dict/JSON
  round-trippable description of scenario × parameter grid × runs × backend
  that expands deterministically into per-run tasks seeded via
  :func:`repro.core.batch.derive_seed`;
* :mod:`repro.experiments.executor` — a sweep executor on a supervised
  :class:`concurrent.futures.ProcessPoolExecutor` (in-process when serial)
  with chunked dispatch, per-task timeouts, in-session retries
  (:class:`RetryPolicy`), pool respawn after worker deaths and poison-task quarantine (see
  ``docs/robustness.md``);
* :mod:`repro.experiments.faults` — the deterministic chaos harness
  (:class:`FaultPlan` / ``REPRO_FAULTS``) injecting worker crashes, task
  exceptions, timeouts and partial sidecar writes at seeded rates;
* :mod:`repro.experiments.store` — a JSONL result store with content-hashed
  spec keys, so interrupted sweeps resume instead of recomputing;
* :mod:`repro.experiments.report` — aggregation of stored runs into
  :class:`~repro.core.batch.BatchResult` per grid point and
  :class:`~repro.analysis.harness.AgreementReport` per scenario;
* :mod:`repro.experiments.cli` — the ``python -m repro`` command line
  (``run``, ``list-scenarios``, ``report``, ``bench``).
"""

from repro.experiments.executor import RetryPolicy, SweepRunSummary, run_spec
from repro.experiments.faults import FaultPlan, FaultRule, install_plan
from repro.experiments.report import PointSummary, agreement_reports, summarise, sweep_table
from repro.experiments.spec import ExperimentSpec, RunTask, SweepSpec
from repro.experiments.store import ResultStore

__all__ = [
    "ExperimentSpec",
    "FaultPlan",
    "FaultRule",
    "PointSummary",
    "ResultStore",
    "RetryPolicy",
    "RunTask",
    "SweepRunSummary",
    "SweepSpec",
    "agreement_reports",
    "install_plan",
    "run_spec",
    "summarise",
    "sweep_table",
]
