"""The sweep executor: chunked dispatch, timeouts, failure recovery.

:func:`run_spec` expands an :class:`~repro.experiments.spec.ExperimentSpec`
into per-run tasks, filters out the ones the result store already holds, and
executes the rest on one supervised path.  Only the pool differs: with
``workers <= 1`` it is an in-process executor that runs each chunk at once
in the calling thread, otherwise a
:class:`~concurrent.futures.ProcessPoolExecutor`.

Every task *is* an :class:`~repro.workloads.spec.InstanceSpec` on the wire —
scenario name, full parameter assignment, engine options — and each chunk
turns it into a runnable :class:`~repro.workloads.base.Workload` with
:func:`~repro.workloads.base.build_workload`, for every workload kind.
Tasks are dispatched in chunks to amortise the per-submission overhead; a
chunk-local workload cache means the ``runs`` runs of a grid point that land
in the same chunk build their machine at most once, with per-task engine
options applied through the cheap :meth:`Workload.with_options` copy.
Before a process pool forks, the parent imports the modules a chunk would
otherwise import lazily (:data:`_WORKER_MODULES`), so forked workers inherit
them instead of each compiling them again.

**Failure recovery**, not merely isolation, is the executor's contract:

* *Per-task isolation* — an exception inside one run (including a spec-level
  validation rejection) produces a ``status="failed"`` record and the sweep
  continues; on POSIX a per-task wall-clock timeout is enforced with an
  interval timer inside the worker (``status="timeout"``).
* *In-session retries* — a declarative, picklable :class:`RetryPolicy`
  governs transient failures: ``failed``/``timeout``/``crashed`` outcomes are
  re-run with seeded exponential backoff until ``max_attempts``, and every
  record carries its 1-based ``attempt``.  Only the final outcome is stored.
* *Pool supervision* — a dead worker (OOM kill, ``os._exit``) breaks the
  whole ``ProcessPoolExecutor``; the supervisor tears it down, respawns a
  fresh pool, and resubmits every in-flight chunk, so a crash costs one
  chunk-retry instead of failing the rest of the sweep.  Respawns are
  bounded by a budget derived from the retry policy.  In-process, crash
  faults degrade to ``status="crashed"`` records instead, and only a chunk
  that raises counts as a pool break.
* *Poison-task quarantine* — after a crash the supervisor drains the
  implicated (suspect) chunks one at a time, so the next crash is attributed
  unambiguously; a crashing multi-task chunk is bisected until the poison
  task is isolated, and a task that keeps crashing its worker alone is
  recorded as ``status="quarantined"`` (with the crash signature and chunk
  id) after ``max_attempts`` crashes — it can never wedge the sweep.  Crash
  handling always allows at least one re-run (a crash implicates a whole
  chunk, not a task), even when record-level retries are disabled.

Retry, respawn and quarantine events flow into the :mod:`repro.obs` registry
(``executor.retries{reason}``, ``executor.pool_respawns``,
``executor.quarantined{reason}``) and the trace sidecar (``task-retry``,
``pool-respawn``, ``chunk-bisect``, ``quarantine`` events); ``python -m repro
stats`` folds them into its fault-tolerance section.  The deterministic
chaos harness in :mod:`repro.experiments.faults` injects real worker
crashes, task exceptions and timeouts at seeded rates to keep all of the
above testable; with no plan installed it costs one ``is None`` check.

**Vectorized chunk dispatch.**  The runs of one grid point that land in the
same chunk share one engine configuration and differ only in their derived
seed, so when the point's workload is eligible for the vectorized batch
engine (:mod:`repro.core.vector_batch`) the chunk executes them as ONE
batch task instead of a per-task loop — identical records (the engine is
bit-identical to per-run execution, so verdicts/steps/expected are
unchanged; only ``wall_time``, which is never compared, becomes proportional
to each row's steps).  A per-task ``task_timeout`` keeps the grouped path:
the chunk applies the budget at batch granularity — ``task_timeout`` scaled
by the group size, the same total wall-clock the per-task path would allow —
and a group that exceeds it (or fails for any other reason) falls back to
per-task execution with individual timeouts, keeping both the per-task
budget contract and failure isolation intact.  An active fault plan forces
the per-task path so faults keep their per-task semantics.
"""

from __future__ import annotations

import importlib
import signal
import threading
import time
import warnings
from collections import deque
from collections.abc import Callable
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from functools import partial

from repro.experiments.faults import (
    InjectedCrash,
    InjectedTimeout,
    allow_process_exit,
    fire,
    get_plan,
    hash01,
)
from repro.experiments.spec import ExperimentSpec, RunTask, canonical_json
from repro.experiments.store import ResultStore
from repro.obs.metrics import get_metrics, metrics_enabled
from repro.obs.snapshot import MetricsSnapshot
from repro.obs.tracing import TraceWriter, Tracer, set_tracer, span, trace_event
from repro.workloads.base import Workload, build_workload
from repro.workloads.spec import InstanceSpec


#: Record statuses the retry policy re-runs while attempts remain.
RETRYABLE_STATUSES = ("failed", "timeout", "crashed")

#: Modules a chunk imports lazily: the row engine of compiled per-node runs
#: and the construction packages the catalog builders pull in.  The pool
#: branch of :func:`_run_supervised` imports them before it forks.
_WORKER_MODULES = (
    "repro.constructions",
    "repro.core.vector_pernode",
    "repro.extensions",
    "repro.population",
)


class TaskTimeout(Exception):
    """Raised inside a worker when a task exceeds its wall-clock budget."""


@dataclass(frozen=True)
class RetryPolicy:
    """Declarative, picklable in-session retry settings for a sweep.

    ``max_attempts`` bounds how many times one task may execute (1 disables
    record-level retries); ``backoff_base`` is the attempt-2 delay in
    seconds, doubling per further attempt up to ``backoff_cap``; the actual
    delay is jittered into ``[d/2, d]`` by a hash seeded with
    ``jitter_seed`` — deterministic per ``(task, attempt)``, so reruns pace
    identically.  Crash recovery derives its quarantine bound from
    ``max_attempts`` too, with a floor of one re-run (a crash implicates a
    whole chunk, not a single task).
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff settings must be non-negative")

    @property
    def crash_limit(self) -> int:
        """Crashes tolerated before quarantine (floor of 2; see class doc)."""
        return max(2, self.max_attempts)

    def delay(self, task_key: str, attempt: int) -> float:
        """Seconds to wait before running ``attempt`` (2-based) of a task.

        Exponential in the attempt number, capped, and deterministically
        jittered into ``[d/2, d]`` so simultaneous retries do not stampede
        yet remain reproducible.
        """
        if self.backoff_base <= 0:
            return 0.0
        raw = min(self.backoff_cap, self.backoff_base * (2.0 ** max(0, attempt - 2)))
        jitter = hash01(self.jitter_seed, "backoff", task_key, attempt)
        return raw * (0.5 + 0.5 * jitter)

    def to_dict(self) -> dict:
        """Plain-dict form (CLI flags and specs round-trip through this)."""
        return {
            "max_attempts": self.max_attempts,
            "backoff_base": self.backoff_base,
            "backoff_cap": self.backoff_cap,
            "jitter_seed": self.jitter_seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RetryPolicy":
        """Rebuild a policy from :meth:`to_dict` output."""
        return cls(**dict(data))


#: One-shot flag: warn about a requested-but-unsupported timeout only once
#: per process, not once per task in a thousand-task sweep.
_ALARM_UNSUPPORTED_WARNED = False


class _Alarm:
    """Per-task wall-clock budget via ``SIGALRM`` (POSIX main thread only).

    On platforms without ``signal.SIGALRM`` / ``signal.setitimer`` (Windows),
    a requested budget degrades to *no timeout* with a one-shot
    :class:`RuntimeWarning` instead of crashing the sweep with an
    ``AttributeError`` at the first task.
    """

    def __init__(self, seconds: float | None):
        self.seconds = seconds
        wanted = seconds is not None and seconds > 0
        supported = hasattr(signal, "SIGALRM") and hasattr(signal, "setitimer")
        self.active = (
            wanted
            and supported
            and threading.current_thread() is threading.main_thread()
        )
        if wanted and not supported:
            global _ALARM_UNSUPPORTED_WARNED
            if not _ALARM_UNSUPPORTED_WARNED:
                _ALARM_UNSUPPORTED_WARNED = True
                warnings.warn(
                    "task_timeout requested but this platform has no "
                    "signal.SIGALRM interval timer; tasks run without a "
                    "wall-clock budget",
                    RuntimeWarning,
                    stacklevel=2,
                )

    def __enter__(self):
        if self.active:
            self._previous = signal.signal(signal.SIGALRM, self._fire)
            signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, *exc_info):
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        return False

    @staticmethod
    def _fire(signum, frame):
        raise TaskTimeout()


def _task_key(task: dict) -> tuple:
    """The workload cache key: one entry per distinct instance recipe."""
    return (task["scenario"], canonical_json(task["params"]))


def _task_spec(task: dict) -> InstanceSpec:
    """The instance spec a task dict denotes (runs full spec validation).

    Executor-private bookkeeping keys (``attempt``) are stripped first — the
    wire form of a task stays exactly the :class:`RunTask` fields.
    """
    data = {key: value for key, value in task.items() if key != "attempt"}
    return RunTask.from_dict(data).instance_spec()


def _task_identity(task: dict) -> dict:
    """The identity fields every record of ``task`` starts from."""
    return {
        "task_id": task["task_id"],
        "point_index": task["point_index"],
        "scenario": task["scenario"],
        "params": task["params"],
        "run_index": task["run_index"],
        "seed": task["seed"],
    }


def _runner(task: dict, cache: dict) -> Workload:
    """The workload that runs ``task``, with the task's engine options applied.

    ``cache`` holds one built workload per instance recipe (:func:`_task_key`);
    a miss builds it from the task's spec.
    """
    key = _task_key(task)
    workload = cache.get(key)
    if workload is None:
        workload = build_workload(_task_spec(task))
        cache[key] = workload
    return workload.with_options(
        max_steps=task["max_steps"],
        stability_window=task["stability_window"],
        backend=task["backend"],
    )


def _run_task(task: dict, task_timeout: float | None, cache: dict) -> dict:
    """Execute one task dict; never raises — failures become records."""
    attempt = int(task.get("attempt", 1))
    record = _task_identity(task)
    record["attempt"] = attempt
    start = time.perf_counter()
    try:
        with _Alarm(task_timeout):
            plan = get_plan()
            if plan is not None:
                rule = plan.for_task(task["task_id"], attempt)
                if rule is not None:
                    fire(rule, task["task_id"], attempt)
            runner = _runner(task, cache)
            result = runner.run(task["seed"])
    except TaskTimeout:
        record.update(status="timeout", error=f"exceeded {task_timeout}s")
    except InjectedTimeout as exc:
        record.update(status="timeout", error=str(exc))
    except InjectedCrash as exc:
        # The in-process stand-in for a worker death (see repro.experiments
        # .faults): recorded, retryable, but the process survives.
        record.update(status="crashed", error=f"worker crashed: {exc}")
    except Exception as exc:  # noqa: BLE001 - failure isolation is the point
        record.update(status="failed", error=f"{type(exc).__name__}: {exc}")
    else:
        record.update(
            status="ok",
            verdict=result.verdict.value,
            steps=result.steps,
            expected=runner.expected,
        )
    record["wall_time"] = round(time.perf_counter() - start, 6)
    return record


def _batch_key(task: dict) -> tuple:
    """Tasks that may run as one vectorized batch: same point, same engine."""
    return (
        task["scenario"],
        canonical_json(task["params"]),
        task["max_steps"],
        task["stability_window"],
        task["backend"],
    )


def _run_group(
    tasks: list[dict], cache: dict, task_timeout: float | None = None
) -> list[dict] | None:
    """Execute a same-point task group as one batch-engine call, or ``None``.

    Returns one record per task (aligned with ``tasks``) when the group's
    workload is batch-vectorizable, and ``None`` otherwise — including on
    *any* error, so a broken point falls back to the per-task path and keeps
    its per-task failure records.  ``task_timeout`` is enforced at chunk
    granularity, scaled by the group size (the same total budget the
    per-task path would spend); a group that exceeds it returns ``None`` and
    the per-task fallback re-runs each task under its individual budget.

    ``wall_time`` is the group's measured wall clock attributed to each
    record *proportionally to its step count* (an even split only when every
    row took zero steps), so batched records are comparable to the per-task
    path's timings instead of all sharing one group mean.
    """
    from repro.core.vector_batch import resolve_batch_backend

    first = tasks[0]
    budget = None if task_timeout is None else task_timeout * len(tasks)
    start = time.perf_counter()
    try:
        with _Alarm(budget):
            runner = _runner(first, cache)
            backend = resolve_batch_backend(runner)
            if backend is None:
                return None
            # Records keep only verdict/steps, so skip building the O(n)
            # final configuration of every row.
            results = backend.run_rows(
                runner,
                [task["seed"] for task in tasks],
                materialise_configurations=False,
            )
    except Exception:  # noqa: BLE001 - the per-task path records the failure
        return None
    metrics = get_metrics()
    if metrics.enabled:
        metrics.counter("dispatch.rung", rung=backend.name).inc()
        metrics.counter("dispatch.runs", rung=backend.name).inc(len(tasks))
    wall_total = time.perf_counter() - start
    total_steps = sum(result.steps for result in results)
    return [
        {
            **_task_identity(task),
            "attempt": int(task.get("attempt", 1)),
            "status": "ok",
            "verdict": result.verdict.value,
            "steps": result.steps,
            "expected": runner.expected,
            "wall_time": round(
                wall_total * result.steps / total_steps
                if total_steps
                else wall_total / len(tasks),
                6,
            ),
        }
        for task, result in zip(tasks, results)
    ]


def _run_chunk(tasks: list[dict], task_timeout: float | None) -> list[dict]:
    """Run a chunk of tasks with a shared workload cache; the body of both
    chunk entry points (:func:`_serial_chunk` and :func:`_chunk_worker`).

    Same-point task groups go through the vectorized batch engine when it is
    eligible (see the module docstring); everything else runs task by task.
    An active fault plan forces the per-task path so injected faults keep
    per-task semantics.
    """
    cache: dict = {}
    records: list[dict | None] = [None] * len(tasks)
    if get_plan() is None:
        groups: dict[tuple, list[int]] = {}
        for position, task in enumerate(tasks):
            groups.setdefault(_batch_key(task), []).append(position)
        for positions in groups.values():
            if len(positions) < 2:
                continue
            batched = _run_group(
                [tasks[position] for position in positions], cache, task_timeout
            )
            if batched is None:
                continue
            for position, record in zip(positions, batched):
                records[position] = record
    remaining = [position for position in range(len(tasks)) if records[position] is None]
    if remaining:
        metrics = get_metrics()
        if metrics.enabled:
            # The tasks the batch engines did not take ran one by one — the
            # sweep-level equivalent of run_many's sequential rung.
            metrics.counter("dispatch.rung", rung="sequential").inc()
            metrics.counter("dispatch.runs", rung="sequential").inc(len(remaining))
    for position in remaining:
        records[position] = _run_task(tasks[position], task_timeout, cache)
    return records  # type: ignore[return-value]


def _chunk_worker(
    tasks: list[dict], task_timeout: float | None
) -> tuple[list[dict], dict | None]:
    """Process-pool entry point: a chunk's records plus the worker's metrics delta.

    Wraps :func:`_run_chunk` and snapshots the worker's metrics registry
    before and after, so the parent receives exactly this chunk's telemetry
    as a picklable
    :meth:`~repro.obs.snapshot.MetricsSnapshot.to_dict` — workers are reused
    across chunks, so the raw snapshot would double-count.  ``None`` when
    metrics are disabled in the worker.  Also arms real ``os._exit`` crash
    faults: only pool workers may die for the chaos harness.
    """
    allow_process_exit(True)
    before = get_metrics().snapshot()
    records = _run_chunk(tasks, task_timeout)
    metrics = get_metrics()
    if not metrics.enabled:
        return records, None
    delta = metrics.snapshot().diff(before)
    return records, delta.to_dict()


def _serial_chunk(
    tasks: list[dict], task_timeout: float | None
) -> tuple[list[dict], None]:
    """In-process entry point: a chunk's records under a ``chunk`` span.

    The delta is ``None`` because the chunk counted straight into the
    parent's registry; :func:`_chunk_worker`'s snapshot diff would count it
    twice.  Crash faults stay unarmed, so they degrade to ``InjectedCrash``.
    """
    with span("chunk", tasks=len(tasks)):
        return _run_chunk(tasks, task_timeout), None


class _InProcessPool(Executor):
    """A synchronous executor: ``submit`` runs the call at once, in this thread.

    The serial sweep's pool.  The returned future is already done: it holds
    the result, or the exception via ``set_exception`` (``KeyboardInterrupt``
    still propagates).  Running in the calling (main) thread keeps
    :class:`_Alarm` budgets live.
    """

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:  # noqa: BLE001 - the future carries it
            future.set_exception(exc)
        return future


@dataclass
class SweepRunSummary:
    """What a :func:`run_spec` call did; ``records`` holds the new records.

    Only *final* outcomes are counted and stored: a task that failed
    transiently and succeeded on retry contributes one ``ok`` record (with
    ``attempt > 1``) and one tick of ``retried``.  ``pool_respawns`` counts
    supervisor pool replacements after worker deaths; ``quarantined`` counts
    tasks isolated as poison (they crash their worker every attempt).
    ``metrics`` is the sweep's merged telemetry delta — parent-side counters
    plus every worker chunk's snapshot — when the metrics registry was
    enabled (``REPRO_METRICS=1`` or :func:`repro.obs.enable_metrics`), and
    ``None`` otherwise.
    """

    spec_key: str
    total_tasks: int
    skipped: int
    executed: int = 0
    ok: int = 0
    failed: int = 0
    timeouts: int = 0
    crashed: int = 0
    quarantined: int = 0
    retried: int = 0
    pool_respawns: int = 0
    wall_time: float = 0.0
    records: list[dict] = field(default_factory=list)
    metrics: MetricsSnapshot | None = None

    @property
    def complete(self) -> bool:
        """Whether every task of the spec now has a successful record."""
        return self.skipped + self.ok == self.total_tasks

    def summary(self) -> str:
        """One-line human-readable account of the sweep."""
        extra = ""
        if self.crashed or self.quarantined:
            extra = f", {self.crashed} crashed, {self.quarantined} quarantined"
        tail = ""
        if self.retried or self.pool_respawns:
            tail = f"; {self.retried} retries, {self.pool_respawns} pool respawns"
        return (
            f"spec {self.spec_key}: {self.total_tasks} tasks, "
            f"{self.skipped} already stored, {self.executed} executed "
            f"({self.ok} ok, {self.failed} failed, {self.timeouts} timeout{extra}) "
            f"in {self.wall_time:.2f}s{tail}"
        )


@dataclass
class _ChunkJob:
    """One schedulable unit of sweep work inside the supervisor.

    ``id`` is the chunk's stable identity (``c3`` → bisected halves
    ``c3.0``/``c3.1`` → retry ``c3.0r``), recorded on crash/quarantine
    records so ``repro stats`` can attribute them.  ``not_before`` delays a
    retry until its backoff expires; ``suspect`` marks jobs implicated in a
    pool crash, which the supervisor drains one at a time so the next crash
    is attributed unambiguously.
    """

    id: str
    tasks: list[dict]
    not_before: float = 0.0
    suspect: bool = False
    submitted_at: float = 0.0


def _split_retryable(
    tasks: list[dict],
    records: list[dict],
    policy: RetryPolicy,
    summary: SweepRunSummary,
) -> tuple[list[dict], list[dict]]:
    """Partition chunk ``records`` into final records and tasks to re-run.

    A record whose status is retryable and whose attempt has budget left is
    withheld; its task comes back with ``attempt`` incremented.  Retries are
    counted on ``summary`` and in the ``executor.retries{reason}`` metric.
    """
    metrics = get_metrics()
    by_id = {task["task_id"]: task for task in tasks}
    final: list[dict] = []
    retries: list[dict] = []
    for record in records:
        status = record.get("status")
        attempt = int(record.get("attempt", 1))
        if status in RETRYABLE_STATUSES and attempt < policy.max_attempts:
            task = dict(by_id[record["task_id"]])
            task["attempt"] = attempt + 1
            retries.append(task)
            summary.retried += 1
            if metrics.enabled:
                metrics.counter("executor.retries", reason=status).inc()
            trace_event(
                "task-retry",
                task=record["task_id"],
                attempt=attempt + 1,
                reason=status,
            )
        else:
            final.append(record)
    return final, retries


def _retry_job(parent: _ChunkJob, tasks: list[dict], policy: RetryPolicy) -> _ChunkJob:
    """A delayed follow-up job re-running ``tasks`` from ``parent``.

    The chunk waits for the longest member backoff, so every task in it gets
    at least its own policy delay.
    """
    due = time.monotonic() + max(
        policy.delay(task["task_id"], int(task["attempt"])) for task in tasks
    )
    return _ChunkJob(
        id=f"{parent.id}r", tasks=tasks, not_before=due, suspect=parent.suspect
    )


def _terminal_crash_record(
    task: dict,
    job: _ChunkJob,
    signature: str,
    wall: float,
    *,
    quarantined: bool,
    crash_count: int = 0,
) -> dict:
    """The stored record for a task whose crash handling is exhausted.

    Carries the originating chunk id and the crash signature (so ``repro
    stats`` can attribute worker deaths) plus the parent-measured wall time
    of the fatal submission — the only telemetry that survives the worker.
    """
    record = _task_identity(task)
    record.update(
        attempt=int(task.get("attempt", 1)),
        chunk=job.id,
        crash_signature=signature,
        wall_time=round(max(wall, 0.0), 6),
    )
    if quarantined:
        record.update(
            status="quarantined",
            error=f"quarantined after {crash_count} worker crashes: {signature}",
            crashes=crash_count,
        )
    else:
        record.update(status="crashed", error=f"worker crashed: {signature}")
    return record


def _run_supervised(
    chunks: list[list[dict]],
    *,
    workers: int,
    task_timeout: float | None,
    policy: RetryPolicy,
    summary: SweepRunSummary,
    collect: Callable[[list[dict]], None],
) -> MetricsSnapshot:
    """Drive ``chunks`` to completion on a supervised, self-healing pool.

    ``workers <= 1`` runs :func:`_serial_chunk` on an :class:`_InProcessPool`,
    one chunk at a time; otherwise :func:`_chunk_worker` runs on a
    ``ProcessPoolExecutor`` with a bounded submission window (``2 × workers``)
    so a pool break implicates only the in-flight jobs; that branch first
    imports :data:`_WORKER_MODULES`, here rather than at module import, so
    only pool sweeps pay for it.  On a break (in-process: a chunk that
    raised) the supervisor respawns the pool, marks every reclaimed job
    *suspect* and drains suspects one at a time —
    isolation makes the next crash attributable.  An attributed crashing
    multi-task job is bisected; an attributed crashing singleton is re-tried
    with backoff until :attr:`RetryPolicy.crash_limit` crashes, then recorded
    as ``status="quarantined"``.  Every re-submission after a crash raises
    the task's ``attempt`` and counts one retry.  Respawns are bounded by a
    policy-derived budget; on exhaustion everything still outstanding is
    recorded as ``status="crashed"`` rather than looping forever.  Returns
    the merged metrics deltas of the pool workers.
    """
    metrics = get_metrics()
    worker_totals = MetricsSnapshot()
    if workers <= 1:
        new_pool: Callable[[], Executor] = _InProcessPool
        entry, window = _serial_chunk, 1
    else:
        for name in _WORKER_MODULES:
            importlib.import_module(name)
        new_pool = partial(ProcessPoolExecutor, max_workers=workers)
        entry, window = _chunk_worker, 2 * workers
    queue: deque[_ChunkJob] = deque(
        _ChunkJob(id=f"c{index}", tasks=chunk) for index, chunk in enumerate(chunks)
    )
    pending: dict = {}
    crashes: dict[str, int] = {}
    respawns_left = 8 + 2 * policy.max_attempts * max(1, len(chunks))
    pool = new_pool()

    def probing() -> bool:
        return any(job.suspect for job in queue) or any(
            job.suspect for job in pending.values()
        )

    def finish(job: _ChunkJob, result: tuple[list[dict], dict | None]) -> None:
        nonlocal worker_totals
        records, delta = result
        if delta:
            worker_totals = worker_totals.merge(MetricsSnapshot.from_dict(delta))
        final, retry_tasks = _split_retryable(job.tasks, records, policy, summary)
        collect(final)
        if retry_tasks:
            queue.append(_retry_job(job, retry_tasks, policy))

    def give_up(jobs: list[_ChunkJob], signature: str) -> None:
        """Respawn budget exhausted: record everything left as crashed."""
        for job in jobs:
            wall = time.monotonic() - job.submitted_at if job.submitted_at else 0.0
            collect(
                [
                    _terminal_crash_record(
                        task, job, signature, wall, quarantined=False
                    )
                    for task in job.tasks
                ]
            )

    def count_retries(job: _ChunkJob) -> None:
        """Before re-submitting ``job`` after a crash: +1 attempt, 1 retry per task."""
        for task in job.tasks:
            task["attempt"] = int(task.get("attempt", 1)) + 1
            summary.retried += 1
            if metrics.enabled:
                metrics.counter("executor.retries", reason="crashed").inc()

    def attribute(job: _ChunkJob, signature: str) -> None:
        """Handle a crash pinned on ``job`` (it was alone in flight)."""
        wall = time.monotonic() - job.submitted_at
        for task in job.tasks:
            crashes[task["task_id"]] = crashes.get(task["task_id"], 0) + 1
        task = job.tasks[0]
        task_id = task["task_id"]
        if len(job.tasks) == 1 and crashes[task_id] >= policy.crash_limit:
            collect(
                [
                    _terminal_crash_record(
                        task,
                        job,
                        signature,
                        wall,
                        quarantined=True,
                        crash_count=crashes[task_id],
                    )
                ]
            )
            if metrics.enabled:
                metrics.counter("executor.quarantined", reason="crash-loop").inc()
            trace_event(
                "quarantine", task=task_id, chunk=job.id, crashes=crashes[task_id]
            )
            return
        count_retries(job)
        if len(job.tasks) > 1:
            # Bisect: the poison task is in one half; the other half gets to
            # finish instead of dying with it.
            middle = len(job.tasks) // 2
            halves = (job.tasks[:middle], job.tasks[middle:])
            trace_event("chunk-bisect", chunk=job.id, tasks=len(job.tasks))
            for index in (1, 0):
                queue.appendleft(
                    _ChunkJob(
                        id=f"{job.id}.{index}",
                        tasks=list(halves[index]),
                        suspect=True,
                    )
                )
            return
        job.suspect = True
        job.not_before = time.monotonic() + policy.delay(task_id, int(task["attempt"]))
        queue.appendleft(job)

    try:
        while queue or pending:
            now = time.monotonic()
            limit = 1 if probing() else window
            submit_failure: BaseException | None = None
            index = 0
            while len(pending) < limit and index < len(queue):
                if queue[index].not_before > now:
                    index += 1
                    continue
                job = queue[index]
                del queue[index]
                job.submitted_at = time.monotonic()
                try:
                    future = pool.submit(entry, job.tasks, task_timeout)
                except Exception as exc:  # noqa: BLE001 - pool broke between events; the job is requeued and the respawn path handles it
                    queue.appendleft(job)
                    submit_failure = exc
                    break
                pending[future] = job

            if not pending:
                if submit_failure is None:
                    if not queue:
                        break
                    due = min(job.not_before for job in queue)
                    time.sleep(max(0.0, due - time.monotonic()))
                    continue
                crashed_jobs: list[tuple[_ChunkJob, BaseException]] = []
            else:
                timeout = None
                if queue:
                    due = min(job.not_before for job in queue)
                    timeout = max(0.0, due - time.monotonic())
                done, _ = wait(pending, timeout=timeout, return_when=FIRST_COMPLETED)
                crashed_jobs = []
                for future in done:
                    job = pending.pop(future)
                    exc = future.exception()
                    if exc is not None:
                        crashed_jobs.append((job, exc))
                        continue
                    finish(job, future.result())
                if not crashed_jobs and submit_failure is None:
                    continue

            # --- crash event: the pool is broken ------------------------- #
            first_exc = crashed_jobs[0][1] if crashed_jobs else submit_failure
            signature = f"{type(first_exc).__name__}: {first_exc}"
            reclaimed = [job for job, _ in crashed_jobs]
            for future, job in list(pending.items()):
                if future.done() and future.exception() is None:
                    finish(job, future.result())
                else:
                    reclaimed.append(job)
            pending.clear()
            pool.shutdown(wait=False, cancel_futures=True)
            pool = new_pool()
            summary.pool_respawns += 1
            respawns_left -= 1
            if metrics.enabled:
                metrics.counter("executor.pool_respawns").inc()
            trace_event(
                "pool-respawn",
                chunks=[job.id for job in reclaimed],
                error=signature,
            )
            if respawns_left <= 0:
                give_up(reclaimed + list(queue), signature)
                queue.clear()
                continue
            if len(reclaimed) == 1 and not submit_failure:
                attribute(reclaimed[0], signature)
                continue
            # Ambiguous: several jobs were in flight.  Everyone reclaimed is
            # suspect and re-runs (attempt incremented — they may have
            # partially executed); the drain is serialized so the next crash
            # is attributable.
            for job in reversed(reclaimed):
                count_retries(job)
                job.suspect = True
                job.not_before = 0.0
                queue.appendleft(job)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    return worker_totals


def run_spec(
    spec: ExperimentSpec,
    store: ResultStore | None = None,
    *,
    workers: int = 1,
    chunk_size: int | None = None,
    task_timeout: float | None = None,
    resume: bool = True,
    retry: RetryPolicy | None = None,
    progress: Callable[[str], None] | None = None,
) -> SweepRunSummary:
    """Execute every not-yet-stored task of ``spec``; see the module docstring.

    With a ``store``, completed tasks (status ``ok``) are skipped when
    ``resume`` is true and new records are appended chunk by chunk, so a
    killed sweep loses at most one in-flight chunk.  ``retry`` is the
    in-session :class:`RetryPolicy` (defaults to 3 attempts with 50 ms base
    backoff; pass ``RetryPolicy(max_attempts=1)`` to disable).  Returns a
    :class:`SweepRunSummary` whose ``records`` are the newly executed tasks'
    final outcomes.

    When the metrics registry is enabled and a ``store`` is given, the sweep
    also maintains the store's observability sidecars: spans (``sweep`` →
    ``chunk`` / ``store-append``) stream into the
    append-mode ``.trace.jsonl`` next to the results file, and the merged
    metrics snapshot — parent counters plus every worker chunk's delta — is
    folded into the ``.metrics.json`` sidecar.  ``python -m repro stats``
    reads both.

    Raises :class:`ValueError`, before touching the store, if ``workers`` or
    a given ``chunk_size`` is below 1, or a given ``task_timeout`` is not
    positive.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
    if task_timeout is not None and task_timeout <= 0:
        raise ValueError(f"task_timeout must be positive, got {task_timeout}")
    retry = retry if retry is not None else RetryPolicy()
    started = time.perf_counter()
    baseline = get_metrics().snapshot()
    worker_totals = MetricsSnapshot()
    writer = previous_tracer = None
    if metrics_enabled() and store is not None:
        store.root.mkdir(parents=True, exist_ok=True)
        writer = TraceWriter(store.trace_path(spec))
        previous_tracer = set_tracer(Tracer(sink=writer))
    try:
        tasks = spec.expand()
        done: set[str] = set()
        if store is not None:
            store.write_spec(spec)
            if resume:
                done = store.completed_ids(spec)
        todo = [task.to_dict() for task in tasks if task.task_id not in done]
        for task in todo:
            task["attempt"] = 1
        summary = SweepRunSummary(
            spec_key=spec.key(), total_tasks=len(tasks), skipped=len(tasks) - len(todo)
        )

        def collect(records: list[dict]) -> None:
            if not records:
                return
            if store is not None:
                with span("store-append", records=len(records)):
                    store.append(spec, records)
            summary.records.extend(records)
            summary.executed += len(records)
            for record in records:
                status = record.get("status")
                if status == "ok":
                    summary.ok += 1
                elif status == "timeout":
                    summary.timeouts += 1
                elif status == "crashed":
                    summary.crashed += 1
                elif status == "quarantined":
                    summary.quarantined += 1
                else:
                    summary.failed += 1
            if progress is None:
                return
            line = (
                f"[{summary.skipped + summary.executed}/{summary.total_tasks}] "
                f"{summary.ok} ok, {summary.failed} failed, {summary.timeouts} timeout"
            )
            if summary.crashed or summary.quarantined:
                line += (
                    f", {summary.crashed} crashed, {summary.quarantined} quarantined"
                )
            progress(line)

        if todo:
            with span("sweep", spec=spec.key(), tasks=len(todo), workers=workers):
                if chunk_size is None:
                    # Serial: about eight chunks, so progress and the store advance
                    # steadily.  Pool: a few chunks per worker so stragglers
                    # rebalance, while keeping chunks big enough that the
                    # workload cache pays off.
                    chunk_size = (
                        max(1, len(todo) // 8)
                        if workers <= 1
                        else max(1, min(16, -(-len(todo) // (workers * 4))))
                    )
                worker_totals = _run_supervised(
                    [
                        todo[offset : offset + chunk_size]
                        for offset in range(0, len(todo), chunk_size)
                    ],
                    workers=workers,
                    task_timeout=task_timeout,
                    policy=retry,
                    summary=summary,
                    collect=collect,
                )

        summary.wall_time = time.perf_counter() - started
        metrics = get_metrics()
        if metrics.enabled:
            delta = worker_totals.merge(metrics.snapshot().diff(baseline))
            if delta:
                summary.metrics = delta
                if store is not None:
                    store.write_metrics(spec, delta)
        return summary
    finally:
        if writer is not None:
            set_tracer(previous_tracer)
            writer.close()
