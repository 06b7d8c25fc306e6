"""Pluggable simulation backends: per-node reference and count-based engines.

The machine run path
(:meth:`repro.workloads.machine.MachineWorkload.run_with_schedule`) delegates
the actual run to a :class:`SimulationBackend`.  Three backends ship
with the package:

:class:`PerNodeBackend`
    The reference implementation: configurations are tuples ``C : V → Q`` and
    every step recomputes the selected nodes' neighbourhood views from the
    adjacency structure, rebuilds the configuration tuple and rescans it for
    a consensus.  Works for every machine, graph and schedule, but each step
    costs ``O(n)`` regardless of how little changed — except that a seeded
    random-exclusive run stuck in a dead configuration without consensus
    ends at its budget without stepping it (:meth:`PerNodeBackend.run`).
    Kept independent of every optimised loop as the differential oracle
    they are checked against.

:class:`CompiledPerNodeBackend`
    The optimised per-node engine: the machine is compiled to interned
    integer states with memoised transition tables
    (:class:`~repro.core.compile.CompiledMachine`), so one exclusive step
    costs ``O(deg(v))`` instead of ``O(n)``.  Every run is one row of the
    per-node row engine (:mod:`repro.core.vector_pernode`): a seeded
    random-exclusive run is a batch of one that replays the schedule's node
    draws inline, and every other schedule (synchronous, liberal,
    round-robin, subclassed, or one with an injected shared generator) is a
    row that consumes ``schedule.selections(graph)`` verbatim.  Either way,
    for the same seed the run is the reference run bit for bit (verdict,
    steps, ``stabilised_at``, final configuration); per-step trace
    recording and implicit cliques (on-demand adjacency, see
    :meth:`CompiledPerNodeBackend.supports`) are the only exclusions.
    Compiled machines are plain data and pickle cleanly; an unpickled copy
    re-binds δ through its loader (see
    :class:`~repro.workloads.machine.CompiledMachineWorkload`).

:class:`CountBasedBackend`
    A vectorized engine for *cliques*, exploiting the symmetry that classical
    population protocols exploit (and that the proof of Lemma 5.1 uses to
    place DAF inside NL): on a clique every node in state ``q`` sees the same
    neighbourhood — the global state counts minus itself — so a configuration
    collapses to a count vector and a scheduler step to a weighted draw over
    *states* instead of nodes.  Cost per active step is polynomial in the
    number of *occupied* states and **independent of the population size**;
    transitions are looked up in the machine's compiled table under the
    (β-capped) neighbourhood view, which the exact decision shares.  Both
    schedules run as a batch of one on the count-level row engine
    (:mod:`repro.core.vector_batch`): a random-exclusive row fast-forwards
    stretches of *silent* steps by sampling their length from a geometric
    distribution, and a synchronous row steps from each count vector to its
    synchronous image.  The random-exclusive trajectory distribution over
    count vectors is exactly the one the per-node backend induces (selecting
    a uniformly random node selects a state ``q`` with probability
    ``count(q)/n``), so verdicts agree with the reference backend and with
    the exact decision procedure wherever those are defined — the
    differential test suite checks this on randomized instances.

Backends never touch the global :mod:`random` state; randomized schedules
carry their own seed or injected ``random.Random``
(:func:`repro.core.scheduler.resolve_rng`).

A third evaluation strategy — *exact* decision via the configuration graph
(:func:`repro.core.verification.decide`) — is not a backend: it quantifies
over all fair schedules instead of sampling one, and is exponential in the
number of nodes.  The scaling ladder is therefore: exact (≤ ~7 nodes),
per-node reference (~10³ nodes), compiled per-node (~10⁴–10⁵ nodes on any
graph), count-based (10⁴–10⁶ agents on cliques).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.compile import compile_machine
from repro.core.configuration import (
    Configuration,
    consensus_value,
    enabled_nodes,
    initial_configuration,
    successor,
)
from repro.core.graphs import ImplicitCliqueGraph, LabeledGraph
from repro.core.machine import DistributedMachine
from repro.core.results import RunResult, Verdict
from repro.core.scheduler import (
    RandomExclusiveSchedule,
    ScheduleGenerator,
    SynchronousSchedule,
    resolve_rng,
)
from repro.obs.metrics import get_metrics


class BackendUnsupported(RuntimeError):
    """Raised when a backend is asked to run an instance it cannot handle."""


class SimulationBackend:
    """Strategy interface for running one machine/graph/schedule instance.

    ``run`` must implement the engine's stabilisation contract: execute at
    most ``max_steps`` scheduler steps, declare the run stabilised once the
    consensus value has persisted for ``stability_window`` consecutive steps
    (or the configuration has been constant that long while in consensus),
    and report the verdict of the final consensus value (``UNDECIDED`` if
    there is none).
    """

    name: str = "abstract"
    #: The stepping loop that runs this backend's runs, as its metrics label
    #: it: the ``engine=`` label of the ``run`` span and of ``engine.runs``.
    engine: str = "abstract"

    def supports(
        self,
        machine: DistributedMachine,
        graph: LabeledGraph,
        schedule: ScheduleGenerator,
        record_trace: bool = False,
    ) -> bool:
        """Whether this backend can faithfully run the given instance."""
        raise NotImplementedError

    def run(
        self,
        machine: DistributedMachine,
        graph: LabeledGraph,
        schedule: ScheduleGenerator,
        *,
        max_steps: int,
        stability_window: int,
        record_trace: bool = False,
        start: Configuration | None = None,
    ) -> RunResult:
        raise NotImplementedError


# ---------------------------------------------------------------------- #
# Per-node reference backend
# ---------------------------------------------------------------------- #
@dataclass
class PerNodeBackend(SimulationBackend):
    """The reference backend: one neighbourhood evaluation per selected node.

    Every step rebuilds the configuration and rescans it for a consensus,
    so it costs ``O(n)``; a dead configuration ends the run early (see
    :meth:`run`).
    """

    name = engine = "per-node"

    def supports(
        self,
        machine: DistributedMachine,
        graph: LabeledGraph,
        schedule: ScheduleGenerator,
        record_trace: bool = False,
    ) -> bool:
        return True

    def run(
        self,
        machine: DistributedMachine,
        graph: LabeledGraph,
        schedule: ScheduleGenerator,
        *,
        max_steps: int,
        stability_window: int,
        record_trace: bool = False,
        start: Configuration | None = None,
    ) -> RunResult:
        """Step the configuration until it stabilises or the budget runs out.

        When a run has been quiet for ``stability_window`` steps without
        consensus, it checks once whether any node is enabled.  If none is,
        the configuration ``C`` is dead: ``succ(C, S) = C`` for every
        selection ``S``, so every later step is silent and neither stop rule
        can fire.  The run then ends at ``max_steps`` with ``C``,
        ``stabilised_at=None`` and ``UNDECIDED`` — exactly what stepping
        would give — with the trace padded by copies of ``C``.  Only a
        private, infinite stream may be cut short this way
        (:func:`_private_random_exclusive`); every other schedule is stepped.
        """
        if stability_window < 1:
            raise ValueError("stability_window must be at least 1")
        configuration = (
            start if start is not None else initial_configuration(machine, graph)
        )
        trace: list[Configuration] | None = [configuration] if record_trace else None
        may_skip = _private_random_exclusive(schedule)
        consensus_streak = 0
        quiet_streak = 0
        last_consensus = consensus_value(machine, configuration)
        stabilised_at: int | None = None
        step = 0
        skipped = 0
        for selection in schedule.selections(graph):
            if step >= max_steps:
                break
            step += 1
            next_configuration = successor(machine, graph, configuration, selection)
            if trace is not None:
                trace.append(next_configuration)
            if next_configuration == configuration:
                quiet_streak += 1
            else:
                quiet_streak = 0
            configuration = next_configuration
            current = consensus_value(machine, configuration)
            if current is not None and current == last_consensus:
                consensus_streak += 1
            else:
                consensus_streak = 0
            last_consensus = current
            if consensus_streak >= stability_window:
                stabilised_at = step
                break
            if quiet_streak >= stability_window and current is not None:
                stabilised_at = step
                break
            if (
                quiet_streak == stability_window
                and current is None
                and may_skip
                and not enabled_nodes(machine, graph, configuration)
            ):
                skipped = max_steps - step
                if trace is not None:
                    trace.extend([configuration] * skipped)
                step = max_steps
                break
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("engine.runs", engine="per-node").inc()
            metrics.counter("engine.steps", engine="per-node").inc(step)
            if skipped:
                metrics.counter(
                    "engine.silent_steps_skipped", engine="per-node"
                ).inc(skipped)
        final_value = consensus_value(machine, configuration)
        return _result(final_value, step, configuration, stabilised_at, trace)


# ---------------------------------------------------------------------- #
# Compiled per-node backend (any graph, any schedule, no traces)
# ---------------------------------------------------------------------- #
@dataclass
class CompiledPerNodeBackend(PerNodeBackend):
    """Per-node simulation over compiled transition kernels; O(deg) per step.

    Subclasses :class:`PerNodeBackend` because it implements the same
    semantics on the same instances — for a given seed the two produce
    identical :class:`~repro.core.results.RunResult`\\ s — just with the hot
    loop rewritten around :class:`~repro.core.compile.CompiledMachine` and
    incremental neighbourhood/consensus bookkeeping (see
    :mod:`repro.core.vector_pernode`).  Trace recording is the one
    capability it gives up: materialising a full configuration per step
    would reintroduce the O(n) cost the engine exists to avoid, so
    ``"auto"`` falls back to the reference loop when a trace is requested.
    """

    name = "compiled"
    engine = "vector-pernode"

    def supports(
        self,
        machine: DistributedMachine,
        graph: LabeledGraph,
        schedule: ScheduleGenerator,
        record_trace: bool = False,
    ) -> bool:
        # Unlike the count backend there is no schedule eligibility rule:
        # every schedule but a seeded RandomExclusiveSchedule is consumed
        # through schedule.selections() verbatim, so subclassed schedules
        # keep their custom dynamics.  Implicit cliques are the one graph
        # exclusion: their adjacency is generated on demand, and this
        # engine's per-node adjacency lists would materialise all
        # n(n-1)/2 edges — at the 10⁴–10⁶ scales those graphs exist for
        # that is an O(n²) blow-up, so such instances stay on the count
        # backend (supported schedules) or the streaming reference loop.
        return not record_trace and not isinstance(graph, ImplicitCliqueGraph)

    def run(
        self,
        machine: DistributedMachine,
        graph: LabeledGraph,
        schedule: ScheduleGenerator,
        *,
        max_steps: int,
        stability_window: int,
        record_trace: bool = False,
        start: Configuration | None = None,
    ) -> RunResult:
        if not self.supports(machine, graph, schedule, record_trace):
            raise BackendUnsupported(
                f"the compiled per-node backend records no traces and needs "
                f"materialised adjacency (graph={graph.name!r}, "
                f"record_trace={record_trace}); use the 'per-node' reference "
                f"backend"
            )
        rows = self.rows(machine, graph, schedule, max_steps, stability_window, start)
        if _private_random_exclusive(schedule):
            return rows.run([random.Random(schedule.seed)])[0]
        return rows.run_schedule(schedule)

    def rows(self, machine, graph, schedule, max_steps, stability_window, start=None):
        """The machine's per-node rows, built here only.

        :meth:`run` steps them as a batch of one (every schedule: it picks
        the row loop), and ``run_many`` runs its seeds on them.
        """
        from repro.core.vector_pernode import _PerNodeRows

        return _PerNodeRows(
            compile_machine(machine), graph, max_steps, stability_window, start
        )


def _private_random_exclusive(schedule: ScheduleGenerator) -> bool:
    """Whether the schedule is exactly a random-exclusive one on a private stream.

    Such a stream is infinite and nobody else observes it, so a run may
    consume it differently from the reference loop: a compiled run then
    inlines ``RandomExclusiveSchedule.selections`` for a private
    ``random.Random(seed)``, and the reference loop may stop stepping a dead
    configuration.  Only that exact schedule type qualifies (a subclass may
    yield a finite or custom stream), and only without an injected
    generator: an injected stream is shared beyond this run, and the
    stream-driven row leaves it in the reference loop's state (which draws
    one selection past an exhausted budget).
    """
    return type(schedule) is RandomExclusiveSchedule and schedule.rng is None


# ---------------------------------------------------------------------- #
# Count-based backend (cliques)
# ---------------------------------------------------------------------- #
@dataclass
class CountBasedBackend(SimulationBackend):
    """Count-vector simulation of cliques; per-step cost independent of population size.

    Supported instances: the graph is a clique and the schedule is a
    :class:`RandomExclusiveSchedule` or :class:`SynchronousSchedule` (the two
    schedules whose count-level dynamics are well defined without node
    identities).  Trace recording is unsupported — node identities are not
    tracked, so a per-node trace cannot be reconstructed; the engine falls
    back to the per-node backend when a trace is requested.
    """

    name = "count"
    engine = "vector-batch"

    def supports(
        self,
        machine: DistributedMachine,
        graph: LabeledGraph,
        schedule: ScheduleGenerator,
        record_trace: bool = False,
    ) -> bool:
        # Exact-type check, not isinstance: the count engine never consults
        # schedule.selections() (it resamples the same law at the count
        # level), so a subclass overriding selections() must fall back to
        # the per-node backend to keep its custom dynamics.
        return (
            not record_trace
            and graph.is_clique()
            and type(schedule) in (RandomExclusiveSchedule, SynchronousSchedule)
        )

    def run(
        self,
        machine: DistributedMachine,
        graph: LabeledGraph,
        schedule: ScheduleGenerator,
        *,
        max_steps: int,
        stability_window: int,
        record_trace: bool = False,
        start: Configuration | None = None,
    ) -> RunResult:
        if not self.supports(machine, graph, schedule, record_trace):
            raise BackendUnsupported(
                f"count-based backend needs a clique and a random-exclusive or "
                f"synchronous schedule without trace recording "
                f"(graph={graph.name!r}, schedule={type(schedule).__name__}, "
                f"record_trace={record_trace})"
            )
        if isinstance(schedule, SynchronousSchedule):
            # Deterministic: the row's per-step draw never changes the result,
            # so it draws from a private generator, never from a caller's.
            rng = random.Random(0)
        else:
            rng = resolve_rng(schedule.rng, schedule.seed)
        rows = self.rows(machine, graph, schedule, max_steps, stability_window, start)
        return rows.run([rng])[0]

    def rows(self, machine, graph, schedule, max_steps, stability_window, start=None):
        """The count rows of a machine on a clique, built here only.

        :meth:`run` steps them as a batch of one (``_SynchronousRows`` under
        a synchronous schedule, else ``_MachineRows``), and ``run_many``
        runs its seeds on them.  The node cache takes the compiled table's cap.
        """
        from repro.core.vector_batch import _MachineRows, _SynchronousRows

        synchronous = isinstance(schedule, SynchronousSchedule)
        rows_class = _SynchronousRows if synchronous else _MachineRows
        compiled = compile_machine(machine)
        return rows_class(
            compiled, graph, max_steps, stability_window, compiled.memo_cap, start
        )


# ---------------------------------------------------------------------- #
# Shared verdict assembly and backend resolution
# ---------------------------------------------------------------------- #
def _result(
    final_value: bool | None,
    step: int,
    configuration: Configuration,
    stabilised_at: int | None,
    trace: list[Configuration] | None,
) -> RunResult:
    if final_value is not None:
        # Stabilised, or ran out of steps while in a consensus: report the
        # consensus value (the latter flagged by ``stabilised_at is None``).
        verdict = Verdict.ACCEPT if final_value else Verdict.REJECT
    else:
        verdict = Verdict.UNDECIDED
    return RunResult(
        verdict=verdict,
        steps=step,
        final_configuration=configuration,
        stabilised_at=stabilised_at,
        trace=trace,
    )


PER_NODE_BACKEND = PerNodeBackend()
COMPILED_BACKEND = CompiledPerNodeBackend()
COUNT_BACKEND = CountBasedBackend()

_BACKENDS_BY_NAME: dict[str, SimulationBackend] = {
    PER_NODE_BACKEND.name: PER_NODE_BACKEND,
    COMPILED_BACKEND.name: COMPILED_BACKEND,
    COUNT_BACKEND.name: COUNT_BACKEND,
}


def resolve_backend(
    spec: str | SimulationBackend,
    machine: DistributedMachine,
    graph: LabeledGraph,
    schedule: ScheduleGenerator,
    record_trace: bool = False,
) -> SimulationBackend:
    """Resolve a backend spec (``"auto"``, a name, or an instance) for an instance.

    ``"auto"`` walks the preference ladder: the count-based backend whenever
    it supports the instance (cliques under the exact random-exclusive /
    synchronous schedule types), else the compiled per-node engine (any
    graph and schedule without trace recording), else the per-node
    reference.  Naming a backend that cannot handle the instance raises
    :class:`BackendUnsupported` rather than silently falling back.
    """
    if isinstance(spec, SimulationBackend):
        backend = spec
    elif spec == "auto":
        if COUNT_BACKEND.supports(machine, graph, schedule, record_trace):
            return COUNT_BACKEND
        if COMPILED_BACKEND.supports(machine, graph, schedule, record_trace):
            return COMPILED_BACKEND
        return PER_NODE_BACKEND
    else:
        try:
            backend = _BACKENDS_BY_NAME[spec]
        except KeyError:
            raise ValueError(
                f"unknown backend {spec!r}; expected 'auto', one of "
                f"{sorted(_BACKENDS_BY_NAME)}, or a SimulationBackend instance"
            ) from None
    if not backend.supports(machine, graph, schedule, record_trace):
        raise BackendUnsupported(
            f"backend {backend.name!r} does not support this instance "
            f"(graph={graph.name!r}, schedule={type(schedule).__name__}, "
            f"record_trace={record_trace})"
        )
    return backend
