"""The count-level row engine: rows one after another, shared memo.

This module is the one stepping loop over count vectors.  It runs the
``B`` seeds of a count-eligible batch (clique machine instances, population
protocols) as one batch: the rows execute one after another, in index
order, each to completion in a scalar loop, while the per-step transition
work is shared.  A single run —
:meth:`~repro.core.backends.CountBasedBackend.run`,
``PopulationProtocol.simulate(method="counts")`` — is a batch of one
(:class:`_MachineRows` / :class:`_PopulationRows` on the schedule's own
generator; the synchronous clique run is a :class:`_SynchronousRows` row,
whose count vectors each have one successor).  What the rows share, and
what each row owns:

* the mover enumeration, transition lookups and consensus of a count vector
  are memoised in a *successor graph* shared by every row: each distinct count
  vector is analysed exactly once per batch (a :class:`_Node`), and rows
  walk the graph by reference.  Monte-Carlo trajectories of one instance
  revisit the same count vectors constantly, so this is where the batch
  beats ``B`` independent runs;
* each row owns a private :class:`~repro.core.streaks.ConsensusStreakDriver`
  fed the row's silent-stretch, active-step and fixed-point events, so the
  step, streak and stabilisation accounting is the driver's one rule.

**Batch-size invariance.**  Row ``j`` of a batch is *byte-identical* to
single run ``j`` — and hence a batch's
:class:`~repro.core.batch.BatchResult` to the per-run loop
(:meth:`~repro.workloads.base.Workload.run_many_sequential`), whose runs are
batches of one.  Two contracts make this possible:

1. **Seed derivation** — row ``j`` draws from its own private
   ``random.Random(derive_seed(base_seed, j))``, exactly the generator the
   per-run loop hands to run ``j``.  There is no shared batch-level
   stream, because any shared stream would entangle the rows and break
   single-run reproducibility.
2. **Randomness-free sharing** — per row, the engine draws one geometric
   silent-stretch uniform when the activity probability is below one, then
   one weighted mover uniform per active step (``log1p(-u) / log1p(-p)``
   with the denominator computed once per count vector, integer
   cumulative-weight scan); the shared node analysis draws nothing, so no
   row's stream or values depend on the rows before it.

The row loop is distribution-exact against the per-node chain, not
bit-identical to it: the differential suite and the fuzz oracle hold its
verdicts to the exact decision procedure and the reference engines.

Which rung runs a batch is the workload's own answer:
:meth:`~repro.workloads.base.Workload.row_plan` names the row engine its
seeded random-exclusive ``run`` uses (a machine workload asks
``resolve_backend``, the per-run ladder itself), and
:func:`resolve_batch_backend` maps that name to this module's backend or to
the per-node one of :mod:`repro.core.vector_pernode`; without a row engine
``run_many`` takes the per-run loop.

**Quorum.**  Rows finish in the order ``collect_batch`` folds them, so a
quorum batch keeps running accept/reject counts over the finished prefix
and stops as soon as :func:`~repro.core.batch.quorum_reached` holds on it;
the rows past that point are never simulated (their slots stay ``None``).

Machine rows resolve δ through the machine's compiled table
(:func:`~repro.core.compile.compile_machine`), the one the exact decision
and the per-node engines fill, so they keep no δ cache of their own.

``EngineOptions.memo_cap`` bounds the successor-graph node cache the same
way it bounds the compiled machine's memo table (which machine rows write
to under that same cap): once the cache holds ``memo_cap`` count vectors,
further ones are analysed on every visit instead of being stored.
Node analysis draws no randomness, so the cap never affects results — it
trades the memoisation speedup for bounded memory on long-wandering
batches, whose distinct-count-vector space grows with ``B × steps``.  A
one-row call without a cap keeps at most :data:`ONE_ROW_NODE_CAP` nodes: a
single run gains only from its own revisits, and a drifting run on a large
population reaches a new count vector on almost every active step.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right as _bisect_right
from collections import Counter

from repro.core.batch import quorum_reached
from repro.core.configuration import configuration_from_counts, consensus_of_counts
from repro.core.results import RunResult, Verdict
from repro.core.streaks import ConsensusStreakDriver
from repro.obs.metrics import get_metrics
from repro.obs.tracing import trace_event

_log1p = math.log1p

#: The successor-graph node cap of a one-row call with no ``memo_cap``.  Small
#: instances revisit a few hundred count vectors at most; a 10⁶-agent run
#: would otherwise keep every vector of its trajectory (over a GiB).
ONE_ROW_NODE_CAP = 1024


class _Node:
    """One distinct count vector of the batch, analysed exactly once.

    Holds the consensus value (``bool | None`` for machines,
    :class:`~repro.core.results.Verdict` ``| None`` for populations), the
    mover table (occupied states in sorted ``repr`` order),
    the precomputed geometric denominator ``log1p(-p)`` and the cumulative
    integer weights for the mover draw, plus lazily-built references to the
    successor node of each mover.
    """

    __slots__ = ("counts", "value", "mass", "log_denom", "cum", "movers", "successors")

    def __init__(self, counts, value, mass, log_denom, cum, movers):
        self.counts = counts
        self.value = value
        self.mass = mass
        self.log_denom = log_denom  # None when the activity probability is >= 1
        self.cum = cum
        self.movers = movers
        self.successors: list = [None] * len(cum)


class _CountRows:
    """All rows of one count-level batch, run one after another.

    Subclasses provide the dynamics — :meth:`_build_node` (mover enumeration
    and δ evaluation for one count vector) and :meth:`_apply` (the count
    vector after one mover) — and their finish semantics (:meth:`_finish`).

    ``memo_cap`` (``EngineOptions.memo_cap``) bounds the successor-graph
    node cache: beyond the cap, count vectors are re-analysed per visit and
    no successor links are recorded to them (an uncached node pinned by a
    link would defeat the cap).  Node analysis is deterministic and draws no
    randomness, so the cap is invisible in the results.
    """

    def __init__(
        self, counts: dict, window: int, max_steps: int, memo_cap: int | None = None
    ):
        self._initial = {s: c for s, c in counts.items() if c > 0}
        self.window = window
        self.max_steps = max_steps
        self.memo_cap = memo_cap
        self._nodes: dict = {}
        self._node_cached = True  # whether the last _node_for hit/stored the cache
        # Telemetry accumulators: plain ints on the hot path, flushed once
        # into the metrics registry at the end of run() (only when enabled).
        self._node_hits = 0
        self._node_misses = 0
        self._node_evictions = 0

    def _node_for(self, counts: dict) -> _Node:
        """The (shared, memoised) node of a count vector."""
        key = frozenset(counts.items())
        node = self._nodes.get(key)
        if node is not None:
            self._node_cached = True
            self._node_hits += 1
            return node
        self._node_misses += 1
        node = self._build_node(counts)
        if self.memo_cap is None or len(self._nodes) < self.memo_cap:
            self._nodes[key] = node
            self._node_cached = True
        else:
            self._node_cached = False
            self._node_evictions += 1
        return node

    def _successor(self, node: _Node, index: int) -> _Node:
        succ = self._node_for(self._apply(node, index))
        if self._node_cached:
            node.successors[index] = succ
        return succ

    # -- hooks ----------------------------------------------------------- #
    def _build_node(self, counts: dict) -> _Node:
        raise NotImplementedError

    def _apply(self, node: _Node, index: int) -> dict:
        raise NotImplementedError

    def _finish(
        self, node: _Node, driver: ConsensusStreakDriver, fixed: bool
    ) -> RunResult:
        raise NotImplementedError

    # -- the row loop ---------------------------------------------------- #
    def run(
        self,
        rngs: list,
        early_stop: tuple | None = None,
        materialise_configurations: bool = True,
    ) -> list[RunResult]:
        """Run every row to completion, in row order; one ``RunResult`` each.

        A row walks the shared successor graph: a geometric silent draw
        absorbed by :meth:`ConsensusStreakDriver.advance_silent`, then a
        weighted mover draw counted by
        :meth:`ConsensusStreakDriver.record_active`, until the driver stops
        or the row reaches a fixed point.  ``early_stop`` is the
        ``(target, min_runs, runs)`` quorum contract of
        :meth:`BatchBackend.run_rows`: once the finished prefix satisfies
        :func:`~repro.core.batch.quorum_reached`, the remaining rows are
        never simulated and their slots stay ``None``.

        ``materialise_configurations=False`` retires machine rows with an
        empty ``final_configuration`` instead of an O(n) state tuple — all
        ``B`` results stay resident until the caller folds them, so a
        caller that is about to drop the per-run results (``run_many`` with
        ``keep_results=False``, the executor's record path) opts out of
        holding O(B·n) states alive for nothing.
        """
        self.materialise_configurations = materialise_configurations
        if self.memo_cap is None and len(rngs) == 1:
            self.memo_cap = ONE_ROW_NODE_CAP
        window = self.window
        max_steps = self.max_steps
        initial = self._node_for(self._initial)
        results: list[RunResult | None] = [None] * len(rngs)
        accepts = rejects = 0
        total_steps = silent_total = 0
        stabilised_rows = fixed_rows = exhausted_rows = 0
        for j, rng in enumerate(rngs):
            rand = rng.random
            node = initial
            driver = ConsensusStreakDriver(window, max_steps, node.value)
            fixed = False
            while driver.step < max_steps:
                mass = node.mass
                if mass == 0:
                    fixed = True
                    break
                if node.log_denom is not None:  # activity probability < 1
                    silent = int(_log1p(-rand()) / node.log_denom)
                    if silent:
                        silent_total += silent
                        if driver.advance_silent(silent, node.value):
                            break
                # The first mover whose cumulative weight exceeds the point;
                # rand() * mass < mass for any integer mass below 2**53.
                index = _bisect_right(node.cum, rand() * mass)
                succ = node.successors[index]
                node = succ if succ is not None else self._successor(node, index)
                if driver.record_active(node.value):
                    break
            result = self._finish(node, driver, fixed)
            results[j] = result
            total_steps += driver.step
            if fixed:
                fixed_rows += 1
            elif driver.stabilised_at is not None:
                stabilised_rows += 1
            else:
                exhausted_rows += 1
            if early_stop is not None:
                verdict = result.verdict
                if verdict is Verdict.ACCEPT:
                    accepts += 1
                elif verdict is Verdict.REJECT:
                    rejects += 1
                if quorum_reached(early_stop, j + 1, accepts, rejects):
                    break
        # Count vectors recur, so successor links form reference cycles:
        # unlink them so the graph is freed by reference counting instead of
        # piling up for a full collection (one graph per single run).
        for node in self._nodes.values():
            node.successors = [None] * len(node.cum)
        metrics = get_metrics()
        if metrics.enabled:
            completed = stabilised_rows + fixed_rows + exhausted_rows
            abandoned = len(rngs) - completed
            metrics.counter("engine.runs", engine="vector-batch").inc(completed)
            metrics.counter("engine.steps", engine="vector-batch").inc(total_steps)
            if silent_total:
                metrics.counter(
                    "engine.silent_steps_skipped", engine="vector-batch"
                ).inc(silent_total)
            for reason, count in (
                ("stabilised", stabilised_rows),
                ("fixed-point", fixed_rows),
                ("exhausted", exhausted_rows),
                ("quorum-abandoned", abandoned),
            ):
                if count:
                    metrics.counter("batch.rows_retired", reason=reason).inc(count)
            for name, count in (
                ("memo.hits", self._node_hits),
                ("memo.misses", self._node_misses),
                ("memo.evictions", self._node_evictions),
            ):
                if count:
                    metrics.counter(name, table="batch-node").inc(count)
        return results  # type: ignore[return-value]


class _MachineRows(_CountRows):
    """Count-vector runs of a machine on a clique.

    The random-exclusive count engine of
    :class:`~repro.core.backends.CountBasedBackend`: count vectors over the
    state ids of ``compiled``, movers enumerated over the occupied states in
    sorted ``repr`` order, each looked up in the compiled table under its
    canonical view key (the global counts minus the node itself), silent
    stretches absorbed geometrically with activity probability
    ``active_mass / n``.  A clique the exact decision explored runs with no
    δ call: the decision fills the same table.
    """

    def __init__(
        self,
        compiled,
        graph,
        max_steps: int,
        window: int,
        memo_cap: int | None = None,
        start=None,
    ):
        if window < 1:
            raise ValueError("stability_window must be at least 1")
        if start is not None:
            counts = Counter(map(compiled.intern, start))
        else:
            counts = {}  # labels by first appearance, so states are too
            for label, count in Counter(graph.labels).items():
                sid = compiled.init_id(label)
                counts[sid] = counts.get(sid, 0) + count
        super().__init__(counts, window, max_steps, memo_cap)
        self.compiled = compiled
        self.n = n = graph.num_nodes
        # A miss is written to the table only when the cap can bind.  With
        # β ≥ n-1 views track count vectors one to one (and need no capping)
        # and the node cache already dedupes per vector, so every entry would
        # be written once and never read: one per count vector of a run.
        self._capped = compiled.beta < n - 1
        self._resolve = compiled.step_id if self._capped else compiled.evaluate_id
        self._reprs: list[str] = []  # id -> repr(state), the mover order key
        self._hits = 0
        self._misses = 0

    def run(self, rngs, early_stop=None, materialise_configurations=True):
        results = super().run(rngs, early_stop, materialise_configurations)
        self.compiled.record_lookups(self._hits, self._misses)
        self._hits = self._misses = 0
        return results

    def _build_node(self, counts: dict) -> _Node:
        compiled = self.compiled
        table = compiled._table  # hit path inlined below; misses go via _resolve
        beta = compiled.beta
        degree = self.n - 1
        reprs = self._reprs
        reprs.extend(map(repr, compiled._states[len(reprs):]))
        # The capped counts sorted by id; a node's view key differs from it
        # only in the node's own entry, one less (dropped at zero).
        items = sorted(counts.items())
        if self._capped:
            items = [(q, c if c < beta else beta) for q, c in items]
        items = tuple(items)
        resolve = self._resolve
        nexts = {}
        misses = 0
        for i, (q, _) in enumerate(items):
            own = counts[q] - 1
            if own:
                own = own if own < beta else beta
                key = (degree, items[:i] + ((q, own),) + items[i + 1:])
            else:
                key = (degree, items[:i] + items[i + 1:])
            row = table.get(q)
            nxt = row.get(key) if row is not None else None
            if nxt is None:
                misses += 1
                nxt = resolve(q, key)
            nexts[q] = nxt
        self._misses += misses
        self._hits += len(items) - misses
        cum: list[int] = []
        movers: list[tuple] = []
        mass = 0
        for q in sorted(counts, key=reprs.__getitem__):
            nxt = nexts[q]
            if nxt != q:
                mass += counts[q]
                cum.append(mass)
                movers.append((q, nxt))
        log_denom = _log1p(-(mass / self.n)) if 0 < mass < self.n else None
        # consensus_of_counts on the flag arrays, accept-first.
        value = (
            True if all(map(compiled._accepting.__getitem__, counts))
            else False if all(map(compiled._rejecting.__getitem__, counts))
            else None
        )
        return _Node(counts, value, mass, log_denom, cum, movers)

    def _apply(self, node: _Node, index: int):
        state, nxt = node.movers[index]
        counts = dict(node.counts)
        counts[state] -= 1
        if counts[state] == 0:
            del counts[state]
        counts[nxt] = counts.get(nxt, 0) + 1
        return counts

    def _finish(self, node, driver, fixed):
        value = node.value
        if fixed:
            driver.finish_at_fixed_point(value)
        if value is None:
            verdict = Verdict.UNDECIDED
        else:
            verdict = Verdict.ACCEPT if value else Verdict.REJECT
        return RunResult(
            verdict=verdict,
            steps=driver.step,
            final_configuration=(
                configuration_from_counts(
                    {self.compiled.state_of(q): c for q, c in node.counts.items()}
                )
                if self.materialise_configurations
                else ()
            ),
            stabilised_at=driver.stabilised_at,
            trace=None,
        )


class _SynchronousRows(_MachineRows):
    """The synchronous run of a machine on a clique, as count rows.

    Every node steps at once, so a count vector has one successor: its
    synchronous image, summed from the ``(state, next)`` movers
    :class:`_MachineRows` enumerates.  A node whose image is its own count
    vector (nodes may swap states without changing the counts) has mass 0,
    which the row loop retires as a fixed point.  The run is deterministic:
    the row's one mover draw per step always picks the image, so any
    generator gives the same result.
    """

    def _build_node(self, counts: dict) -> _Node:
        node = super()._build_node(counts)
        image = dict(counts)
        for state, nxt in node.movers:
            moved = counts[state]
            image[state] -= moved
            if image[state] == 0:
                del image[state]
            image[nxt] = image.get(nxt, 0) + moved
        if image == counts:
            return _Node(counts, node.value, 0, None, [], [])
        return _Node(counts, node.value, 1, None, [1], [image])

    def _apply(self, node: _Node, index: int):
        return node.movers[index]


class _PopulationRows(_CountRows):
    """Count-vector runs of a population protocol (pair interactions).

    The counts engine of ``PopulationProtocol.simulate``: movers are the
    active ordered state pairs (weights ``c_p · (c_q - [p = q])``), the
    stabilisation window is ``10·n``, δ outcomes are cached per ordered
    pair, and the fixed-point-without-consensus case reports ``UNDECIDED``
    at the *full* step budget (the verdict is decided now or never).
    """

    def __init__(
        self, protocol, counts: dict, max_steps: int, memo_cap: int | None = None
    ):
        n = sum(counts.values())
        super().__init__(counts, 10 * n, max_steps, memo_cap)
        self.protocol = protocol
        self.n = n
        self.total_pairs = n * (n - 1)
        self._delta_cache: dict = {}
        self._pair_tables: dict = {}

    def _pair_table(self, states: tuple) -> list:
        """The active ordered pairs of an occupied-state *set*, precomputed.

        Which ordered pairs are non-silent (``δ(p, q) ≠ (p, q)``) depends
        only on the occupied states, not on their counts, and the number of
        distinct occupied sets is tiny compared to the number of distinct
        count vectors — so the δ evaluations and pair ordering are factored
        out here and :meth:`_build_node` only computes weights.  The
        enumeration order (sorted states, nested p/q loops) fixes the mover
        order, and hence which pair each weighted draw selects.
        """
        table = self._pair_tables.get(states)
        if table is None:
            protocol = self.protocol
            delta_cache = self._delta_cache
            table = []
            for p in states:
                for q in states:
                    key = (p, q)
                    outcome = delta_cache.get(key)
                    if outcome is None:
                        outcome = protocol.delta(p, q)
                        delta_cache[key] = outcome
                    if outcome != key:
                        table.append((p, q, p is q or p == q, (p, q, *outcome)))
            self._pair_tables[states] = table
        return table

    def _build_node(self, counts: dict) -> _Node:
        cum: list[int] = []
        movers: list[tuple] = []
        mass = 0
        states = tuple(sorted(counts, key=repr))
        for p, q, same, mover in self._pair_table(states):
            weight = counts[p] * (counts[q] - (1 if same else 0))
            if weight <= 0:
                continue
            mass += weight
            cum.append(mass)
            movers.append(mover)
        log_denom = (
            _log1p(-(mass / self.total_pairs))
            if 0 < mass < self.total_pairs
            else None
        )
        decided = consensus_of_counts(self.protocol, counts)
        if decided is None:
            value = None
        else:
            value = Verdict.ACCEPT if decided else Verdict.REJECT
        return _Node(counts, value, mass, log_denom, cum, movers)

    def _apply(self, node: _Node, index: int):
        p, q, p2, q2 = node.movers[index]
        counts = dict(node.counts)
        counts[p] -= 1
        if counts[p] == 0:
            del counts[p]
        counts[q] = counts.get(q, 0) - 1
        if counts[q] == 0:
            del counts[q]
        counts[p2] = counts.get(p2, 0) + 1
        counts[q2] = counts.get(q2, 0) + 1
        return counts

    def _finish(self, node, driver, fixed):
        value = node.value
        if fixed:
            if value is None:
                # (UNDECIDED, max_steps): the verdict is decided now or
                # never, and the full budget is reported regardless of the
                # steps actually taken.
                return RunResult(
                    verdict=Verdict.UNDECIDED,
                    steps=self.max_steps,
                    final_configuration=(),
                )
            driver.finish_at_fixed_point(value)
        # The population engines report plain (verdict, steps): no node
        # identities, no stabilisation step (matching PopulationWorkload.run).
        return RunResult(
            verdict=Verdict.UNDECIDED if value is None else value,
            steps=driver.step,
            final_configuration=(),
        )

# ---------------------------------------------------------------------- #
# The batch backend layer
# ---------------------------------------------------------------------- #
class BatchBackend:
    """One rung of the ``run_many`` ladder: runs a batch's seeds as rows.

    ``run_rows`` executes one row per seed on the workload's own row engine
    (:meth:`~repro.workloads.base.Workload.rows`) and returns the per-run
    :class:`~repro.core.results.RunResult`\\ s in row order, each equal to
    ``workload.run(seed)``.
    """

    name: str = "abstract"

    def run_rows(
        self,
        workload,
        seeds: list[int],
        early_stop: tuple | None = None,
        materialise_configurations: bool = True,
    ) -> list[RunResult]:
        """One run per seed, in row order — each equal to ``workload.run(seed)``.

        With ``early_stop`` (the ``(target, min_runs, runs)`` quorum
        contract) rows past the quorum stop position may be abandoned and
        returned as ``None``; with ``materialise_configurations=False`` the
        results carry empty final configurations (for callers about to drop
        them — all ``B`` results are resident at once, so O(B·n) state
        tuples are built only on request); see :meth:`_CountRows.run`.
        """
        return workload.rows().run(
            [random.Random(seed) for seed in seeds],
            early_stop=early_stop,
            materialise_configurations=materialise_configurations,
        )


class VectorizedBatchBackend(BatchBackend):
    """The count-level rung of ``Workload.run_many`` (module docstring)."""

    name = "vector-batch"
    # Each rung's class holds its own run_rows, so one rung can be wrapped
    # and timed apart from the other (perfbench/layers.py does).
    run_rows = BatchBackend.run_rows


VECTOR_BATCH = VectorizedBatchBackend()


def resolve_batch_backend(workload) -> BatchBackend | None:
    """The rung of ``workload.row_plan()``, or ``None`` for the per-run loop.

    The workload names the row engine its seeded random-exclusive ``run``
    uses (:meth:`~repro.workloads.base.Workload.row_plan`); this maps the
    name to this module's count-level backend or to the per-node one of
    :mod:`repro.core.vector_pernode`.  Deterministic workloads never reach
    this resolver — ``Workload.run_many`` simulates them once and
    replicates the run, which no batch engine can beat.

    A fall-through to the per-run loop emits a one-line ``batch-fallback``
    trace event with the workload's reason code, and bumps
    ``dispatch.fallback{reason=...}`` when metrics are enabled.
    """
    rung, reason = workload.row_plan()
    if rung is not None:
        from repro.core.vector_pernode import VECTOR_PERNODE

        return VECTOR_BATCH if rung == VECTOR_BATCH.name else VECTOR_PERNODE
    trace_event("batch-fallback", workload=type(workload).__name__, reason=reason)
    metrics = get_metrics()
    if metrics.enabled:
        metrics.counter("dispatch.fallback", reason=reason).inc()
    return None
