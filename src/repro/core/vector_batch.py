"""The vectorized multi-seed batch engine: all runs of a batch in lockstep.

``Workload.run_many`` historically executed its ``B`` Monte-Carlo runs one at
a time through a Python loop, so sweep throughput scaled linearly with the
run count even on the count backend, where every run is just arithmetic on a
small count vector.  This module runs all ``B`` seeds of a count-eligible
batch *in lockstep*:

* the per-run configurations live in one ``(B, |states|)`` numpy count
  matrix, updated with batched column operations (``np.add.at`` /
  ``np.subtract.at`` over the rows that took an active step this iteration);
* consensus streaks are tracked by
  :class:`~repro.core.streaks.ArrayStreakDriver` — the scalar
  :class:`~repro.core.streaks.ConsensusStreakDriver` lifted into array form;
* finished rows (stabilised, fixed point, or step budget spent) are retired
  from the active mask, so early-finishing rows stop consuming work;
* the per-step transition work (mover enumeration, δ evaluation, consensus
  of the count vector) is memoised in a *successor graph* shared by every
  row: each distinct count vector is analysed exactly once per batch, and
  rows walk the graph by reference.  Monte-Carlo trajectories of one
  instance revisit the same count vectors constantly, so this is where the
  batch beats ``B`` independent runs.

**Bit-identity guarantee.**  The vectorized engine produces *byte-identical*
:class:`~repro.core.batch.BatchResult`\\ s to the sequential per-run loop
(:meth:`~repro.workloads.base.Workload.run_many_sequential`, kept verbatim
as the differential oracle).  Two contracts make this possible:

1. **Seed derivation** — row ``j`` draws from its own private
   ``random.Random(derive_seed(base_seed, j))``, exactly the generator the
   sequential loop hands to run ``j``.  Batched draws *gather from the
   per-row generators*; there is no shared batch-level stream, because any
   shared stream would entangle the rows and break single-run
   reproducibility.
2. **Draw-for-draw replay** — per row, the engine consumes uniforms in
   exactly the sequential order (one geometric silent-stretch draw when the
   activity probability is below one, then one weighted mover draw per
   active step) and evaluates the *same* float expressions
   (``log1p(-u) / log1p(-p)`` with the denominator computed once per count
   vector, integer cumulative-weight scan), so every intermediate value is
   identical — not merely statistically equivalent.

Eligibility mirrors ``resolve_backend``'s auto ladder one level up:
:func:`resolve_batch_backend` returns this count-vector backend for
workloads whose per-run engine is count-level (clique machine instances
under the random-exclusive schedule, population protocols under the counts
method), the per-node row-by-row backend of
:mod:`repro.core.vector_pernode` for workloads whose per-run engine is the
compiled per-node one (non-clique machine instances, shipped compiled
workloads), and ``None`` otherwise, in which case ``run_many`` falls back
to the per-run loop.  Quorum batches abandon the rows the sequential loop
would have skipped: the quorum rule is an ordered fold (run ``j`` is only
consulted once runs ``0..j-1`` have outcomes) whose stopping condition is
monotone in the decided-verdict counts, so :func:`quorum_abandon_bound`
derives, from the rows finished *so far*, the tightest position the fold
can possibly stop at — and every row at or past that bound is dropped
mid-flight the moment the bound becomes provable, not only once the
finished prefix catches up.

``EngineOptions.memo_cap`` bounds the per-batch caches the same way it
bounds the compiled machine's memo table: once the successor-graph node
cache (and, for machines, the δ view cache) holds ``memo_cap`` entries,
further count vectors are analysed on every visit instead of being stored.
Node analysis draws no randomness, so the cap never affects results — it
trades the memoisation speedup for bounded memory on long-wandering
batches, whose distinct-count-vector space grows with ``B × steps``.
"""

from __future__ import annotations

import math
import random

from repro.core.backends import COUNT_BACKEND
from repro.core.batch import BatchResult, collect_batch, derive_seed, quorum_target
from repro.core.configuration import configuration_from_counts, consensus_of_counts
from repro.core.machine import Neighborhood
from repro.core.results import RunResult, Verdict
from repro.core.scheduler import RandomExclusiveSchedule
from repro.core.streaks import ArrayStreakDriver
from repro.obs.metrics import get_metrics
from repro.obs.tracing import trace_event

try:  # numpy carries the count matrix; without it batches fall back to the loop
    import numpy as _np
except ImportError:  # pragma: no cover - the toolchain ships numpy
    _np = None

_log1p = math.log1p
_MISS = object()  # cache-miss sentinel (None can be a legitimate cached value)

#: Consensus codes used by the array driver (``value`` column semantics).
_NONE = ArrayStreakDriver.NO_CONSENSUS  # -1: no consensus
_FALSE = 0
_TRUE = 1

_PROBE_SCHEDULE = RandomExclusiveSchedule(seed=0)


def _code(value) -> int:
    """Encode a consensus value (``bool | None``) as an int8 driver code."""
    if value is None:
        return _NONE
    return _TRUE if value else _FALSE


def quorum_abandon_bound(results: list, early_stop: tuple) -> int | None:
    """The tightest provable bound on how many rows ``collect_batch`` consumes.

    ``results`` is the in-flight per-row result list (``None`` = still
    running or abandoned) and ``early_stop`` the quorum contract
    ``(target, min_runs, runs)`` from
    :func:`~repro.core.batch.quorum_target`.  Rows are scanned in fold
    order, counting decided verdicts among the rows that have *already
    finished*, and the exact ``collect_batch`` stopping condition is applied
    after each position.  The condition is monotone in the decided counts —
    a still-running row can only add to them once it finishes — so if it
    already holds at position ``i`` over the finished subset, the sequential
    fold is guaranteed to stop after consuming at most ``i + 1`` rows.
    Rows at index ``>= i + 1`` can therefore never be consulted and may be
    abandoned immediately, even while earlier rows are still mid-flight.
    Returns that bound, or ``None`` while no stop can be proven yet.

    This strictly subsumes the earlier finished-*prefix* rule (a complete
    satisfying prefix is just the special case where every scanned row has
    finished), which let rows beyond the eventual stop position burn
    lockstep work until the prefix caught up.
    """
    target, min_runs, runs = early_stop
    accepts = rejects = 0
    for consumed, result in enumerate(results, start=1):
        if result is not None:
            verdict = result.verdict
            if verdict is Verdict.ACCEPT:
                accepts += 1
            elif verdict is Verdict.REJECT:
                rejects += 1
        if (
            consumed >= min_runs
            and consumed < runs
            and (accepts >= target or rejects >= target)
        ):
            return consumed
    return None


class _Node:
    """One distinct count vector of the batch, analysed exactly once.

    Holds the mover table (enumeration order identical to the sequential
    engine's), the precomputed geometric denominator ``log1p(-p)`` and the
    cumulative integer weights for the mover draw, plus lazily-built
    references to the successor node of each mover.  ``sub``/``add`` are the
    interned column indices the count matrix must decrement/increment when a
    row takes the corresponding mover.
    """

    __slots__ = (
        "counts",
        "consensus_code",
        "mass",
        "log_denom",
        "cum",
        "sub",
        "add",
        "movers",
        "successors",
    )

    def __init__(self, counts, consensus_code, mass, log_denom, cum, sub, add, movers):
        self.counts = counts
        self.consensus_code = consensus_code
        self.mass = mass
        self.log_denom = log_denom  # None when the activity probability is >= 1
        self.cum = cum
        self.sub = sub
        self.add = add
        self.movers = movers
        self.successors: list = [None] * len(cum)

    def pick(self, point: float) -> int:
        """The mover index of a weighted draw — the cumulative scan of
        :func:`~repro.core.scheduler.weighted_index`, over precomputed
        integer cumulative weights (bit-identical comparisons)."""
        for index, cumulative in enumerate(self.cum):
            if point < cumulative:
                return index
        return len(self.cum) - 1


class _LockstepRun:
    """Shared lockstep driver: count matrix, array streaks, active mask.

    Subclasses provide the dynamics — :meth:`_build_node` (mover enumeration
    and δ evaluation for one count vector) and :meth:`_apply` (the count
    deltas of one mover) — and the finish semantics of their sequential
    engine (:meth:`_retire`, :meth:`_finish_fixed`).

    ``memo_cap`` (``EngineOptions.memo_cap``) bounds the successor-graph
    node cache: beyond the cap, count vectors are re-analysed per visit and
    no successor links are recorded to them (an uncached node pinned by a
    link would defeat the cap).  Node analysis is deterministic and draws no
    randomness, so the cap is invisible in the results.
    """

    #: Engine label used for the registry flush (``engine.runs{engine=...}``).
    engine = "vector-batch"

    def __init__(self, window: int, max_steps: int, memo_cap: int | None = None):
        self.window = window
        self.max_steps = max_steps
        self.memo_cap = memo_cap
        self._states: list = []  # interned states, index = matrix column
        self._index: dict = {}
        self._nodes: dict = {}
        self._node_cached = True  # whether the last _node_for hit/stored the cache
        # Telemetry accumulators: plain ints on the hot path, flushed once
        # into the metrics registry at the end of run() (only when enabled).
        self._node_hits = 0
        self._node_misses = 0
        self._node_evictions = 0
        self._delta_hits = 0
        self._delta_misses = 0
        self._delta_evictions = 0

    # -- state interning ------------------------------------------------- #
    def _intern(self, state) -> int:
        column = self._index.get(state)
        if column is None:
            column = len(self._states)
            self._index[state] = column
            self._states.append(state)
        return column

    def _node_for(self, counts: dict) -> _Node:
        """The (shared, memoised) node of a count vector."""
        key = tuple(sorted((self._intern(s), c) for s, c in counts.items()))
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
        succ = node.successors[index]
        if succ is None:
            succ = self._node_for(self._apply(node, index))
            if self._node_cached:
                node.successors[index] = succ
        return succ

    # -- hooks ----------------------------------------------------------- #
    def _build_node(self, counts: dict) -> _Node:
        raise NotImplementedError

    def _apply(self, node: _Node, index: int) -> dict:
        raise NotImplementedError

    def _retire(self, row: int, node: _Node) -> RunResult:
        raise NotImplementedError

    def _finish_fixed(self, rows: list, nodes: list) -> None:
        raise NotImplementedError

    # -- the lockstep loop ----------------------------------------------- #
    def run(
        self,
        rngs: list,
        early_stop: tuple | None = None,
        materialise_configurations: bool = True,
    ) -> list[RunResult]:
        """Advance every row to completion; one ``RunResult`` per generator.

        ``early_stop`` is the quorum contract ``(target, min_runs, runs)``
        from :func:`~repro.core.batch.quorum_target`: after any lockstep
        iteration that retires a row, :func:`quorum_abandon_bound` derives
        the tightest row count the ``collect_batch`` fold can possibly
        consume, and every row at or past that bound is abandoned
        immediately — its slot stays ``None`` — while earlier rows keep
        running to completion.  ``collect_batch`` drains the returned list
        in row order and stops at or before the bound, so it never reaches
        an abandoned slot.

        ``materialise_configurations=False`` retires machine rows with an
        empty ``final_configuration`` instead of an O(n) state tuple — all
        ``B`` results stay resident until the caller folds them, so a
        caller that is about to drop the per-run results (``run_many`` with
        ``keep_results=False``, the executor's record path) opts out of
        holding O(B·n) states alive for nothing.
        """
        np = _np
        batch = len(rngs)
        self.materialise_configurations = materialise_configurations
        rands = [rng.random for rng in rngs]
        initial = self._node_for(self._initial_counts())
        self.row_node: list[_Node] = [initial] * batch
        self.driver = ArrayStreakDriver(
            self.window, self.max_steps, [initial.consensus_code] * batch
        )
        self.results: list[RunResult | None] = [None] * batch
        width = len(self._states)
        matrix = np.zeros((batch, width), dtype=np.int64)
        for state, count in initial.counts.items():
            matrix[:, self._index[state]] = count
        self.matrix = matrix
        alive = list(range(batch))
        driver = self.driver
        row_node = self.row_node
        # Retirement-reason tally (plain ints; flushed once when metrics on).
        track = get_metrics().enabled
        stabilised_rows = fixed_rows_total = exhausted_rows = silent_total = 0
        while alive:
            retired = False
            fixed_rows: list[int] = []
            live_rows: list[int] = []
            silent_values: list[int] = []
            live_codes: list[int] = []
            for j in alive:
                node = row_node[j]
                if node.mass == 0:
                    fixed_rows.append(j)
                    continue
                if node.log_denom is None:  # activity probability >= 1: no draw
                    silent = 0
                else:
                    silent = int(_log1p(-rands[j]()) / node.log_denom)
                live_rows.append(j)
                silent_values.append(silent)
                live_codes.append(node.consensus_code)
            if track and silent_values:
                silent_total += sum(silent_values)
            if fixed_rows:
                self._finish_fixed(fixed_rows, [row_node[j] for j in fixed_rows])
                fixed_rows_total += len(fixed_rows)
                retired = True
            survivors: list[int] = []
            if live_rows:
                rows = np.array(live_rows, dtype=np.intp)
                silent_arr = np.array(silent_values, dtype=np.int64)
                has_silent = silent_arr > 0
                if has_silent.any():
                    stretch_rows = rows[has_silent]
                    finished = driver.advance_silent(
                        stretch_rows,
                        silent_arr[has_silent],
                        np.array(live_codes, dtype=np.int8)[has_silent],
                    )
                    for j in stretch_rows[finished]:
                        self.results[j] = self._retire(int(j), row_node[j])
                        stabilised_rows += 1
                        retired = True
                    survivors = rows[~has_silent].tolist()
                    survivors.extend(int(j) for j in stretch_rows[~finished])
                else:
                    survivors = live_rows
            if not survivors:
                alive = []
                continue
            sub_rows: list[int] = []
            sub_cols: list[int] = []
            add_rows: list[int] = []
            add_cols: list[int] = []
            new_codes: list[int] = []
            for j in survivors:
                node = row_node[j]
                index = node.pick(rands[j]() * node.mass)
                succ = self._successor(node, index)
                row_node[j] = succ
                for column in node.sub[index]:
                    sub_rows.append(j)
                    sub_cols.append(column)
                for column in node.add[index]:
                    add_rows.append(j)
                    add_cols.append(column)
                new_codes.append(succ.consensus_code)
            if len(self._states) > self.matrix.shape[1]:  # new states interned
                grown = np.zeros((batch, len(self._states)), dtype=np.int64)
                grown[:, : self.matrix.shape[1]] = self.matrix
                self.matrix = grown
            np.subtract.at(self.matrix, (sub_rows, sub_cols), 1)
            np.add.at(self.matrix, (add_rows, add_cols), 1)
            active_rows = np.array(survivors, dtype=np.intp)
            finished = driver.record_active(
                active_rows, np.array(new_codes, dtype=np.int8)
            )
            for j in active_rows[finished]:
                self.results[j] = self._retire(int(j), row_node[j])
                stabilised_rows += 1
                retired = True
            remaining = active_rows[~finished]
            exhausted = driver.exhausted(remaining)
            for j in remaining[exhausted]:
                self.results[j] = self._retire(int(j), row_node[j])
                exhausted_rows += 1
                retired = True
            alive = remaining[~exhausted].tolist()
            if retired and early_stop is not None and alive:
                bound = quorum_abandon_bound(self.results, early_stop)
                if bound is not None:
                    alive = [j for j in alive if j < bound]
        metrics = get_metrics()
        if metrics.enabled:
            abandoned = sum(1 for result in self.results if result is None)
            metrics.counter("engine.runs", engine=self.engine).inc(batch - abandoned)
            metrics.counter("engine.steps", engine=self.engine).inc(
                int(driver.step.sum())
            )
            if silent_total:
                metrics.counter(
                    "engine.silent_steps_skipped", engine=self.engine
                ).inc(silent_total)
            for reason, count in (
                ("stabilised", stabilised_rows),
                ("fixed-point", fixed_rows_total),
                ("exhausted", exhausted_rows),
                ("quorum-abandoned", abandoned),
            ):
                if count:
                    metrics.counter("batch.rows_retired", reason=reason).inc(count)
            for table, hits, misses, evictions in (
                ("batch-node", self._node_hits, self._node_misses, self._node_evictions),
                ("batch-delta", self._delta_hits, self._delta_misses, self._delta_evictions),
            ):
                if hits:
                    metrics.counter("memo.hits", table=table).inc(hits)
                if misses:
                    metrics.counter("memo.misses", table=table).inc(misses)
                if evictions:
                    metrics.counter("memo.evictions", table=table).inc(evictions)
        return self.results  # type: ignore[return-value]

    def _initial_counts(self) -> dict:
        raise NotImplementedError

    def _matrix_counts(self, row: int) -> dict:
        """The count dict of a matrix row — the retirement read-back path."""
        return {
            self._states[column]: int(count)
            for column, count in enumerate(self.matrix[row])
            if count
        }


class _MachineLockstep(_LockstepRun):
    """Lockstep count-vector runs of a machine on a clique.

    The dynamics mirror ``repro.core.backends._CountRun.run_exclusive``
    state-for-state: movers enumerated over the occupied states in sorted
    ``repr`` order, each evaluated on the β-capped neighbourhood view (the
    global counts minus the node itself), silent stretches absorbed
    geometrically with activity probability ``active_mass / n``.
    """

    def __init__(
        self,
        machine,
        n: int,
        counts: dict,
        max_steps: int,
        window: int,
        memo_cap: int | None = None,
    ):
        super().__init__(window, max_steps, memo_cap)
        self.machine = machine
        self.n = n
        self._initial = {s: c for s, c in counts.items() if c > 0}
        # δ memoised on the β-capped view, like _CountRun (but shared across
        # all rows and count vectors of the batch) — and gated off the same
        # way: with β ≥ n-1 views track count vectors one-to-one, the node
        # cache already dedupes per vector, so every entry would be written
        # once and never read (pure memory growth, mirrors backends.py).
        self._memoise_delta = machine.beta < n - 1
        self._delta_cache: dict = {}

    def _initial_counts(self) -> dict:
        return self._initial

    def _build_node(self, counts: dict) -> _Node:
        machine = self.machine
        delta_cache = self._delta_cache
        memo_cap = self.memo_cap
        cum: list[int] = []
        sub: list[tuple[int, ...]] = []
        add: list[tuple[int, ...]] = []
        movers: list[tuple] = []
        mass = 0
        for state in sorted(counts, key=repr):
            neighbour_counts = dict(counts)
            neighbour_counts[state] -= 1
            view = Neighborhood(neighbour_counts, machine.beta, total=self.n - 1)
            if self._memoise_delta:
                key = (state, view)
                nxt = delta_cache.get(key, _MISS)
                if nxt is _MISS:
                    self._delta_misses += 1
                    nxt = machine.step(state, view)
                    if memo_cap is None or len(delta_cache) < memo_cap:
                        delta_cache[key] = nxt
                    else:
                        self._delta_evictions += 1
                else:
                    self._delta_hits += 1
            else:
                nxt = machine.step(state, view)
            if nxt != state:
                mass += counts[state]
                cum.append(mass)
                sub.append((self._intern(state),))
                add.append((self._intern(nxt),))
                movers.append((state, nxt))
        log_denom = _log1p(-(mass / self.n)) if 0 < mass < self.n else None
        return _Node(
            counts, _code(consensus_of_counts(machine, counts)), mass, log_denom,
            cum, sub, add, movers,
        )

    def _apply(self, node: _Node, index: int):
        state, nxt = node.movers[index]
        counts = dict(node.counts)
        counts[state] -= 1
        if counts[state] == 0:
            del counts[state]
        counts[nxt] = counts.get(nxt, 0) + 1
        return counts

    def _finish_fixed(self, rows: list, nodes: list) -> None:
        self.driver.finish_at_fixed_point(
            rows, [node.consensus_code for node in nodes]
        )
        for j, node in zip(rows, nodes):
            self.results[j] = self._retire(j, node)

    def _retire(self, row: int, node: _Node) -> RunResult:
        code = node.consensus_code
        if code == _NONE:
            verdict = Verdict.UNDECIDED
        else:
            verdict = Verdict.ACCEPT if code == _TRUE else Verdict.REJECT
        stabilised = int(self.driver.stabilised_at[row])
        return RunResult(
            verdict=verdict,
            steps=int(self.driver.step[row]),
            final_configuration=(
                configuration_from_counts(self._matrix_counts(row))
                if self.materialise_configurations
                else ()
            ),
            stabilised_at=None if stabilised < 0 else stabilised,
            trace=None,
        )


class _PopulationLockstep(_LockstepRun):
    """Lockstep count-vector runs of a population protocol (pair interactions).

    Mirrors ``PopulationProtocol._simulate_counts``: movers are the active
    ordered state pairs (weights ``c_p · (c_q - [p = q])``), the stabilisation
    window is ``10·n``, δ outcomes are cached per ordered pair, and the
    fixed-point-without-consensus case reports ``UNDECIDED`` at the *full*
    step budget, exactly as the scalar engine does.
    """

    def __init__(
        self, protocol, counts: dict, max_steps: int, memo_cap: int | None = None
    ):
        n = sum(counts.values())
        super().__init__(10 * n, max_steps, memo_cap)
        self.protocol = protocol
        self.n = n
        self.total_pairs = n * (n - 1)
        self._initial = {s: c for s, c in counts.items() if c > 0}
        self._delta_cache: dict = {}
        self._pair_tables: dict = {}
        self._forced_undecided: set[int] = set()

    def _initial_counts(self) -> dict:
        return self._initial

    def _pair_table(self, states: tuple) -> list:
        """The active ordered pairs of an occupied-state *set*, precomputed.

        Which ordered pairs are non-silent (``δ(p, q) ≠ (p, q)``) depends
        only on the occupied states, not on their counts, and the number of
        distinct occupied sets is tiny compared to the number of distinct
        count vectors — so the δ evaluations, interning and pair ordering
        are factored out here and :meth:`_build_node` only computes weights.
        The enumeration order (sorted states, nested p/q loops) is the
        sequential engine's, so the mover order — and hence the weighted
        draw — is identical.
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
                        p2, q2 = outcome
                        table.append(
                            (
                                p,
                                q,
                                p is q or p == q,
                                (self._intern(p), self._intern(q)),
                                (self._intern(p2), self._intern(q2)),
                                (p, q, p2, q2),
                            )
                        )
            self._pair_tables[states] = table
        return table

    def _build_node(self, counts: dict) -> _Node:
        cum: list[int] = []
        sub: list[tuple[int, ...]] = []
        add: list[tuple[int, ...]] = []
        movers: list[tuple] = []
        mass = 0
        states = tuple(sorted(counts, key=repr))
        for p, q, same, sub_cols, add_cols, mover in self._pair_table(states):
            weight = counts[p] * (counts[q] - (1 if same else 0))
            if weight <= 0:
                continue
            mass += weight
            cum.append(mass)
            sub.append(sub_cols)
            add.append(add_cols)
            movers.append(mover)
        log_denom = (
            _log1p(-(mass / self.total_pairs))
            if 0 < mass < self.total_pairs
            else None
        )
        value = consensus_of_counts(self.protocol, counts)
        return _Node(counts, _code(value), mass, log_denom, cum, sub, add, movers)

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

    def _finish_fixed(self, rows: list, nodes: list) -> None:
        decided_rows = [
            j for j, node in zip(rows, nodes) if node.consensus_code != _NONE
        ]
        if decided_rows:
            self.driver.finish_at_fixed_point(
                decided_rows,
                [self.row_node[j].consensus_code for j in decided_rows],
            )
        for j, node in zip(rows, nodes):
            if node.consensus_code == _NONE:
                # The scalar engine returns (UNDECIDED, max_steps) here —
                # the verdict is decided now or never, and the full budget
                # is reported regardless of the steps actually taken.
                self._forced_undecided.add(j)
            self.results[j] = self._retire(j, node)

    def _retire(self, row: int, node: _Node) -> RunResult:
        if row in self._forced_undecided:
            return RunResult(
                verdict=Verdict.UNDECIDED,
                steps=self.max_steps,
                final_configuration=(),
            )
        code = int(self.driver.value[row])
        if code == _NONE:
            verdict = Verdict.UNDECIDED
        else:
            verdict = Verdict.ACCEPT if code == _TRUE else Verdict.REJECT
        # The population engines report plain (verdict, steps): no node
        # identities, no stabilisation step (matching PopulationWorkload.run).
        return RunResult(
            verdict=verdict,
            steps=int(self.driver.step[row]),
            final_configuration=(),
        )


# ---------------------------------------------------------------------- #
# The batch backend layer
# ---------------------------------------------------------------------- #
class BatchBackend:
    """Strategy interface for executing all runs of a ``run_many`` batch.

    The contract mirrors :class:`~repro.core.backends.SimulationBackend` one
    level up: ``supports`` answers eligibility for a *workload* (not a single
    instance run), ``run_rows`` executes one run per seed and returns the
    per-run :class:`~repro.core.results.RunResult`\\ s in row order, and
    ``run_batch`` aggregates them into a
    :class:`~repro.core.batch.BatchResult` that is byte-identical to the
    sequential per-run loop's (including quorum truncation, which is applied
    to the completed rows in row order).
    """

    name: str = "abstract"

    def supports(self, workload) -> bool:
        """Whether this backend can faithfully batch the given workload."""
        raise NotImplementedError

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
        tuples are built only on request); see :meth:`_LockstepRun.run`.
        """
        raise NotImplementedError

    def run_batch(
        self,
        workload,
        runs: int,
        base_seed: int = 0,
        quorum: float | None = None,
        min_runs: int = 1,
        keep_results: bool = False,
    ) -> BatchResult:
        """The full ``run_many`` surface over :meth:`run_rows` + quorum folding.

        The quorum stopping rule is evaluated twice on the same data — live
        inside the engine (to abandon unneeded rows) and again by
        ``collect_batch`` over the returned row order (to fold the batch) —
        so the truncation position, ``stopped_early`` flag and every
        retained run are byte-identical to the sequential loop's.
        """
        target = quorum_target(runs, quorum)
        results = self.run_rows(
            workload,
            [derive_seed(base_seed, index) for index in range(runs)],
            early_stop=None if target is None else (target, min_runs, runs),
            materialise_configurations=keep_results,
        )
        return collect_batch(
            ((r.verdict, r.steps, r) for r in results),
            runs=runs,
            base_seed=base_seed,
            quorum=quorum,
            min_runs=min_runs,
            keep_results=keep_results,
        )


class VectorizedBatchBackend(BatchBackend):
    """The lockstep engine behind ``Workload.run_many`` (see module docstring)."""

    name = "vector-batch"

    def supports(self, workload) -> bool:
        """Whether the workload's per-run engine is count-level (see ``_plan``)."""
        return self._plan(workload) is not None

    def _plan(self, workload):
        """The lockstep constructor for a workload, or ``None`` if ineligible."""
        return self._plan_reason(workload)[0]

    def _plan_reason(self, workload):
        """``(lockstep constructor, None)``, or ``(None, reason)`` if ineligible.

        Eligibility is deliberately *exact-type* on the workload class (like
        the count backend's exact-type schedule rule): a subclass overriding
        ``run`` keeps its custom per-run semantics by falling back to the
        sequential loop, which calls ``run`` verbatim.  The reason is a short
        stable code — ``resolve_batch_backend`` reports it in the
        ``batch-fallback`` trace event so silent fallbacks are visible.
        """
        if _np is None:
            return None, "numpy-missing"
        from repro.workloads.machine import MachineWorkload
        from repro.workloads.population import PopulationWorkload, _MACHINE_BACKENDS

        options = workload.options
        if type(workload) is MachineWorkload:
            if options.record_trace:
                return None, "record-trace"
            if options.schedule != "random-exclusive":
                return None, "schedule-kind"
            if options.backend not in ("auto", "count"):
                return None, "backend-kind"
            if not COUNT_BACKEND.supports(
                workload.machine, workload.graph, _PROBE_SCHEDULE
            ):
                return None, "not-count-eligible"
            return self._machine_lockstep, None
        if type(workload) is PopulationWorkload:
            method = (
                "auto" if options.backend in _MACHINE_BACKENDS else options.backend
            )
            if options.schedule != "random-exclusive":
                return None, "schedule-kind"
            if method not in ("auto", "counts"):
                return None, "method-kind"
            if workload.count.total() < 2:
                return None, "population-too-small"
            return self._population_lockstep, None
        return None, "workload-kind"

    def run_rows(
        self,
        workload,
        seeds: list[int],
        early_stop: tuple | None = None,
        materialise_configurations: bool = True,
    ) -> list[RunResult]:
        """Lockstep-run one row per seed; bit-identical to per-run ``run`` calls."""
        plan = self._plan(workload)
        if plan is None:
            raise ValueError(
                f"workload {type(workload).__name__} is not batch-vectorizable; "
                f"check resolve_batch_backend before dispatching"
            )
        return plan(workload).run(
            [random.Random(seed) for seed in seeds],
            early_stop=early_stop,
            materialise_configurations=materialise_configurations,
        )

    # ------------------------------------------------------------------ #
    def _machine_lockstep(self, workload) -> _MachineLockstep:
        from repro.core.compile import compile_machine
        from repro.core.configuration import state_counts

        machine, graph, options = workload.machine, workload.graph, workload.options
        if options.memo_cap is not None:
            # Parity with MachineWorkload.run_with_schedule: the cap is
            # attached to the machine's shared compiled table up front.
            compile_machine(machine, memo_cap=options.memo_cap)
        counts = state_counts(
            machine.initial_state(graph.label_of(v)) for v in graph.nodes()
        )
        return _MachineLockstep(
            machine,
            graph.num_nodes,
            counts,
            options.max_steps,
            options.stability_window,
            memo_cap=options.memo_cap,
        )

    def _population_lockstep(self, workload) -> _PopulationLockstep:
        counts = dict(workload.protocol.initial_configuration(workload.count))
        return _PopulationLockstep(
            workload.protocol,
            counts,
            workload.options.max_steps,
            memo_cap=workload.options.memo_cap,
        )


VECTOR_BATCH = VectorizedBatchBackend()


def resolve_batch_backend(workload) -> BatchBackend | None:
    """The batch backend of a workload, or ``None`` for the per-run loop.

    The ladder mirrors ``resolve_backend``'s ``"auto"`` one level up: the
    count-vector lockstep engine whenever the workload's per-run engine is
    count-level, else the per-node batch engine
    (:mod:`repro.core.vector_pernode`) whenever the per-run engine is the
    compiled per-node one (non-clique machine instances, shipped compiled
    workloads), else the sequential per-run loop (``None``).  Only the
    count-level rung needs numpy; without it, count-level workloads take
    the sequential loop and per-node ones still batch.  Deterministic
    workloads never reach this resolver — ``Workload.run_many`` handles
    them with the simulate-once-and-replicate shortcut first, which no
    batch engine can beat.

    A fall-through to the sequential loop was previously invisible; it now
    emits a one-line ``batch-fallback`` trace event carrying the per-rung
    eligibility reason codes, and bumps
    ``dispatch.fallback{reason=...}`` when metrics are enabled.
    """
    plan, count_reason = VECTOR_BATCH._plan_reason(workload)
    if plan is not None:
        return VECTOR_BATCH
    from repro.core.vector_pernode import VECTOR_PERNODE

    plan, pernode_reason = VECTOR_PERNODE._plan_reason(workload)
    if plan is not None:
        return VECTOR_PERNODE
    if count_reason == pernode_reason:
        reason = count_reason
    elif pernode_reason == "workload-kind":
        reason = count_reason
    elif count_reason == "workload-kind":
        reason = pernode_reason
    else:
        reason = f"{count_reason}/{pernode_reason}"
    trace_event(
        "batch-fallback",
        workload=type(workload).__name__,
        reason=reason,
        count=count_reason,
        pernode=pernode_reason,
    )
    metrics = get_metrics()
    if metrics.enabled:
        metrics.counter("dispatch.fallback", reason=reason).inc()
    return None
