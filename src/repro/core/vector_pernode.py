"""The per-node row engine: every compiled per-node run, in rows.

Count-eligible batches (clique machine instances, population protocols)
run through the successor-graph engine of :mod:`repro.core.vector_batch`;
everything *degree-structured* — the cycles, lines, stars, grids and rings
of cliques the paper distinguishes from cliques by their bounded-degree
views — runs here.  This module runs ``B`` seeds as one batch: the rows
execute one after another, each to completion in a tight scalar loop, while
the per-instance analysis and the memo tables are built once and shared by
every row.  A single seeded run —
:meth:`~repro.core.backends.CompiledPerNodeBackend.run` under a seeded
:class:`~repro.core.scheduler.RandomExclusiveSchedule`,
:meth:`~repro.workloads.machine.CompiledMachineWorkload.run` — is a batch
of one.  A compiled run under any other schedule (synchronous, liberal,
round-robin, starving, subclassed, or one drawing from an injected
generator) is one row of :meth:`_PerNodeRows.run_schedule`, which consumes
``schedule.selections(graph)`` as given over the same row state.

**Bit-identity guarantee.**  Row ``j`` replays the per-node reference run
(:class:`~repro.core.backends.PerNodeBackend`) with seed ``j``
draw-for-draw: it owns a private ``random.Random(seed)`` and consumes it
exactly like ``RandomExclusiveSchedule.selections`` does — one
``rng.choice(nodes)`` per step, inlined as the rejection-sampled
``getrandbits`` loop that ``random.Random._randbelow`` performs on a dense
``range(n)`` node list, so every intermediate draw is identical, not merely
statistically equivalent.  Transitions resolve through the compiled δ table
(:class:`~repro.core.compile.CompiledMachine`, shared per machine across all
rows and with every other engine of the machine), consensus is tracked with
per-verdict node counters, and the consensus streak is kept in scalar ints
under the rule of :meth:`~repro.core.streaks.ConsensusStreakDriver.record_active`.
The differential suite and the fuzz oracle's ``bit-identity:compiled``
check assert full :class:`~repro.core.results.RunResult` equality against
the reference, and the batch suite asserts that row ``j`` does not depend
on the batch size.

(The reference also breaks on a long *quiet* streak, but that branch is
provably subsumed for any selection stream: during a quiet stretch the
configuration — hence the consensus value — is frozen, so the consensus
streak grows at least as fast and is checked first.  Both row loops
therefore reproduce ``stabilised_at`` exactly with the consensus rule
alone.)

**Dead rows.**  A configuration in which no node is enabled is its own
bottom SCC: every later step is silent, whatever the scheduler draws.
:meth:`_PerNodeRows.run` keeps, per row, the number of pending entries that
are not ``_SILENT`` (seeded once from the shared initial vector; one less
when a drawn node resolves to its own state, one more for each silent
neighbour entry a flip invalidates).  When it reaches 0 — before the first
step too — the row is dead, and it is finished arithmetically exactly where
stepping would end: without a consensus at ``max_steps`` as ``UNDECIDED``;
with one at ``stabilised_at = step + window − streak`` (the streak counted
after the current step) if that is within ``max_steps``, else at
``max_steps``.  The rule is lazy: a count of 0 is only ever reached by
resolving entries the stepped row would resolve anyway, and the skipped
steps resolve nothing, so memo lookups, table entries and interned state
ids are those of the stepped row.  The skipped steps count as
``engine.silent_steps_skipped{engine=vector-pernode}``.
:meth:`_PerNodeRows.run_schedule` steps on: its stream may be injected,
shared or subclassed, so how much of it a run consumes is observable.

**What is shared, what is per-row.**  Per row: the ``n`` interned state ids,
the accept/reject node counters, the streak, and a *pending-move* vector
caching each node's resolved next state (``-1`` = silent, ``-2`` = needs
resolution, else the successor id).  A flip invalidates the pending entries
of the flipped node and its neighbours — O(deg) work per flip.  Shared
across all rows: the compiled memo table itself, the pending-move vector of
the common initial configuration, and a raw-view cache keyed by ``(state
id, neighbour ids in adjacency order)`` that short-circuits the canonical
sorted-view-key build (both row loops answer a hit inline and call
:meth:`_PerNodeRows._next_state` only on a miss); Monte-Carlo rows of one
instance revisit the same local views constantly, which is where the batch
beats ``B`` independent runs.  ``EngineOptions.memo_cap`` bounds the
raw-view cache exactly like it bounds the compiled table (entries beyond the
cap are recomputed, never stored), so the cap keeps its "never affects
results" contract.

**Quorum.**  Rows finish in the order ``collect_batch`` folds them, so a
quorum batch keeps running accept/reject counts over the finished prefix and
stops as soon as :func:`~repro.core.batch.quorum_reached` holds on it; the
rows past that point are never simulated (their slots stay ``None``).

**Eligibility.**  A machine workload's batch takes this rung when its
per-run backend resolution lands on the compiled per-node engine (the
``"auto"`` answer for every non-clique graph, or an explicit
``backend="compiled"``): the rows are built by
:meth:`~repro.core.backends.CompiledPerNodeBackend.rows`, the constructor
its single runs use.  A pre-compiled workload
(:class:`~repro.workloads.machine.CompiledMachineWorkload`) always takes it
— its ``run`` is this engine at B=1.
"""

from __future__ import annotations

from repro.core.batch import quorum_reached
from repro.core.compile import canonical_view_key
from repro.core.results import RunResult, Verdict
from repro.core.vector_batch import BatchBackend
from repro.obs.metrics import get_metrics

#: Pending-move sentinels (successor ids are >= 0, so negatives are free).
_SILENT = -1  # the node's next state equals its current state
_UNRESOLVED = -2  # a neighbour (or the node itself) flipped; re-resolve


class _PerNodeRows:
    """All rows of one compiled-machine batch, run one after another.

    One instance handles one ``run_rows`` call or one compiled single run:
    the graph analysis (adjacency, initial interned configuration and its
    pending moves) and the shared raw-view cache are built once and reused
    by every row.  :meth:`run` (seeded random-exclusive rows) and
    :meth:`run_schedule` (one row under any selection stream) own the
    per-row state.
    """

    def __init__(
        self, compiled, graph, max_steps: int, stability_window: int, start=None
    ):
        if stability_window < 1:
            raise ValueError("stability_window must be at least 1")
        self.compiled = compiled
        self.max_steps = max_steps
        self.window = stability_window
        self.graph = graph
        self.n = graph.num_nodes
        self.adj: list[tuple] = [graph.neighbors(v) for v in graph.nodes()]
        #: Every row's initial configuration: ``start`` if given, else the
        #: graph's labels through the machine's init function.
        self.init_states: list[int] = (
            [compiled.intern(s) for s in start]
            if start is not None
            else [compiled.init_id(graph.label_of(v)) for v in graph.nodes()]
        )
        #: ``(state id, neighbour ids in adjacency order) -> successor id``.
        #: A raw key pins down the canonical view (the ordered tuple fixes
        #: both the neighbour multiset and the degree), so hitting it skips
        #: the O(deg log deg) sorted-view-key build *and* the table lookup.
        self._view_cache: dict = {}
        # Lookup statistics in the compiled table's currency: a hit is a
        # transition answered from memo state (raw-view cache or table), a
        # miss is a δ evaluation through step_id.  Flushed once per batch.
        self.hits = 0
        self.misses = 0
        self.evictions = 0  # raw-view stores refused by the memo cap

    # ------------------------------------------------------------------ #
    def _next_state(self, row_states: list, v: int, raw_key: tuple) -> int:
        """The successor id of node ``v`` after a raw-view cache miss.

        Both row loops look ``raw_key`` (``(state id, neighbour ids in
        adjacency order)``) up in the shared raw-view cache themselves and
        count a hit inline; this is the rest of the resolution ladder: the
        compiled table under the canonical view key, then δ via ``step_id``
        (which interns newly discovered states and memoises under the
        machine's cap).  The answer is stored under ``raw_key`` within the
        same ``memo_cap`` as the table.
        """
        compiled = self.compiled
        sid = row_states[v]
        neighbours = self.adj[v]
        counts: dict[int, int] = {}
        for u in neighbours:
            s = row_states[u]
            counts[s] = counts.get(s, 0) + 1
        key = canonical_view_key(len(neighbours), counts, compiled.beta)
        row = compiled._table.get(sid)
        nxt = row.get(key) if row is not None else None
        if nxt is None:
            self.misses += 1
            nxt = compiled.step_id(sid, key)
        else:
            self.hits += 1
        cache = self._view_cache
        cap = compiled.memo_cap
        if cap is None or len(cache) < cap:
            cache[raw_key] = nxt
        else:
            self.evictions += 1
        return nxt

    def _initial_pending(self) -> list[int]:
        """The pending-move vector of the shared initial configuration.

        Every row starts from the same interned configuration, so the
        resolution work (one δ-table walk per node) is done once here and
        the vector is copied per row — which also pre-warms the raw-view
        cache with every initial local view.
        """
        init = self.init_states
        adj = self.adj
        view_get = self._view_cache.get
        pending = []
        for v in range(self.n):
            raw_key = (init[v], tuple([init[u] for u in adj[v]]))
            nxt = view_get(raw_key)
            if nxt is None:
                nxt = self._next_state(init, v, raw_key)
            else:
                self.hits += 1
            pending.append(_SILENT if nxt == init[v] else nxt)
        return pending

    # ------------------------------------------------------------------ #
    def run(
        self,
        rngs: list,
        early_stop: tuple | None = None,
        materialise_configurations: bool = True,
    ) -> list[RunResult]:
        """Run every row to completion, in row order; one ``RunResult`` each.

        ``early_stop`` is the ``(target, min_runs, runs)`` quorum contract of
        :meth:`repro.core.vector_batch.BatchBackend.run_rows`: once the
        finished prefix satisfies :func:`~repro.core.batch.quorum_reached`,
        the remaining rows are never simulated and their slots stay
        ``None``.  ``materialise_configurations=False`` returns rows with
        empty final configurations for callers about to drop them.
        ``rngs`` must be plain ``random.Random`` instances — the inlined
        node draw replays ``Random.choice`` on a dense node list
        bit-for-bit, which is only the schedule's stream for the stdlib
        generator (exactly what seeded schedules construct).  They must
        also be private to the call: a row whose configuration is dead stops
        drawing (module docstring, "Dead rows").
        """
        batch = len(rngs)
        n = self.n
        compiled = self.compiled
        adj = self.adj
        view_get = self._view_cache.get
        resolve_miss = self._next_state
        window = self.window
        max_steps = self.max_steps
        # Live references: intern() grows these in place, so states first
        # discovered mid-batch are classified without re-fetching.
        acc = compiled._accepting
        rej = compiled._rejecting

        init = self.init_states
        init_acc = sum(1 for s in init if acc[s])
        init_rej = sum(1 for s in init if rej[s])
        # Accept-first tie-break, as in consensus_value.
        init_value = True if init_acc == n else False if init_rej == n else None
        pending0 = self._initial_pending()
        live0 = sum(1 for move in pending0 if move != _SILENT)
        # A configuration dead from the start is never stepped.
        steps = range(1, max_steps + 1) if live0 else ()
        # The draw of RandomExclusiveSchedule.selections, inlined: choice()
        # on a dense node list is _randbelow(n), i.e. rejection sampling on
        # bit_length(n) random bits.
        bits = n.bit_length()

        accepts = rejects = 0
        results: list[RunResult | None] = [None] * batch
        total_steps = stabilised_rows = skipped = hits = 0
        for j, rng in enumerate(rngs):
            draw = rng.getrandbits
            states = list(init)
            pending = list(pending0)
            live = live0  # pending entries that are not _SILENT
            num_acc = init_acc
            num_rej = init_rej
            value = init_value
            streak = 0
            stabilised_at = None
            step = 0  # a zero budget skips the loop
            for step in steps:
                v = draw(bits)
                while v >= n:
                    v = draw(bits)
                move = pending[v]
                if move != _SILENT:
                    sid = states[v]
                    if move == _UNRESOLVED:
                        raw_key = (sid, tuple([states[u] for u in adj[v]]))
                        move = view_get(raw_key)
                        if move is None:
                            move = resolve_miss(states, v, raw_key)
                        else:
                            hits += 1
                    if move == sid:
                        pending[v] = _SILENT
                        live -= 1
                        if not live:
                            # Dead: this step is silent, and so is every
                            # later one; finish the row below.
                            if value is not None:
                                streak += 1
                            break
                    else:
                        states[v] = move
                        num_acc += acc[move] - acc[sid]
                        num_rej += rej[move] - rej[sid]
                        pending[v] = _UNRESOLVED
                        for u in adj[v]:
                            if pending[u] == _SILENT:
                                live += 1
                            pending[u] = _UNRESOLVED
                        current = (
                            True if num_acc == n else False if num_rej == n else None
                        )
                        if current is None or current is not value:
                            value = current
                            streak = 0
                            continue
                # The consensus value held through this step: extend the
                # streak (a window is at least 1, so a reset never stabilises).
                if value is not None:
                    streak += 1
                    if streak >= window:
                        stabilised_at = step
                        break
            if not live:
                # No node is enabled, so no later draw changes anything: the
                # streak grows by one per step until it stabilises or the
                # budget ends, exactly where stepping would stop.
                end = step + window - streak
                if value is None or end > max_steps:
                    end = max_steps
                else:
                    stabilised_at = end
                skipped += end - step
                step = end
            total_steps += step
            if stabilised_at is not None:
                stabilised_rows += 1
            results[j] = result = self._result(
                states, step, value, stabilised_at, materialise_configurations
            )
            if early_stop is not None:
                if result.verdict is Verdict.ACCEPT:
                    accepts += 1
                elif result.verdict is Verdict.REJECT:
                    rejects += 1
                if quorum_reached(early_stop, j + 1, accepts, rejects):
                    break

        abandoned = sum(1 for result in results if result is None)
        self._flush(
            batch - abandoned, total_steps, stabilised_rows, abandoned, hits, skipped
        )
        return results  # type: ignore[return-value]

    def run_schedule(self, schedule) -> RunResult:
        """One row under ``schedule.selections(graph)``, consumed as given.

        The loop for every schedule but a seeded random-exclusive one
        (synchronous, liberal, round-robin, starving, subclassed, or one
        drawing from an injected generator).  Each step resolves every
        selected node against the old configuration through the pending-move
        vector, then applies the flips, invalidating the pending entries of
        each flipped node and its neighbours.  Like the reference loop it
        pulls the next selection *before* testing the budget, so an injected
        generator ends in the reference's state, and a finite stream ends
        the run.  The consensus streak follows the rule of :meth:`run`; the
        quiet-streak stop is subsumed for any stream, since a quiet step
        freezes the consensus value.  Unlike :meth:`run` it steps a dead
        configuration to the end, consuming the stream as the reference does.
        """
        n = self.n
        compiled = self.compiled
        adj = self.adj
        view_get = self._view_cache.get
        resolve_miss = self._next_state
        window = self.window
        max_steps = self.max_steps
        acc = compiled._accepting
        rej = compiled._rejecting
        states = list(self.init_states)
        pending = self._initial_pending()
        num_acc = sum(1 for s in states if acc[s])
        num_rej = sum(1 for s in states if rej[s])
        value = True if num_acc == n else False if num_rej == n else None
        streak = 0
        stabilised_at = None
        step = hits = 0
        for selection in schedule.selections(self.graph):
            if step >= max_steps:
                break
            step += 1
            flips = []
            for v in selection:
                move = pending[v]
                if move == _UNRESOLVED:
                    raw_key = (states[v], tuple([states[u] for u in adj[v]]))
                    move = view_get(raw_key)
                    if move is None:
                        move = resolve_miss(states, v, raw_key)
                    else:
                        hits += 1
                    if move == states[v]:
                        move = _SILENT
                    pending[v] = move
                if move != _SILENT:
                    flips.append((v, move))
            if flips:
                for v, move in flips:
                    sid = states[v]
                    states[v] = move
                    num_acc += acc[move] - acc[sid]
                    num_rej += rej[move] - rej[sid]
                    pending[v] = _UNRESOLVED
                    for u in adj[v]:
                        pending[u] = _UNRESOLVED
                current = True if num_acc == n else False if num_rej == n else None
                if current is None or current is not value:
                    value = current
                    streak = 0
                    continue
            if value is not None:
                streak += 1
                if streak >= window:
                    stabilised_at = step
                    break
        self._flush(1, step, 0 if stabilised_at is None else 1, 0, hits, 0)
        return self._result(states, step, value, stabilised_at, True)

    def _result(
        self, states, step, value, stabilised_at, materialise_configurations
    ) -> RunResult:
        """One row's ``RunResult`` from its final interned configuration."""
        if value is None:
            verdict = Verdict.UNDECIDED
        else:
            verdict = Verdict.ACCEPT if value else Verdict.REJECT
        return RunResult(
            verdict=verdict,
            steps=step,
            final_configuration=(
                tuple(self.compiled.state_of(s) for s in states)
                if materialise_configurations
                else ()
            ),
            stabilised_at=stabilised_at,
            trace=None,
        )

    def _flush(
        self, rows, steps, stabilised_rows, abandoned, view_hits, skipped
    ) -> None:
        """Fold the lookup counts into the compiled table; emit run metrics.

        ``view_hits`` are the raw-view cache hits a row loop counted inline;
        ``skipped`` the steps of dead configurations finished arithmetically.
        """
        self.compiled.record_lookups(self.hits + view_hits, self.misses)
        self.hits = 0
        self.misses = 0
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("engine.runs", engine="vector-pernode").inc(rows)
            metrics.counter("engine.steps", engine="vector-pernode").inc(steps)
            if skipped:
                metrics.counter(
                    "engine.silent_steps_skipped", engine="vector-pernode"
                ).inc(skipped)
            for reason, count in (
                ("stabilised", stabilised_rows),
                ("exhausted", rows - stabilised_rows),
                ("quorum-abandoned", abandoned),
            ):
                if count:
                    metrics.counter("batch.rows_retired", reason=reason).inc(count)
            if self.evictions:
                metrics.counter("memo.evictions", table="pernode-view").inc(
                    self.evictions
                )
                self.evictions = 0


class VectorizedPerNodeBatchBackend(BatchBackend):
    """The per-node rung of ``Workload.run_many`` (module docstring)."""

    name = "vector-pernode"
    # Its own attribute, as on the count-level rung: timed per rung.
    run_rows = BatchBackend.run_rows


VECTOR_PERNODE = VectorizedPerNodeBatchBackend()
