"""Compiled transition kernels: interned states and memoised δ lookup tables.

:class:`~repro.core.machine.DistributedMachine` keeps its transition function
``δ : Q × [β]^Q → Q`` as an arbitrary callable — usually a lambda closing over
construction state.  That representation is maximally flexible but pays twice
in the simulation hot loop: every step re-executes python closure code, and
the machine as a whole cannot cross a process boundary (lambdas do not
pickle), so the sweep executor has to rebuild instances inside every worker.

:class:`CompiledMachine` fixes both costs without giving up laziness:

* **Interning** — states are mapped to dense integer ids on first sight, and
  the accepting/rejecting predicates are evaluated once per state and cached
  as flag arrays.  Engines built on top manipulate plain ints.
* **Memoisation** — δ is materialised on demand into lookup tables keyed by
  ``(state id, view key)``, where a view key is the node degree plus the
  β-capped neighbour counts as a sorted tuple of ``(state id, count)`` pairs.
  The capped view is exactly what the model lets a transition observe
  (Section 2.1), so the table is a faithful, loss-free image of δ.
* **Pickling** — everything except the live δ reference is plain data.  A
  pickled :class:`CompiledMachine` carries its interned states, init table,
  flag arrays and the transition entries learned so far; on the other side of
  the boundary it keeps answering every memoised view, and re-binds δ through
  an optional picklable ``loader`` callable the first time it meets a view it
  has not seen (raising :class:`CompiledMachineUnbound` if it has no loader).

The table cached by :func:`compile_machine` has three consumers: the
per-node row engine (:mod:`repro.core.vector_pernode`, every compiled
per-node run), the count rows (:mod:`repro.core.vector_batch`; they store
misses only when β < n - 1) and the exact decision
(:mod:`repro.core.verification`), which explores configurations as tuples
of interned ids through the same hit path and ``step_id`` and so leaves
every reachable view memoised for the engines.

A table keys on what δ sees — a node's own state and its β-capped view —
not on the graph, so one machine object and its table can serve every graph
it runs on.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core.machine import DistributedMachine, Neighborhood, State
from repro.obs.metrics import get_metrics
from repro.obs.tracing import span

#: A memo key for one neighbourhood view: ``(degree, ((state_id, capped), …))``
#: with the items sorted by state id.  The degree is part of the key because a
#: node legitimately knows ``|N|`` and transition functions may consult it.
ViewKey = tuple


def canonical_view_key(degree: int, counts: dict, beta: int) -> ViewKey:
    """The canonical :data:`ViewKey` of one neighbourhood.

    ``counts`` maps interned neighbour state ids to their *uncapped*
    multiplicities; the key caps each count at ``beta`` (the most a
    transition may observe, Section 2.1) and sorts the items by state id so
    that every engine building keys — the per-node row engine
    (:mod:`repro.core.vector_pernode`), the count rows
    (:mod:`repro.core.vector_batch`) and the exact decision — lands on the
    same table entry for the same view.
    """
    return (
        degree,
        tuple(sorted((q, c if c < beta else beta) for q, c in counts.items())),
    )


class CompiledMachineUnbound(RuntimeError):
    """A compiled machine met an unmemoised view with no δ and no loader."""


class CompiledMachine:
    """The integer-interned, table-memoised form of a distributed machine.

    Build one through :func:`compile_machine` (which caches the compilation on
    the source machine so repeated runs share one table).  The instance is
    *bound* while it holds a live reference to the source machine; unpickling
    produces an unbound copy that serves every memoised view from its tables
    and calls ``loader`` (any picklable zero-argument callable returning the
    source :class:`~repro.core.machine.DistributedMachine`) to re-bind on the
    first miss.
    """

    def __init__(
        self,
        machine: DistributedMachine,
        loader: Callable[[], DistributedMachine] | None = None,
    ):
        self.name = machine.name
        self.beta = machine.beta
        self.loader = loader
        #: Lookup statistics, accumulated by the engines (see ``stats()``).
        self.hits = 0
        self.misses = 0
        self._states: list[State] = []  # id -> state
        self._ids: dict[State, int] = {}  # state -> id
        self._accepting: list[bool] = []  # id -> machine.is_accepting(state)
        self._rejecting: list[bool] = []
        self._init_ids: dict = {}  # label -> id, eagerly filled (finite alphabet)
        self._table: dict[int, dict[ViewKey, int]] = {}  # state id -> view -> id
        self._machine: DistributedMachine | None = machine
        for label in machine.alphabet.labels:
            self._init_ids[label] = self.intern(machine.initial_state(label))

    # ------------------------------------------------------------------ #
    # Pickling: drop the live machine, keep every learned table entry.
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_machine"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    @property
    def bound(self) -> bool:
        """Whether a live δ is attached (misses can be resolved directly)."""
        return self._machine is not None

    def bind(self, machine: DistributedMachine) -> None:
        """Re-attach a live source machine (after unpickling).

        The machine must agree with the compiled data; the check is
        necessarily partial (β and the init table), but catches binding a
        different construction outright.  Validation is read-only — the init
        states were interned eagerly at compile time, so a failed bind
        leaves the tables untouched and a later bind of the right machine
        starts clean.
        """
        if machine.beta != self.beta:
            raise ValueError(
                f"cannot bind {machine.name!r} (beta={machine.beta}) to compiled "
                f"{self.name!r} (beta={self.beta})"
            )
        for label, expected in self._init_ids.items():
            if self._ids.get(machine.initial_state(label)) != expected:
                raise ValueError(
                    f"cannot bind {machine.name!r}: init({label!r}) disagrees "
                    f"with the compiled init table of {self.name!r}"
                )
        self._machine = machine

    def _require_source(self) -> DistributedMachine:
        if self._machine is None:
            if self.loader is None:
                raise CompiledMachineUnbound(
                    f"compiled machine {self.name!r} is unbound (unpickled?) and "
                    f"has no loader; bind() a source machine to resolve new views"
                )
            self.bind(self.loader())
        return self._machine

    # ------------------------------------------------------------------ #
    # Interning
    # ------------------------------------------------------------------ #
    def intern(self, state: State) -> int:
        """The dense id of ``state``, classifying it on first sight."""
        sid = self._ids.get(state)
        if sid is None:
            machine = self._require_source()
            sid = len(self._states)
            self._states.append(state)
            self._ids[state] = sid
            self._accepting.append(machine.is_accepting(state))
            self._rejecting.append(machine.is_rejecting(state))
        return sid

    def state_of(self, sid: int) -> State:
        return self._states[sid]

    def init_id(self, label) -> int:
        try:
            return self._init_ids[label]
        except KeyError:
            raise ValueError(
                f"label {label!r} not in the alphabet of compiled {self.name!r}"
            ) from None

    def is_accepting_id(self, sid: int) -> bool:
        return self._accepting[sid]

    def is_rejecting_id(self, sid: int) -> bool:
        return self._rejecting[sid]

    # ------------------------------------------------------------------ #
    # Transition evaluation
    # ------------------------------------------------------------------ #
    def step_id(self, sid: int, view_key: ViewKey) -> int:
        """δ on interned ids, memoised; misses decode the view and call δ."""
        row = self._table.get(sid)
        if row is None:
            row = self._table[sid] = {}
        nxt = row.get(view_key)
        if nxt is None:
            nxt = row[view_key] = self.evaluate_id(sid, view_key)
        return nxt

    def evaluate_id(self, sid: int, view_key: ViewKey) -> int:
        """δ on interned ids, evaluated on the decoded view; never stored."""
        machine = self._machine
        if machine is None:
            machine = self._require_source()
        states = self._states
        degree, items = view_key
        view = Neighborhood.from_capped(
            [(states[q], c) for q, c in items], self.beta, degree
        )
        nxt = machine.step(states[sid], view)
        nid = self._ids.get(nxt)
        return nid if nid is not None else self.intern(nxt)

    # ------------------------------------------------------------------ #
    # Introspection (tests, diagnostics)
    # ------------------------------------------------------------------ #
    @property
    def num_states(self) -> int:
        return len(self._states)

    @property
    def table_size(self) -> int:
        """Number of memoised ``(state, view) -> state`` entries."""
        return sum(len(row) for row in self._table.values())

    def record_lookups(self, hits: int, misses: int) -> None:
        """Fold one run's lookup counts into the lifetime statistics.

        The engines keep per-run counters in locals (the hit path is inlined
        in their hot loops) and flush them here once per run.  The same
        counts are mirrored into the process-wide metrics registry
        (``memo.hits{table=compiled}`` / ``memo.misses{table=compiled}``)
        when observability is enabled, so per-machine ``stats()`` and the
        sweep-wide ``repro stats`` report agree by construction.
        """
        self.hits += hits
        self.misses += misses
        metrics = get_metrics()
        if metrics.enabled:
            if hits:
                metrics.counter("memo.hits", table="compiled").inc(hits)
            if misses:
                metrics.counter("memo.misses", table="compiled").inc(misses)

    def stats(self) -> dict:
        """Memo-table health: a thin snapshot view over the flushed counters.

        ``hit_rate`` is ``None`` (never a ``ZeroDivisionError``) before the
        first lookup is recorded.
        """
        lookups = self.hits + self.misses
        return {
            "table_entries": self.table_size,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": (self.hits / lookups) if lookups else None,
        }

    def __repr__(self) -> str:
        kind = "bound" if self.bound else "unbound"
        return (
            f"CompiledMachine(name={self.name!r}, beta={self.beta}, "
            f"states={self.num_states}, table={self.table_size}, {kind})"
        )


_CACHE_ATTR = "_compiled_machine_cache"


def compile_machine(
    machine: DistributedMachine,
    loader: Callable[[], DistributedMachine] | None = None,
) -> CompiledMachine:
    """The compiled form of ``machine``, cached on the machine itself.

    The cache makes every engine that compiles the same machine object —
    repeated single runs, all runs of a ``run_many`` batch, runs on other
    graphs (module docstring) — share one growing transition table.  A
    ``loader`` passed on a later call is attached to the cached compilation
    if it has none yet.
    """
    compiled = getattr(machine, _CACHE_ATTR, None)
    if compiled is None:
        with span("compile", machine=machine.name):
            compiled = CompiledMachine(machine, loader=loader)
        machine.__dict__[_CACHE_ATTR] = compiled
    elif loader is not None and compiled.loader is None:
        compiled.loader = loader
    return compiled
