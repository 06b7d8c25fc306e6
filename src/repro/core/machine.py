"""Distributed machines: states, counting bounds and neighbourhood transitions.

A distributed machine with input alphabet ``Λ`` and counting bound ``β`` is a
tuple ``M = (Q, δ0, δ, Y, N)`` (Section 2.1):

* ``Q`` — a finite set of states,
* ``δ0 : Λ → Q`` — the initialisation function,
* ``δ : Q × [β]^Q → Q`` — the transition function; a node only sees, for every
  state, the number of neighbours in that state *capped at β*,
* ``Y, N ⊆ Q`` — disjoint sets of accepting and rejecting states.

The counting bound is what separates *counting* machines (``β ≥ 2`` — class
letter ``D``) from *non-counting* machines (``β = 1`` — class letter ``d``):
a non-counting machine can only detect presence or absence of a state among
its neighbours.  The cap is enforced by the :class:`Neighborhood` type, so a
transition function physically cannot observe more than the model allows.
"""

from __future__ import annotations

from collections.abc import Callable, ItemsView, Iterable, Mapping
from dataclasses import dataclass
from typing import Hashable

from repro.core.labels import Alphabet, Label

State = Hashable


class Neighborhood:
    """The view a node has of its neighbours: state → count, capped at β.

    Instances are immutable and hashable so they can be used as keys in
    transition tables and memo caches.  The constructor applies the cap, so
    a machine with counting bound 1 genuinely cannot distinguish "one
    neighbour in state q" from "five neighbours in state q".

    Order contract: a view is a map with no order, as ``[β]^Q`` in
    Section 2.1.  :meth:`count`, :meth:`has`, :meth:`count_where`,
    :meth:`states`, :meth:`all_in`, equality and hashing read the map alone,
    and a fold that does not depend on order (a projection, a filter, a
    scan) reads :meth:`unordered_items`; none of them calls a state's
    ``repr``.  Only :meth:`items` (and ``repr``) has an order: the capped
    counts sorted by the ``repr`` of each ``(state, count)`` pair, the key
    table machines use.  It is computed on first call and cached.
    """

    __slots__ = ("_beta", "_counts", "_total", "_items", "_reprs")

    def __init__(self, counts: Mapping[State, int], beta: int, total: int | None = None):
        if beta < 1:
            raise ValueError("counting bound must be at least 1")
        capped: dict[State, int] = {}
        raw_total = 0
        for state, count in counts.items():
            if count < 0:
                raise ValueError("neighbour counts cannot be negative")
            raw_total += count
            if count > 0:
                capped[state] = min(count, beta)
        self._beta = beta
        self._counts = capped
        # ``total`` is the (uncapped) degree of the node.  It is information a
        # node legitimately has in the bounded-degree setting (it knows its own
        # degree); in the unbounded setting constructions must not rely on it
        # beyond comparing against capped counts, mirroring |N| in the paper.
        self._total = raw_total if total is None else total
        self._items = self._reprs = None

    @classmethod
    def from_capped(cls, items: Iterable, beta: int, total: int) -> "Neighborhood":
        """``Neighborhood(dict(items), beta, total=total)`` without validation:
        distinct states, counts in ``1..beta`` (decoded view keys)."""
        view = cls.__new__(cls)
        view._beta = beta
        view._counts = dict(items)
        view._total = total
        view._items = view._reprs = None
        return view

    def __reduce__(self):
        # Rebuild from the map: the cached order is not pickled.
        return (type(self), (self._counts, self._beta, self._total))

    # ------------------------------------------------------------------ #
    @property
    def beta(self) -> int:
        return self._beta

    @property
    def degree(self) -> int:
        """The number of neighbours ``|N|`` (the node's degree)."""
        return self._total

    def count(self, state: State) -> int:
        """Number of neighbours in ``state``, capped at β."""
        return self._counts.get(state, 0)

    def __getitem__(self, state: State) -> int:
        return self._counts.get(state, 0)

    def has(self, state: State) -> bool:
        """Whether at least one neighbour is in ``state``."""
        return state in self._counts

    def count_where(self, predicate: Callable[[State], bool]) -> int:
        """Sum of capped counts over all states satisfying ``predicate``.

        Note this is a sum of *capped* counts — exactly the quantity written
        ``N[S] = Σ_{q∈S} N(q)`` in the paper's constructions.
        """
        return sum(c for s, c in self._counts.items() if predicate(s))

    def states(self) -> frozenset[State]:
        """The support of the neighbourhood (states with ≥ 1 neighbour)."""
        return frozenset(self._counts)

    def unordered_items(self) -> ItemsView[State, int]:
        """The capped counts ``(state, count)`` in no particular order."""
        return self._counts.items()

    def items(self) -> tuple[tuple[State, int], ...]:
        """The capped counts sorted by ``repr`` of each ``(state, count)``."""
        if self._items is None:
            self._sort()
        return self._items

    def _sort(self) -> None:
        # One ``repr`` per state: ``f"({r}, {c!r})"`` is ``repr((s, c))``.
        rows = [(s, c, repr(s)) for s, c in self._counts.items()]
        rows.sort(key=lambda row: f"({row[2]}, {row[1]!r})")
        self._items = tuple((s, c) for s, c, _ in rows)
        self._reprs = tuple(r for _, _, r in rows)

    def all_in(self, allowed: Iterable[State]) -> bool:
        """Whether every neighbour is in one of the ``allowed`` states."""
        return set(allowed).issuperset(self._counts)

    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Neighborhood):
            return NotImplemented
        return (
            self._beta == other._beta
            and self._total == other._total
            and self._counts == other._counts
        )

    def __hash__(self) -> int:
        return hash((self._beta, frozenset(self._counts.items()), self._total))

    def __repr__(self) -> str:
        items = self.items()
        inner = ", ".join(f"{r}: {c}" for r, (_, c) in zip(self._reprs, items))
        return f"Neighborhood(beta={self._beta}, degree={self._total}, {{{inner}}})"


TransitionFunction = Callable[[State, Neighborhood], State]
InitFunction = Callable[[Label], State]
StatePredicate = Callable[[State], bool]


def _as_predicate(states: Iterable[State] | StatePredicate | None) -> StatePredicate:
    if states is None:
        return lambda _state: False
    if callable(states):
        return states  # type: ignore[return-value]
    state_set = set(states)
    return lambda state: state in state_set


class Outputs:
    """The output sets ``Y``/``N`` of a model, read as state predicates.

    Mixed into every model dataclass with ``accepting``/``rejecting``
    fields; each may be a collection of states, a predicate or ``None``
    (no state).
    """

    def __post_init__(self) -> None:
        self._accepting = _as_predicate(self.accepting)
        self._rejecting = _as_predicate(self.rejecting)

    def is_accepting(self, state: State) -> bool:
        return self._accepting(state)

    def is_rejecting(self, state: State) -> bool:
        return self._rejecting(state)


@dataclass
class DistributedMachine(Outputs):
    """A distributed machine ``M = (Q, δ0, δ, Y, N)`` with counting bound β.

    ``delta`` and ``init`` are callables; ``accepting`` / ``rejecting`` may be
    given either as explicit collections of states or as predicates (the
    latter is convenient for product constructions whose state space is
    assembled lazily).  ``states`` may list the state space explicitly; if
    omitted it is discovered lazily by the verification engine.
    """

    alphabet: Alphabet
    beta: int
    init: InitFunction
    delta: TransitionFunction
    accepting: Iterable[State] | StatePredicate | None = None
    rejecting: Iterable[State] | StatePredicate | None = None
    states: frozenset[State] | None = None
    name: str = "machine"

    def __post_init__(self) -> None:
        if self.beta < 1:
            raise ValueError("counting bound must be at least 1")
        super().__post_init__()
        if self.states is not None:
            self.states = frozenset(self.states)

    # ------------------------------------------------------------------ #
    @property
    def is_counting(self) -> bool:
        """Counting machines (β ≥ 2) correspond to the class letter ``D``."""
        return self.beta >= 2

    def initial_state(self, label: Label) -> State:
        if label not in self.alphabet:
            raise ValueError(f"label {label!r} not in alphabet {self.alphabet.labels}")
        return self.init(label)

    def step(self, state: State, neighborhood: Neighborhood) -> State:
        """Apply the transition function once."""
        if neighborhood.beta != self.beta:
            raise ValueError(
                f"neighbourhood has counting bound {neighborhood.beta}, "
                f"machine expects {self.beta}"
            )
        return self.delta(state, neighborhood)

    def output_of(self, state: State) -> bool | None:
        """``True`` for accepting, ``False`` for rejecting, ``None`` otherwise."""
        if self.is_accepting(state):
            return True
        if self.is_rejecting(state):
            return False
        return None

    def check_halting(self, states: Iterable[State], neighborhoods: Iterable[Neighborhood]) -> bool:
        """Check the halting condition on a finite fragment of the state space.

        A machine is *halting* if nodes can never leave accepting or rejecting
        states (Section 2.2).  The check is necessarily finite: it verifies
        that every provided accepting/rejecting state is a fixed point for
        every provided neighbourhood.
        """
        halting_states = [
            s for s in states if self.is_accepting(s) or self.is_rejecting(s)
        ]
        for state in halting_states:
            for neighborhood in neighborhoods:
                if self.step(state, neighborhood) != state:
                    return False
        return True

    def make_halting(self) -> "DistributedMachine":
        """Wrap the transition function so accepting/rejecting states are absorbing.

        This is the canonical way to turn a stable-consensus machine into a
        halting one (the converse direction of "halting is a special case of
        stable consensus").
        """
        inner_delta = self.delta
        is_accepting = self._accepting
        is_rejecting = self._rejecting

        def halting_delta(state: State, neighborhood: Neighborhood) -> State:
            if is_accepting(state) or is_rejecting(state):
                return state
            return inner_delta(state, neighborhood)

        return DistributedMachine(
            alphabet=self.alphabet,
            beta=self.beta,
            init=self.init,
            delta=halting_delta,
            accepting=is_accepting,
            rejecting=is_rejecting,
            states=self.states,
            name=f"halting({self.name})",
        )


def table_machine(
    alphabet: Alphabet,
    beta: int,
    init: Mapping[Label, State],
    transitions: Mapping[tuple[State, tuple[tuple[State, int], ...]], State],
    accepting: Iterable[State],
    rejecting: Iterable[State],
    states: Iterable[State],
    default_silent: bool = True,
    name: str = "table-machine",
) -> DistributedMachine:
    """Build a machine from an explicit transition table.

    The table maps ``(state, neighbourhood-items)`` to a successor state,
    where the neighbourhood items are the capped counts as returned by
    :meth:`Neighborhood.items`.  Unspecified entries are silent (the node
    keeps its state) when ``default_silent`` is true, matching the paper's
    convention that silent transitions "may not be explicitly specified".
    """
    table = dict(transitions)
    init_table = dict(init)

    def init_fn(label: Label) -> State:
        return init_table[label]

    def delta(state: State, neighborhood: Neighborhood) -> State:
        key = (state, neighborhood.items())
        if key in table:
            return table[key]
        if default_silent:
            return state
        raise KeyError(f"no transition for {key}")

    return DistributedMachine(
        alphabet=alphabet,
        beta=beta,
        init=init_fn,
        delta=delta,
        accepting=frozenset(accepting),
        rejecting=frozenset(rejecting),
        states=frozenset(states),
        name=name,
    )
