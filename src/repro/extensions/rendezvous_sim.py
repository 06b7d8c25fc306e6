"""Simulation of rendez-vous transitions by DAF-automata (Lemma 4.10, Figure 4).

The compiler :func:`compile_rendezvous` turns a
:class:`~repro.extensions.rendezvous.GraphPopulationProtocol` into a plain
counting machine (counting bound 2) intended to be run as a DAF-automaton.
The construction is the five-status handshake of Figure 4: a node can be

* **waiting** (its state is an original protocol state ``q``),
* **searching** ``(q, 🔍)`` — it announced that it wants to interact,
* **answering** ``(q, ✋)`` — it responded to exactly one searching neighbour,
* **confirming** ``(q, ✓, q')`` — the searcher saw exactly one answer and has
  committed to the joint transition, remembering its post-interaction state.

The searcher's partner applies its half of δ when it sees exactly one
confirming neighbour; the searcher applies its half once its partner has
returned to waiting.  Whenever a node observes an irregular neighbourhood
(more than one non-waiting neighbour) it cancels and returns to waiting —
this is what keeps interactions pairwise and atomic.  Detecting "exactly one"
requires counting up to 2, hence the DAF (counting) requirement.
"""

from __future__ import annotations

from repro.core.labels import Label
from repro.core.machine import DistributedMachine, Neighborhood, State
from repro.extensions.rendezvous import GraphPopulationProtocol

#: Tags for the four non-waiting statuses.
_SEARCH = "#rv-search"
_ANSWER = "#rv-answer"
_CONFIRM = "#rv-confirm"


def searching(state: State) -> tuple:
    return (_SEARCH, state)


def answering(state: State) -> tuple:
    return (_ANSWER, state)


def confirming(state: State, next_state: State) -> tuple:
    return (_CONFIRM, state, next_state)


def status_of(state: State) -> str:
    """One of ``waiting``, ``searching``, ``answering``, ``confirming``."""
    if isinstance(state, tuple) and len(state) >= 2:
        if state[0] == _SEARCH:
            return "searching"
        if state[0] == _ANSWER:
            return "answering"
        if state[0] == _CONFIRM:
            return "confirming"
    return "waiting"


def original_state(state: State) -> State:
    """The underlying protocol state a compiled state represents."""
    status = status_of(state)
    if status == "waiting":
        return state
    return state[1]


def _partner(neighborhood: Neighborhood) -> State | None:
    """f(N): the unique non-waiting neighbour's state, the marker
    ``"ALL_WAITING"``, or ``None`` for ⊥ (an irregular neighbourhood)."""
    non_waiting = [
        (s, c) for s, c in neighborhood.unordered_items() if status_of(s) != "waiting"
    ]
    if not non_waiting:
        return "ALL_WAITING"
    if len(non_waiting) == 1 and non_waiting[0][1] == 1:
        return non_waiting[0][0]
    return None


def compile_rendezvous(
    protocol: GraphPopulationProtocol, name: str | None = None
) -> DistributedMachine:
    """Compile a graph population protocol into a counting machine (β = 2)."""

    beta = 2

    def init(label: Label) -> State:
        return protocol.init(label)

    def delta(state: State, neighborhood: Neighborhood) -> State:
        status = status_of(state)
        partner = _partner(neighborhood)
        if partner is None:
            # Cancel the interaction and return to waiting.
            return original_state(state)

        if status == "waiting":
            if partner == "ALL_WAITING":
                return searching(state)
            if status_of(partner) == "searching":
                return answering(state)
            return state
        if status == "searching":
            if status_of(partner) == "answering":
                own = state[1]
                other = original_state(partner)
                own_next, _other_next = protocol.delta(own, other)
                return confirming(own, own_next)
            if partner == "ALL_WAITING":
                # Nobody has answered yet: the transition is undefined, so the
                # searcher cancels back to waiting (it may search again later).
                # Keeping it searching instead can deadlock two searchers that
                # share their only potential partner.
                return original_state(state)
            return original_state(state)
        if status == "answering":
            if status_of(partner) == "confirming":
                searcher_old = partner[1]
                own = state[1]
                _searcher_next, own_next = protocol.delta(searcher_old, own)
                return own_next
            if partner == "ALL_WAITING":
                # The searcher gave up: cancel.
                return original_state(state)
            return state
        # status == "confirming"
        if partner == "ALL_WAITING":
            return state[2]
        return state

    def accepting(state: State) -> bool:
        return protocol.is_accepting(original_state(state))

    def rejecting(state: State) -> bool:
        return protocol.is_rejecting(original_state(state))

    return DistributedMachine(
        alphabet=protocol.alphabet,
        beta=beta,
        init=init,
        delta=delta,
        accepting=accepting,
        rejecting=rejecting,
        name=name or f"compiled-rendezvous({protocol.name})",
    )
