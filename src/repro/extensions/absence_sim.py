"""Simulation of weak absence detection on bounded-degree graphs (Lemma 4.9).

The compiler :func:`compile_absence_detection` turns an
:class:`~repro.extensions.absence.AbsenceDetectionMachine` (a synchronous
DA$-machine with weak absence detection) into a plain counting machine meant
to run as a DAf-automaton on graphs of degree at most ``k``.

The construction is the three-phase protocol with a distance labelling from
Appendix B.3:

* Phase 0 — original states ``Q``.  When no neighbour is in phase 2, an agent
  executes its synchronous neighbourhood transition (computed from the
  *old* states of its neighbours) and enters phase 1, taking the ``root``
  distance label if it landed in an absence-detection initiating state
  (rule 1), and otherwise a *child label* of one of its phase-1 neighbours
  chosen so that no neighbour already holds the child of that label (rule 2) —
  possible because labels live in ``Z_{2k+1} ∪ {root}`` and the degree is at
  most ``k`` (Lemma B.14), and guaranteeing the labels never close a cycle.
* Phase 1 states are triples ``(q', q, d)``: new state, old state, distance
  label.  Once all phase-0 neighbours are gone and no neighbour holds the
  child label ``d+1``, the agent moves to phase 2, recording the union of the
  state sets reported by its (phase-2) children plus its own new state
  (rule 3).
* Phase 2 states are pairs ``(q', S)``.  Once no neighbour is left in
  phase 1, initiators apply the absence-detection transition to the gathered
  support ``S`` (rule 4) and everyone else simply returns to its new state
  (rule 5).
"""

from __future__ import annotations

from repro.core.labels import Label
from repro.core.machine import DistributedMachine, Neighborhood, State
from repro.extensions.absence import AbsenceDetectionMachine

_PHASE1 = "#ad-phase1"
_PHASE2 = "#ad-phase2"
#: The root distance label of absence-detection initiators.
ROOT = "root"


def phase1_state(new_state: State, old_state: State, distance: object) -> tuple:
    return (_PHASE1, new_state, old_state, distance)


def phase2_state(new_state: State, seen: frozenset[State]) -> tuple:
    return (_PHASE2, new_state, seen)


def phase_of(state: State) -> int:
    if isinstance(state, tuple) and len(state) >= 2:
        if state[0] == _PHASE1:
            return 1
        if state[0] == _PHASE2:
            return 2
    return 0


def simulated_state(state: State) -> State:
    """The DA$-machine state a compiled state represents (the "new" state)."""
    phase = phase_of(state)
    if phase == 0:
        return state
    return state[1]


def _old_state(state: State) -> State:
    """For phase-1 states, the state before the synchronous step."""
    return state[2]


def _distance(state: State) -> object:
    return state[3]


def _increment(distance: object, modulus: int) -> int:
    """The child label ``d + 1`` in ``Z_modulus``, with ``root + 1 := 1``."""
    if distance == ROOT:
        return 1
    return (int(distance) + 1) % modulus


def _old_view(neighborhood: Neighborhood, beta: int) -> Neighborhood:
    """The neighbourhood as it looked before the synchronous step.

    Phase-0 neighbours contribute their current state; phase-1
    neighbours contribute the old state they carry.  (Phase-2 neighbours
    block rules 1/2, so they never contribute.)
    """
    counts: dict[State, int] = {}
    for state, count in neighborhood.unordered_items():
        phase = phase_of(state)
        if phase == 0:
            counts[state] = counts.get(state, 0) + count
        elif phase == 1:
            old = _old_state(state)
            counts[old] = counts.get(old, 0) + count
    return Neighborhood(counts, beta, total=neighborhood.degree)


def compile_absence_detection(
    machine: AbsenceDetectionMachine,
    degree_bound: int,
    name: str | None = None,
) -> DistributedMachine:
    """Compile a DA$-machine with weak absence detection for degree ≤ k graphs."""
    if degree_bound < 1:
        raise ValueError("degree bound must be positive")
    modulus = 2 * degree_bound + 1

    def init(label: Label) -> State:
        return machine.init(label)

    def child_label(neighborhood: Neighborhood) -> int | None:
        """A distance label that is the child of some neighbour's label but
        whose own child is not held by any neighbour (Lemma B.14)."""
        held = {
            _distance(state)
            for state in neighborhood.states()
            if phase_of(state) == 1
        }
        if not held:
            return None
        candidates = sorted(_increment(d, modulus) for d in held)
        for candidate in candidates:
            if _increment(candidate, modulus) not in held:
                # candidate is the child of a held label and its own child is
                # not held by any neighbour, so taking it cannot close a cycle
                # of distance labels (Lemma B.15).
                return candidate
        # Unreachable when the degree bound holds (Lemma B.14 guarantees a
        # suitable label exists); fall back to the smallest child label.
        return candidates[0]

    def delta(state: State, neighborhood: Neighborhood) -> State:
        phase = phase_of(state)
        neighbour_states = neighborhood.states()
        has_phase0 = any(phase_of(s) == 0 for s in neighbour_states)
        has_phase1 = any(phase_of(s) == 1 for s in neighbour_states)
        has_phase2 = any(phase_of(s) == 2 for s in neighbour_states)

        if phase == 0:
            if has_phase2:
                return state
            new_state = machine.delta(state, _old_view(neighborhood, machine.beta))
            if machine.initiating(new_state):
                # Rule (1): initiators take the root label.
                return phase1_state(new_state, state, ROOT)
            if has_phase1:
                # Rule (2): become a child of a phase-1 neighbour.
                label = child_label(neighborhood)
                if label is None:
                    return state
                return phase1_state(new_state, state, label)
            return state

        if phase == 1:
            # Rule (3): wait for all phase-0 neighbours and all children.
            own_distance = _distance(state)
            child = _increment(own_distance, modulus)
            has_child_in_phase1 = any(
                phase_of(s) == 1 and _distance(s) == child for s in neighbour_states
            )
            if has_phase0 or has_child_in_phase1:
                return state
            seen: set[State] = {simulated_state(state)}
            for s in neighbour_states:
                if phase_of(s) == 2:
                    seen.update(s[2])
            return phase2_state(simulated_state(state), frozenset(seen))

        # phase == 2
        if has_phase1:
            return state
        new_state = simulated_state(state)
        if machine.initiating(new_state):
            # Rule (4): apply the absence-detection transition.
            return machine.detect(new_state, state[2])
        # Rule (5).
        return new_state

    def accepting(state: State) -> bool:
        return machine.is_accepting(simulated_state(state))

    def rejecting(state: State) -> bool:
        return machine.is_rejecting(simulated_state(state))

    return DistributedMachine(
        alphabet=machine.alphabet,
        beta=max(machine.beta, 2),
        init=init,
        delta=delta,
        accepting=accepting,
        rejecting=rejecting,
        name=name or f"compiled-absence({machine.name})",
    )
