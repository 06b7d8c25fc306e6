"""The three-phase simulation of weak broadcasts (Lemma 4.7).

The compiler :func:`compile_broadcasts` turns a
:class:`~repro.extensions.broadcast.BroadcastMachine` into a plain
:class:`~repro.core.machine.DistributedMachine` of the same class.  The
construction follows the proof of Lemma 4.7 verbatim; it is a variant of the
three-phase protocol of Awerbuch's alpha-synchroniser:

* Phase-0 states are the original states ``Q``.
* Phase-1/2 states are triples ``(q, phase, f)`` meaning "simulating state
  ``q`` while participating in a broadcast with response function ``f``".
* A node initiates a broadcast by entering phase 1 with its own response
  function (rule 2); a node that sees a phase-1 neighbour and no phase-2
  neighbour joins that neighbour's broadcast, applying the response function
  immediately (rule 3); nodes advance to phase 2 once no neighbour is left in
  phase 0 (rule 4) and return to phase 0 once no neighbour is left in phase 1
  (rule 5).  Nodes with all neighbours in phase 0 and no pending broadcast
  simply execute ordinary neighbourhood transitions (rule 1).

The rules keep the synchroniser's invariant: **neighbours are at most one
phase apart (mod 3)** — counting a node's phases without wrapping (the
``p``-th phase of its ``w``-th wave is ``3w + p``; the state stores it mod 3),
neighbouring counts differ by at most one.  Rule 3's "no phase-2 neighbour"
guard is what keeps it: without it a phase-0 node that has just left a wave
could join the next wave beside a neighbour still in phase 2 of the old one,
two phases ahead of it; on a cycle of length ≥ 4 the wave then recirculates
and a lone initiator responds to its own broadcast.

All phase tests only require detecting the *presence* of a phase among the
neighbours, so the compiled machine keeps the counting bound of the input
machine — in particular the compilation maps dAF-machines to dAF-machines, as
Lemma 4.7 requires.

Intermediate states are tagged tuples ``(_PHASE_TAG, phase, q, trigger)``
where ``trigger`` identifies the broadcast (its initiating state); the
response function is recovered from the machine's broadcast table.  The
accepting/rejecting status of an intermediate state is that of its simulated
state ``q`` (the Lemma 4.4 wrapper).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.labels import Label
from repro.core.machine import DistributedMachine, Neighborhood, State
from repro.extensions.broadcast import BroadcastMachine

#: Marker distinguishing intermediate (phase 1/2) states from original states.
_PHASE_TAG = "#broadcast-phase"


def make_phase_state(phase: int, simulated: State, trigger: State) -> tuple:
    """The intermediate state of a node in phase 1 or 2 of a broadcast."""
    return (_PHASE_TAG, phase, simulated, trigger)


def is_phase_state(state: State) -> bool:
    return isinstance(state, tuple) and len(state) == 4 and state[0] == _PHASE_TAG


def phase_of(state: State) -> int:
    """0 for original states, 1 or 2 for intermediate states."""
    if is_phase_state(state):
        return state[1]
    return 0


def simulated_state(state: State) -> State:
    """The original-protocol state a compiled-machine state represents."""
    if is_phase_state(state):
        return state[2]
    return state


def trigger_of(state: State) -> State:
    if not is_phase_state(state):
        raise ValueError(f"{state!r} is not an intermediate broadcast state")
    return state[3]


def compile_broadcasts(machine: BroadcastMachine, name: str | None = None) -> DistributedMachine:
    """Compile a machine with weak broadcasts into a plain distributed machine."""

    # Keep a reference rather than copying: some constructions (e.g. the
    # Lemma 5.1 token construction) provide a lazily materialised broadcast
    # table over a product state space that is never enumerated up front.
    broadcasts = machine.broadcasts

    def init(label: Label) -> State:
        return machine.init(label)

    def restrict_to_phase0(neighborhood: Neighborhood) -> Neighborhood:
        """The neighbourhood as the original machine would see it.

        Rule 1/2 only fire when every neighbour is in phase 0, in which case
        the states present are original states and can be passed straight to
        the original transition function.
        """
        counts = {s: c for s, c in neighborhood.items() if not is_phase_state(s)}
        return Neighborhood(counts, machine.beta, total=neighborhood.degree)

    def delta(state: State, neighborhood: Neighborhood) -> State:
        # One pass over the view; the phase test is is_phase_state's.
        has_phase0 = has_phase1 = has_phase2 = False
        for s, _ in neighborhood.items():
            p = s[1] if isinstance(s, tuple) and len(s) == 4 and s[0] == _PHASE_TAG else 0
            if p == 1:
                has_phase1 = True
            elif p == 2:
                has_phase2 = True
            elif p == 0:
                has_phase0 = True
        phase = phase_of(state)

        if phase == 0:
            if not has_phase1 and not has_phase2:
                # Rules (1) and (2): all neighbours in phase 0.
                if machine.is_initiating(state):
                    broadcast = broadcasts[state]
                    return make_phase_state(1, broadcast.new_state, state)
                return machine.delta(state, restrict_to_phase0(neighborhood))
            if has_phase1 and not has_phase2:
                # Rule (3): join a neighbour's broadcast; g(N) picks one
                # deterministically (smallest trigger by repr).
                candidate_triggers = sorted(
                    (trigger_of(s) for s in neighborhood.states() if phase_of(s) == 1),
                    key=repr,
                )
                trigger = candidate_triggers[0]
                broadcast = broadcasts[trigger]
                return make_phase_state(1, broadcast.apply_response(state), trigger)
            # A phase-2 neighbour: the previous wave has not finished here
            # (it already participated and returned to phase 0, or it is
            # about to see the phase-2 nodes come back).  The node stays
            # silent until it has, even next to a phase-1 neighbour, so
            # neighbours stay at most one phase apart.
            return state

        if phase == 1:
            # Rule (4): advance once no neighbour is left in phase 0.
            if not has_phase0:
                return make_phase_state(2, simulated_state(state), trigger_of(state))
            return state

        # phase == 2 — rule (5): return to phase 0 once no neighbour is in phase 1.
        if not has_phase1:
            return simulated_state(state)
        return state

    def accepting(state: State) -> bool:
        return machine.is_accepting(simulated_state(state))

    def rejecting(state: State) -> bool:
        return machine.is_rejecting(simulated_state(state))

    return DistributedMachine(
        alphabet=machine.alphabet,
        beta=machine.beta,
        init=init,
        delta=delta,
        accepting=accepting,
        rejecting=rejecting,
        name=name or f"compiled-broadcasts({machine.name})",
    )
