"""The DAF token construction of Lemma 5.1: strong broadcasts from weak ones.

The constructive half of ``DAF = NL`` simulates an arbitrary strong broadcast
protocol ``P`` (which decides an NL predicate, [11]) by a DAF-automaton.  The
paper's construction layers three mechanisms:

1. ``P_token`` — a graph population protocol over ``{0, L, L', ⊥}`` in which
   every agent starts as a leader ``L``; leaders collide (``L, L ↦ 0, ⊥``),
   move (``0, L ↦ L, 0``) and arm themselves for a broadcast
   (``L, 0 ↦ L', 0``).  It is simulated by neighbourhood transitions via
   Lemma 4.10 (:func:`repro.extensions.rendezvous_sim.compile_rendezvous`).
2. ``P_step`` — the product of the simulated token layer with the state of
   ``P``; an armed leader ``(L', q)`` performs the *weak* broadcast ``⟨step⟩``
   that applies the strong broadcast ``B(q) = (q', f)`` of ``P`` to every
   agent and disarms the leader.  Because (once a single token remains) no
   other agent can broadcast at the same time, the weak broadcast has the
   effect of a strong one.
3. ``P_reset`` — error recovery: when two leaders collide an agent enters the
   error state ``⊥``; being broadcast-initiating it eventually fires
   ``⟨reset⟩``, which restarts the whole computation from the stored input
   with strictly fewer leaders, until exactly one leader remains.

:func:`token_construction` builds the resulting machine *with weak
broadcasts* (a :class:`~repro.extensions.broadcast.BroadcastMachine`);
:func:`nl_daf_automaton` additionally compiles the weak broadcasts away
(Lemma 4.7), producing a plain DAF-automaton.

One deliberate deviation from the paper's bookkeeping: acceptance is read off
the simulated ``P``-state component only (the paper's ``O_reset`` also
constrains the token component; reading only the ``P`` layer is the
Lemma 4.4-style "remember the last relevant verdict" convention and avoids
spurious flicker while the token keeps circulating).
"""

from __future__ import annotations

from repro.core.automaton import DistributedAutomaton, automaton
from repro.core.labels import Label
from repro.core.machine import DistributedMachine, Neighborhood, State
from repro.extensions.broadcast import BroadcastMachine, WeakBroadcast
from repro.extensions.broadcast_sim import compile_broadcasts
from repro.extensions.rendezvous import token_protocol
from repro.extensions.rendezvous_sim import compile_rendezvous, original_state
from repro.constructions.strong_broadcast import StrongBroadcastProtocol


def _project_token(neighborhood: Neighborhood, beta: int) -> Neighborhood:
    """The view of the token layer: the token ``t`` of each ``((t, q), q0)``."""
    counts: dict[State, int] = {}
    for state, count in neighborhood.unordered_items():
        token_state = state[0][0]
        counts[token_state] = counts.get(token_state, 0) + count
    return Neighborhood(counts, beta, total=neighborhood.degree)


def token_construction(protocol: StrongBroadcastProtocol) -> BroadcastMachine:
    """The machine ``P_reset`` of Lemma 5.1 (still using weak broadcasts).

    States are ``((t, q), q0)`` where ``t`` is a state of the compiled token
    layer (including its handshake intermediates), ``q`` the current state of
    the simulated strong broadcast protocol and ``q0`` the stored input used
    by resets.
    """
    token_layer = compile_rendezvous(token_protocol(protocol.alphabet), name="P'_token")

    def init(label: Label) -> State:
        q0 = protocol.init(label)
        return (("L", q0), q0)

    def delta(state: State, neighborhood: Neighborhood) -> State:
        (token_state, q), q0 = state
        new_token = token_layer.delta(token_state, _project_token(neighborhood, token_layer.beta))
        return ((new_token, q), q0)

    # ------------------------------------------------------------------ #
    # Weak broadcasts: ⟨step⟩ for armed leaders, ⟨reset⟩ for error states.
    # ------------------------------------------------------------------ #
    broadcasts: dict[State, WeakBroadcast] = {}

    def is_initiating(state: State) -> bool:
        (token_state, _q), _q0 = state
        base = original_state(token_state)
        armed = token_state == "L'"
        return armed or base == "BOT"

    class _LazyBroadcasts(dict):
        """Broadcast table computed on demand.

        The state space of the construction is a product of three layers and
        is not enumerated up front, so the broadcast table is materialised
        lazily for exactly the states the run visits.
        """

        def __contains__(self, state: object) -> bool:  # type: ignore[override]
            try:
                return is_initiating(state)  # type: ignore[arg-type]
            except Exception:  # noqa: BLE001 - membership probe: a state the predicate cannot parse is simply "not initiating"
                return False

        def __missing__(self, state: State) -> WeakBroadcast:
            if not is_initiating(state):
                raise KeyError(state)
            (token_state, q), q0 = state
            if token_state == "L'":
                rule = protocol.broadcasts.get(q)

                def step_response(other: State, rule=rule) -> State:
                    (other_token, other_q), other_q0 = other
                    new_q = rule.response(other_q) if rule is not None else other_q
                    return ((other_token, new_q), other_q0)

                new_q = rule.new_state if rule is not None else q
                return WeakBroadcast(
                    trigger=state,
                    new_state=(("L", new_q), q0),
                    response=step_response,
                    name="step",
                )

            def reset_response(other: State) -> State:
                (_other_token, _other_q), other_q0 = other
                return (("0", other_q0), other_q0)

            return WeakBroadcast(
                trigger=state,
                new_state=(("L", q0), q0),
                response=reset_response,
                name="reset",
            )

        def get(self, state, default=None):  # type: ignore[override]
            if state in self:
                return self[state]
            return default

        def items(self):  # pragma: no cover - the table is virtual
            return ()

    def accepting(state: State) -> bool:
        (_token_state, q), _q0 = state
        return protocol.is_accepting(q)

    def rejecting(state: State) -> bool:
        (_token_state, q), _q0 = state
        return protocol.is_rejecting(q)

    return BroadcastMachine(
        alphabet=protocol.alphabet,
        beta=2,
        init=init,
        delta=delta,
        broadcasts=_LazyBroadcasts(),
        accepting=accepting,
        rejecting=rejecting,
        name=f"token-construction({protocol.name})",
    )


def nl_daf_machine(protocol: StrongBroadcastProtocol) -> DistributedMachine:
    """The Lemma 5.1 construction compiled all the way to a plain counting machine."""
    return compile_broadcasts(
        token_construction(protocol), name=f"DAF({protocol.name})"
    )


def nl_daf_automaton(protocol: StrongBroadcastProtocol) -> DistributedAutomaton:
    """A DAF-automaton equivalent to the given strong broadcast protocol."""
    return automaton(nl_daf_machine(protocol), "DAF")
