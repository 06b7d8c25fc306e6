"""Graph population protocols: rendez-vous transitions on graphs (Section 4.3).

A graph population protocol is a pair ``(Q, δ)`` with ``δ : Q² → Q²``; a step
selects an ordered pair of *adjacent* nodes ``(u, v)`` and applies
``δ(C(u), C(v))`` to them.  Schedules are required to be pseudo-stochastic.
This is exactly the model of Angluin et al. on network graphs [3] and the
communication mechanism of classical population protocols; Lemma 4.10 shows
that every graph population protocol is simulated by a DAF-automaton
(:mod:`repro.extensions.rendezvous_sim`).

The module provides the model and the stock protocols used by the
experiments (token protocols, majority with movement, parity); the exact
decision under pseudo-stochastic fairness is
:class:`~repro.core.verification.AtomicModel`'s, over
:meth:`GraphPopulationProtocol.successors`.  Monte-Carlo runs go through the
Lemma 4.10 compilation:
``MachineWorkload(compile_rendezvous(protocol), graph, options).run(seed)``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass

from repro.core.configuration import Configuration
from repro.core.graphs import LabeledGraph, Node
from repro.core.labels import Alphabet, Label
from repro.core.verification import AtomicModel

State = object
Transition = Callable[[State, State], tuple[State, State]]


@dataclass
class GraphPopulationProtocol(AtomicModel):
    """A population protocol whose interactions are restricted to graph edges."""

    alphabet: Alphabet
    init: Callable[[Label], State]
    delta: Transition
    accepting: Iterable[State] | Callable[[State], bool] | None = None
    rejecting: Iterable[State] | Callable[[State], bool] | None = None
    name: str = "graph-population-protocol"

    # ------------------------------------------------------------------ #
    def interact(
        self, configuration: Configuration, initiator: Node, responder: Node
    ) -> Configuration:
        """Apply one rendez-vous interaction to an ordered pair of nodes."""
        p, q = configuration[initiator], configuration[responder]
        p2, q2 = self.delta(p, q)
        if (p2, q2) == (p, q):
            return configuration
        updated = list(configuration)
        updated[initiator] = p2
        updated[responder] = q2
        return tuple(updated)

    def successors(
        self, graph: LabeledGraph, configuration: Configuration
    ) -> list[Configuration]:
        """All successor configurations over ordered adjacent pairs
        (``[configuration]`` at a deadlock)."""
        result: set[Configuration] = set()
        for u, v in graph.edge_pairs():
            result.add(self.interact(configuration, u, v))
            result.add(self.interact(configuration, v, u))
        result.discard(configuration)
        return sorted(result, key=repr) or [configuration]


def transition_table(table: Mapping[tuple[State, State], tuple[State, State]]) -> Transition:
    """Build a δ function from a partial table; unlisted pairs are silent."""
    rules = dict(table)

    def delta(p: State, q: State) -> tuple[State, State]:
        return rules.get((p, q), (p, q))

    return delta


# ---------------------------------------------------------------------- #
# Stock protocols
# ---------------------------------------------------------------------- #
def token_protocol(alphabet: Alphabet) -> GraphPopulationProtocol:
    """The protocol ``P_token`` of Lemma 5.1: collapse multiple leaders/tokens.

    States ``{0, L, L', ⊥}`` with transitions ``(L, L) ↦ (0, ⊥)``,
    ``(0, L) ↦ (L, 0)`` and ``(L, 0) ↦ (L', 0)``.  Every node starts as a
    leader.
    """
    table = transition_table(
        {
            ("L", "L"): ("0", "BOT"),
            ("0", "L"): ("L", "0"),
            ("L", "0"): ("L'", "0"),
        }
    )
    return GraphPopulationProtocol(
        alphabet=alphabet,
        init=lambda _label: "L",
        delta=table,
        accepting=None,
        rejecting=None,
        name="P_token",
    )


def majority_with_movement(
    alphabet: Alphabet, first: Label = "a", second: Label = "b", strict: bool = True
) -> GraphPopulationProtocol:
    """Exact majority on connected graphs: cancellation plus token movement.

    States: ``A``/``B`` (active votes), ``a``/``b`` (passive followers).
    Transitions: active opposite votes cancel into followers of the
    tie-breaking side; an active vote converts adjacent followers of the other
    side; active votes *swap position* with followers of their own side so
    that, under pseudo-stochastic scheduling, any two active votes eventually
    become adjacent — which is what makes cancellation-based majority correct
    on arbitrary connected graphs rather than only on cliques; and the
    tie-breaking follower spreads over the other follower so that a tie (in
    which all active votes cancel) still stabilises to a consensus.

    With ``strict=True`` the protocol accepts iff strictly more nodes carry
    ``first`` than ``second`` (ties rejected); with ``strict=False`` ties are
    accepted.
    """
    tie_follower = "b" if strict else "a"
    other_follower = "a" if strict else "b"
    table = {
        ("A", "B"): (tie_follower, tie_follower),
        ("B", "A"): (tie_follower, tie_follower),
        ("A", "b"): ("A", "a"),
        ("b", "A"): ("a", "A"),
        ("B", "a"): ("B", "b"),
        ("a", "B"): ("b", "B"),
        # Movement: an active token swaps places with a passive follower.
        ("A", "a"): ("a", "A"),
        ("B", "b"): ("b", "B"),
        # Tie handling: after all active votes cancel, the tie-breaking
        # follower overruns stale followers of the other side.
        (tie_follower, other_follower): (tie_follower, tie_follower),
        (other_follower, tie_follower): (tie_follower, tie_follower),
    }

    def init(label: Label) -> State:
        if label == first:
            return "A"
        if label == second:
            return "B"
        return tie_follower

    return GraphPopulationProtocol(
        alphabet=alphabet,
        init=init,
        delta=transition_table(table),
        accepting={"A", "a"},
        rejecting={"B", "b"},
        name=f"graph-majority({first} {'>' if strict else '≥'} {second})",
    )


def parity_protocol(alphabet: Alphabet, label: Label = "a") -> GraphPopulationProtocol:
    """Whether the number of ``label`` nodes is odd: XOR accumulation with movement.

    States ``(bit, active)`` where active tokens carry a parity bit; two
    active tokens merge by XOR-ing; active tokens move by swapping with
    passive ones; passive nodes copy the verdict of active neighbours.
    """

    def init(node_label: Label) -> State:
        return ("active", 1 if node_label == label else 0)

    def delta(p: State, q: State) -> tuple[State, State]:
        p_kind, p_bit = p
        q_kind, q_bit = q
        if p_kind == "active" and q_kind == "active":
            return ("active", (p_bit + q_bit) % 2), ("passive", (p_bit + q_bit) % 2)
        if p_kind == "active" and q_kind == "passive":
            # Move the token and refresh the passive node's opinion.
            return ("passive", p_bit), ("active", p_bit)
        if p_kind == "passive" and q_kind == "active":
            return ("passive", q_bit), ("active", q_bit)
        return p, q

    def accepting(state: State) -> bool:
        return state[1] == 1

    def rejecting(state: State) -> bool:
        return state[1] == 0

    return GraphPopulationProtocol(
        alphabet=alphabet,
        init=init,
        delta=delta,
        accepting=accepting,
        rejecting=rejecting,
        name=f"graph-parity({label})",
    )
