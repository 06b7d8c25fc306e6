"""Bounded-degree DAf majority / homogeneous thresholds (Section 6.1, Prop. 6.3).

The paper's most striking positive result: on graphs of degree at most ``k``
a DAf-automaton — counting, stable consensus, but only *adversarial*
fairness — decides every homogeneous threshold predicate
``a1·x1 + … + al·xl ≥ 0``, in particular majority.  The algorithm alternates
two classical phases:

* **Local cancellation** (``P_cancel``, Lemma 6.1): every agent holds an
  integer contribution in ``[-E, E]`` with ``E = max(|a_i|, 2k)``; agents with
  a large positive contribution push single units towards neighbours with
  small contributions (and symmetrically for very negative ones).  Under the
  synchronous scheduler the sum of contributions is preserved and the run
  converges to a configuration where either all contributions are negative
  (the sum is certainly negative → reject) or all lie in ``[-k, k]``.
* **Convergence detection and doubling**: leader agents use weak absence
  detection to find out which of the two outcomes happened; in the second
  case they broadcast ``⟨double⟩``, doubling every contribution (safe because
  all values are small), and cancellation resumes.  If the sum is negative,
  doubling terminates in the all-negative outcome after finitely many rounds;
  if the sum is non-negative, the protocol keeps doubling forever and never
  rejects — which is the correct stable-consensus behaviour for ``≥ 0``.
  Conflicting leaders and interrupted detections park agents in an error
  state ``⊥`` from which ``⟨reset⟩`` restarts the computation with strictly
  fewer leaders (Lemma 6.2).

This module implements the algorithm at two levels:

1. :func:`cancellation_machine` — ``P_cancel`` alone, as a plain synchronous
   counting machine, used to reproduce the convergence statement of
   Lemma 6.1.
2. :class:`BoundedDegreeMajorityProtocol` — the full §6.1 protocol in the
   extended model the paper writes it in (synchronous scheduling, weak
   absence detection, weak broadcasts, resets).  It steps *one* run of that
   model, not its semantics.  Where the model leaves a choice open it makes
   one fixed choice: every leader observes every non-leader agent, and each
   non-initiator hears the lowest-id initiator.  It ranges neither over the
   other covering observation families (Definition 4.8) nor over which
   broadcast each agent hears, so
   :meth:`~BoundedDegreeMajorityProtocol.decide` is not an exact decision,
   and the ACCEPT it returns once the step budget runs out is presumed, not
   shown.  The run draws no randomness.  No plain DAf-automaton is compiled
   from the protocol; the tests, benchmarks and examples run it at this
   extended level only.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.configuration import Configuration
from repro.core.graphs import LabeledGraph
from repro.core.labels import Alphabet, Label
from repro.core.machine import DistributedMachine, Neighborhood, State
from repro.core.results import Verdict
from repro.properties.threshold import LinearThresholdProperty


# ---------------------------------------------------------------------- #
# P_cancel — local cancellation (Lemma 6.1)
# ---------------------------------------------------------------------- #
def contribution_bound(coefficients: dict[Label, int], degree_bound: int) -> int:
    """``E = max(|a_1|, …, |a_l|, 2k)`` — the largest contribution an agent stores."""
    magnitudes = [abs(c) for c in coefficients.values()] or [0]
    return max(max(magnitudes), 2 * degree_bound)


def cancellation_machine(
    alphabet: Alphabet, coefficients: dict[Label, int], degree_bound: int
) -> DistributedMachine:
    """``P_cancel``: the synchronous local-cancellation protocol ⟨cancel⟩.

    States are integers in ``[-E, E]``.  In one synchronous step an agent with
    contribution ``x``:

    * ``-k ≤ x ≤ k``   — receives one unit from every neighbour above ``k``
      and sends one unit to (i.e. is debited by) every neighbour below
      ``-k``: ``x ← x − N[-E,-k-1] + N[k+1,E]``;
    * ``x > k``        — sends one unit to every neighbour with contribution
      ``≤ k``: ``x ← x − N[-E,k]``;
    * ``x < -k``       — receives one unit from every neighbour with
      contribution ``≥ -k``: ``x ← x + N[-k,E]``.

    The neighbour counts must be exact, so the machine's counting bound is
    the degree bound ``k`` (legitimate for bounded-degree graphs).
    """
    bound = contribution_bound(coefficients, degree_bound)
    k = degree_bound

    def init(label: Label) -> State:
        return coefficients.get(label, 0)

    def in_range(state: State, low: int, high: int) -> bool:
        return isinstance(state, int) and low <= state <= high

    def delta(state: State, neighborhood: Neighborhood) -> State:
        x = state
        if -k <= x <= k:
            below = neighborhood.count_where(lambda s: in_range(s, -bound, -k - 1))
            above = neighborhood.count_where(lambda s: in_range(s, k + 1, bound))
            return max(-bound, min(bound, x - below + above))
        if x > k:
            small = neighborhood.count_where(lambda s: in_range(s, -bound, k))
            return max(-bound, x - small)
        big = neighborhood.count_where(lambda s: in_range(s, -k, bound))
        return min(bound, x + big)

    return DistributedMachine(
        alphabet=alphabet,
        beta=max(degree_bound, 2),
        init=init,
        delta=delta,
        accepting=None,
        rejecting=None,
        name=f"P_cancel(E={bound}, k={k})",
    )


def run_cancellation(
    machine: DistributedMachine,
    graph: LabeledGraph,
    max_steps: int = 2_000,
) -> tuple[list[Configuration], bool]:
    """Run ``P_cancel`` synchronously until it reaches a fixed point.

    Returns the trace and a flag telling whether a fixed point was reached
    within the step budget.  (On bounded-degree graphs Lemma 6.1 guarantees
    convergence to either all-negative or all-small states; the protocol then
    becomes silent only in the all-small case, so "fixed point" here means
    the configuration stopped changing.)
    """
    from repro.core.configuration import initial_configuration, successor

    configuration = initial_configuration(machine, graph)
    everyone = frozenset(graph.nodes())
    trace = [configuration]
    for _ in range(max_steps):
        nxt = successor(machine, graph, configuration, everyone)
        trace.append(nxt)
        if nxt == configuration:
            return trace, True
        configuration = nxt
    return trace, False


def cancellation_converged(configuration: Configuration, degree_bound: int) -> str | None:
    """Classify a ``P_cancel`` configuration per Lemma 6.1.

    Returns ``"negative"`` if every contribution is ≤ -1, ``"small"`` if every
    contribution lies in ``[-k, k]``, and ``None`` otherwise.
    """
    if all(value <= -1 for value in configuration):
        return "negative"
    if all(-degree_bound <= value <= degree_bound for value in configuration):
        return "small"
    return None


# ---------------------------------------------------------------------- #
# The full §6.1 protocol in the extended model
# ---------------------------------------------------------------------- #
@dataclass
class AgentState:
    """The extended-model state of one agent.

    ``contribution`` is the current P_cancel value, ``role`` the leader-layer
    state (one of ``"0"``, ``"L"``, ``"Ldouble"``, ``"Lreject"``, ``"error"``,
    ``"reject"``), and ``initial`` the stored input contribution that
    ``⟨reset⟩`` restores (the ``q0`` component of the paper's states).
    """

    contribution: int
    role: str
    initial: int = 0


@dataclass
class BoundedDegreeMajorityProtocol:
    """The §6.1 algorithm at the DA$-with-absence-detection/broadcast level.

    The protocol decides ``Σ coefficients[label] · x_label ≥ 0`` on graphs of
    degree at most ``degree_bound`` under synchronous (hence adversarial-fair)
    scheduling.  One :meth:`step` performs, in order,

    1. a synchronous ⟨cancel⟩ neighbourhood round on the contributions,
    2. a weak absence detection by all leaders (``detect``): a leader that
       observes only small contributions arms itself for ⟨double⟩; one that
       observes only negative contributions arms itself for ⟨reject⟩; a leader
       that observes an error agent steps down; one that observes the reject
       verdict enters the error state,
    3. the weak broadcasts ⟨double⟩ / ⟨reject⟩ / ⟨reset⟩ of any armed agents
       (when several are armed, a non-initiator reacts to exactly one of
       them, chosen adversarially — here: the lowest-id initiator).

    Every leader observes every non-leader agent during absence detection:
    one of the covering families Definition 4.8 allows, not all of them
    (see the module docstring).
    """

    alphabet: Alphabet
    coefficients: dict[Label, int]
    degree_bound: int
    name: str = "bounded-degree-majority"

    def __post_init__(self) -> None:
        if self.degree_bound < 1:
            raise ValueError("degree bound must be positive")
        self.bound = contribution_bound(self.coefficients, self.degree_bound)
        self._cancel = cancellation_machine(
            self.alphabet, self.coefficients, self.degree_bound
        )

    # ------------------------------------------------------------------ #
    def initial_configuration(self, graph: LabeledGraph) -> list[AgentState]:
        return [
            AgentState(
                self.coefficients.get(graph.label_of(v), 0),
                "L",
                self.coefficients.get(graph.label_of(v), 0),
            )
            for v in graph.nodes()
        ]

    def _cancel_round(
        self, graph: LabeledGraph, configuration: list[AgentState]
    ) -> list[AgentState]:
        contributions = tuple(agent.contribution for agent in configuration)
        from repro.core.configuration import successor

        everyone = frozenset(graph.nodes())
        updated = successor(self._cancel, graph, contributions, everyone)
        return [
            AgentState(updated[v], configuration[v].role, configuration[v].initial)
            for v in graph.nodes()
        ]

    def _detect_round(self, configuration: list[AgentState]) -> list[AgentState]:
        """Weak absence detection by every leader.

        Mirroring the behaviour the Lemma 4.9 simulation actually produces,
        a leader observes its own state plus the states of every *non-leader*
        agent.
        """
        leaders = [i for i, agent in enumerate(configuration) if agent.role == "L"]
        if not leaders:
            return configuration
        followers = [a for i, a in enumerate(configuration) if i not in leaders]
        updated = [AgentState(a.contribution, a.role, a.initial) for a in configuration]
        k = self.degree_bound
        for leader in leaders:
            support = [configuration[leader]] + followers
            roles = {agent.role for agent in support}
            contributions = [agent.contribution for agent in support]
            if "reject" in roles:
                updated[leader].role = "error"
            elif "error" in roles:
                updated[leader].role = "0"
            elif all(-k <= value <= k for value in contributions):
                updated[leader].role = "Ldouble"
            elif all(value <= -1 for value in contributions):
                updated[leader].role = "Lreject"
        return updated

    def _broadcast_round(self, configuration: list[AgentState]) -> list[AgentState]:
        initiators = [
            i
            for i, agent in enumerate(configuration)
            if agent.role in ("Ldouble", "Lreject", "error")
        ]
        if not initiators:
            return configuration
        updated = [AgentState(a.contribution, a.role, a.initial) for a in configuration]
        # Each non-initiator reacts to exactly one initiator's broadcast: the
        # lowest-id one's.
        heard = configuration[initiators[0]].role
        for index, agent in enumerate(configuration):
            if index not in initiators:
                updated[index] = self._apply_response(agent, heard)
        for index in initiators:
            updated[index] = self._apply_initiator(configuration[index])
        return updated

    def _apply_response(self, agent: AgentState, source_role: str) -> AgentState:
        if source_role == "Ldouble":
            if agent.role in ("L", "Ldouble", "Lreject"):
                # A leader hit by somebody else's broadcast becomes an error
                # (the leaders disagreed): it will later trigger ⟨reset⟩.
                return AgentState(agent.contribution, "error", agent.initial)
            if agent.role == "0":
                doubled = max(-self.bound, min(self.bound, 2 * agent.contribution))
                return AgentState(doubled, "0", agent.initial)
            return agent
        if source_role == "Lreject":
            if agent.role in ("L", "Ldouble", "Lreject"):
                return AgentState(agent.contribution, "error", agent.initial)
            if agent.role == "0":
                return AgentState(agent.contribution, "reject", agent.initial)
            return agent
        # source_role == "error": ⟨reset⟩ — restart from the stored input.
        return AgentState(agent.initial, "0", agent.initial)

    def _apply_initiator(self, agent: AgentState) -> AgentState:
        if agent.role == "Ldouble":
            doubled = max(-self.bound, min(self.bound, 2 * agent.contribution))
            return AgentState(doubled, "L", agent.initial)
        if agent.role == "Lreject":
            return AgentState(agent.contribution, "reject", agent.initial)
        # error: restart the computation as a leader with the stored input.
        return AgentState(agent.initial, "L", agent.initial)

    # ------------------------------------------------------------------ #
    def step(self, graph: LabeledGraph, configuration: list[AgentState]) -> list[AgentState]:
        """One synchronous super-step: cancel, detect, broadcast."""
        configuration = self._cancel_round(graph, configuration)
        configuration = self._detect_round(configuration)
        configuration = self._broadcast_round(configuration)
        return configuration

    def decide(
        self, graph: LabeledGraph, max_steps: int = 400
    ) -> tuple[Verdict, int]:
        """Run the protocol and report the stable verdict.

        The protocol rejects by flooding the ``reject`` role; it accepts by
        never rejecting — operationally we report ACCEPT once the
        contribution sum can no longer go negative (all contributions
        non-negative with at least one leader alive), or when the step budget
        is exhausted without a reject, which matches the stable-consensus
        semantics of the ``≥ 0`` predicate.
        """
        if not graph.is_degree_bounded(self.degree_bound):
            raise ValueError(
                f"graph has degree {graph.max_degree()} > bound {self.degree_bound}"
            )
        configuration = self.initial_configuration(graph)
        for step in range(1, max_steps + 1):
            configuration = self.step(graph, configuration)
            if all(agent.role == "reject" for agent in configuration):
                return Verdict.REJECT, step
            roles = {agent.role for agent in configuration}
            clean = "error" not in roles and "reject" not in roles
            if clean and all(agent.contribution >= 0 for agent in configuration):
                # With no pending errors the contribution sum is the (possibly
                # doubled) input sum; it is non-negative and can never turn
                # all-negative again, so the run will never reject: accept.
                return Verdict.ACCEPT, step
        # No reject within the budget: under stable consensus this is the
        # accepting behaviour (the true sum is ≥ 0 and doubling continues
        # forever), but we flag it as only presumed.
        return Verdict.ACCEPT, max_steps

    # ------------------------------------------------------------------ #
    def property(self) -> LinearThresholdProperty:
        """The homogeneous threshold predicate this instance decides."""
        return LinearThresholdProperty(
            alphabet=self.alphabet,
            coefficients=dict(self.coefficients),
            constant=0,
            name=f"Σ {self.coefficients} ≥ 0",
        )


def majority_protocol_bounded(
    alphabet: Alphabet,
    first: Label = "a",
    second: Label = "b",
    degree_bound: int = 3,
) -> BoundedDegreeMajorityProtocol:
    """Majority ``x_first ≥ x_second`` as a §6.1 protocol instance.

    Proposition 6.3 covers homogeneous thresholds, so the faithful predicate
    is the non-strict ``x_first − x_second ≥ 0``.  Strict majority
    ``x_first > x_second`` is the complement of ``x_second − x_first ≥ 0``:
    build that instance with ``first`` and ``second`` swapped and negate its
    answer.
    """
    return BoundedDegreeMajorityProtocol(
        alphabet=alphabet,
        coefficients={first: 1, second: -1},
        degree_bound=degree_bound,
    )
