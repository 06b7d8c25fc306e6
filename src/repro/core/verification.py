"""Exact decision of distributed automata on concrete graphs.

For graphs whose reachable configuration space fits in memory this module
decides — *exactly*, quantifying over all fair schedules — whether an
automaton accepts, rejects, or fails the consistency condition.  The two
fairness notions require different machinery:

Pseudo-stochastic fairness (``F``)
    A fair run eventually gets trapped in (and then visits all of) a *bottom
    strongly connected component* of the reachable configuration graph: from a
    configuration visited infinitely often every reachable configuration is
    again visited infinitely often (the argument of Lemma B.12 / Appendix
    D.2).  Hence all fair runs accept iff every reachable bottom SCC consists
    solely of accepting configurations, and symmetrically for rejection.  This
    is the same characterisation the paper uses to place DAF inside NL /
    NSPACE(n).

Adversarial fairness (``f``)
    A fair schedule only has to select every node infinitely often.  There is
    a non-accepting fair run iff some non-accepting configuration ``C`` lies on
    a cycle of the configuration graph whose selections jointly cover every
    node (a *fair lasso*).  We search for such lassos explicitly in the
    product of the configuration graph with the subset lattice of covered
    nodes.

Both procedures are exponential in the number of nodes; they are intended for
the small witness graphs used in tests and in the Figure 1 experiments
(typically 3–7 nodes), exactly like the configuration-space arguments in the
paper's proofs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.core.automaton import DistributedAutomaton
from repro.core.configuration import (
    Configuration,
    initial_configuration,
    is_accepting_configuration,
    is_rejecting_configuration,
    successor,
)
from repro.core.graphs import LabeledGraph
from repro.core.machine import DistributedMachine
from repro.core.scheduler import Fairness, Selection, SelectionMode, permitted_selections
from repro.core.results import Verdict


class StateSpaceTooLarge(RuntimeError):
    """Raised when the reachable configuration space exceeds the exploration budget."""


@dataclass
class ConfigurationGraph:
    """The reachable configuration graph of a machine on a graph.

    ``successors[C]`` lists the distinct successor configurations of ``C``
    (over all permitted selections); ``edges[C]`` retains, for every distinct
    successor, one selection witnessing the edge plus the set of all
    selections inducing it (needed by the fair-lasso search, which must know
    which nodes can be covered while traversing an edge).
    """

    initial: Configuration
    configurations: list[Configuration]
    successors: dict[Configuration, tuple[Configuration, ...]]
    edge_selections: dict[tuple[Configuration, Configuration], tuple[Selection, ...]]

    @property
    def size(self) -> int:
        return len(self.configurations)


def explore(
    machine: DistributedMachine,
    graph: LabeledGraph,
    selection_mode: SelectionMode = SelectionMode.EXCLUSIVE,
    start: Configuration | None = None,
    max_configurations: int = 200_000,
) -> ConfigurationGraph:
    """Breadth-first exploration of the reachable configuration graph."""
    selections = permitted_selections(graph, selection_mode)
    initial = start if start is not None else initial_configuration(machine, graph)
    seen: set[Configuration] = {initial}
    order: list[Configuration] = [initial]
    successors: dict[Configuration, tuple[Configuration, ...]] = {}
    edge_selections: dict[tuple[Configuration, Configuration], tuple[Selection, ...]] = {}
    queue: deque[Configuration] = deque([initial])
    while queue:
        configuration = queue.popleft()
        succ_map: dict[Configuration, list[Selection]] = {}
        for selection in selections:
            nxt = successor(machine, graph, configuration, selection)
            succ_map.setdefault(nxt, []).append(selection)
        successors[configuration] = tuple(succ_map.keys())
        for nxt, sels in succ_map.items():
            edge_selections[(configuration, nxt)] = tuple(sels)
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
                queue.append(nxt)
                if len(seen) > max_configurations:
                    raise StateSpaceTooLarge(
                        f"more than {max_configurations} reachable configurations"
                    )
    return ConfigurationGraph(
        initial=initial,
        configurations=order,
        successors=successors,
        edge_selections=edge_selections,
    )


# ---------------------------------------------------------------------- #
# Strongly connected components (iterative Tarjan)
# ---------------------------------------------------------------------- #
def strongly_connected_components(
    config_graph: ConfigurationGraph,
) -> list[list[Configuration]]:
    """Tarjan's algorithm, iterative to avoid recursion limits."""
    index_counter = 0
    indices: dict[Configuration, int] = {}
    lowlinks: dict[Configuration, int] = {}
    on_stack: set[Configuration] = set()
    stack: list[Configuration] = []
    components: list[list[Configuration]] = []

    for root in config_graph.configurations:
        if root in indices:
            continue
        work: list[tuple[Configuration, int]] = [(root, 0)]
        while work:
            node, child_index = work[-1]
            if child_index == 0:
                indices[node] = index_counter
                lowlinks[node] = index_counter
                index_counter += 1
                stack.append(node)
                on_stack.add(node)
            recurse = False
            children = config_graph.successors[node]
            while child_index < len(children):
                child = children[child_index]
                child_index += 1
                if child not in indices:
                    work[-1] = (node, child_index)
                    work.append((child, 0))
                    recurse = True
                    break
                if child in on_stack:
                    lowlinks[node] = min(lowlinks[node], indices[child])
            if recurse:
                continue
            work[-1] = (node, child_index)
            if child_index >= len(children):
                work.pop()
                if lowlinks[node] == indices[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
                if work:
                    parent = work[-1][0]
                    lowlinks[parent] = min(lowlinks[parent], lowlinks[node])
    return components


def bottom_sccs(config_graph: ConfigurationGraph) -> list[list[Configuration]]:
    """SCCs with no edge leaving them (the possible ``Inf`` sets of fair F-runs)."""
    components = strongly_connected_components(config_graph)
    component_of: dict[Configuration, int] = {}
    for idx, component in enumerate(components):
        for configuration in component:
            component_of[configuration] = idx
    bottoms: list[list[Configuration]] = []
    for idx, component in enumerate(components):
        is_bottom = True
        for configuration in component:
            for nxt in config_graph.successors[configuration]:
                if component_of[nxt] != idx:
                    is_bottom = False
                    break
            if not is_bottom:
                break
        if is_bottom:
            bottoms.append(component)
    return bottoms


# ---------------------------------------------------------------------- #
# Decision under pseudo-stochastic fairness
# ---------------------------------------------------------------------- #
@dataclass
class DecisionReport:
    """The result of an exact decision together with diagnostic data."""

    verdict: Verdict
    configuration_count: int
    bottom_scc_count: int = 0
    witness: Configuration | None = None
    detail: str = ""


def decide_pseudo_stochastic(
    machine: DistributedMachine,
    graph: LabeledGraph,
    selection_mode: SelectionMode = SelectionMode.EXCLUSIVE,
    max_configurations: int = 200_000,
) -> DecisionReport:
    """Decide acceptance by stable consensus under pseudo-stochastic fairness.

    All fair runs accept iff every reachable bottom SCC contains only
    accepting configurations; they all reject iff every bottom SCC contains
    only rejecting configurations.  Any other situation violates the
    consistency condition on this graph and is reported as INCONSISTENT.
    """
    config_graph = explore(
        machine, graph, selection_mode, max_configurations=max_configurations
    )
    bottoms = bottom_sccs(config_graph)
    all_accepting = True
    all_rejecting = True
    witness: Configuration | None = None
    for component in bottoms:
        for configuration in component:
            if not is_accepting_configuration(machine, configuration):
                if all_accepting:
                    witness = configuration
                all_accepting = False
            if not is_rejecting_configuration(machine, configuration):
                all_rejecting = False
    if all_accepting and not all_rejecting:
        verdict = Verdict.ACCEPT
    elif all_rejecting and not all_accepting:
        verdict = Verdict.REJECT
    else:
        verdict = Verdict.INCONSISTENT
    return DecisionReport(
        verdict=verdict,
        configuration_count=config_graph.size,
        bottom_scc_count=len(bottoms),
        witness=witness,
        detail="bottom-SCC analysis (pseudo-stochastic fairness)",
    )


def reachable_stably_accepting(
    machine: DistributedMachine,
    graph: LabeledGraph,
    selection_mode: SelectionMode = SelectionMode.EXCLUSIVE,
    accepting: bool = True,
    max_configurations: int = 200_000,
) -> bool:
    """Whether some reachable configuration is *stably* accepting (or rejecting).

    "Stably accepting" means every configuration reachable from it is an
    accepting consensus — the notion used in the proof of Lemma 3.5 (there
    for rejection).  Under pseudo-stochastic fairness this is equivalent to
    the existence of an accepting fair run.
    """
    config_graph = explore(
        machine, graph, selection_mode, max_configurations=max_configurations
    )
    test = (
        is_accepting_configuration if accepting else is_rejecting_configuration
    )
    # A configuration is stably accepting iff every configuration in its
    # forward closure is accepting.  Compute by a reverse fixed point: start
    # with the non-accepting configurations and propagate "can reach a
    # non-accepting configuration" backwards.
    bad = {c for c in config_graph.configurations if not test(machine, c)}
    predecessors: dict[Configuration, list[Configuration]] = {
        c: [] for c in config_graph.configurations
    }
    for configuration in config_graph.configurations:
        for nxt in config_graph.successors[configuration]:
            predecessors[nxt].append(configuration)
    can_reach_bad: set[Configuration] = set(bad)
    queue = deque(bad)
    while queue:
        configuration = queue.popleft()
        for pred in predecessors[configuration]:
            if pred not in can_reach_bad:
                can_reach_bad.add(pred)
                queue.append(pred)
    return any(c not in can_reach_bad for c in config_graph.configurations)


# ---------------------------------------------------------------------- #
# Decision under adversarial fairness
# ---------------------------------------------------------------------- #
def _exists_fair_lasso(
    config_graph: ConfigurationGraph,
    graph: LabeledGraph,
    anchors: list[Configuration],
) -> Configuration | None:
    """Is some ``anchor`` configuration on a cycle whose selections cover all nodes?

    Returns a witness anchor or ``None``.  The search runs, for every anchor,
    a BFS over pairs (configuration, set of nodes covered so far) within the
    anchor's SCC.
    """
    components = strongly_connected_components(config_graph)
    component_of: dict[Configuration, int] = {}
    for idx, component in enumerate(components):
        for configuration in component:
            component_of[configuration] = idx
    component_sets = [set(component) for component in components]
    all_nodes = frozenset(graph.nodes())

    for anchor in anchors:
        component = component_sets[component_of[anchor]]
        # A cycle through the anchor exists only if its SCC is non-trivial or
        # it has a self-loop.
        has_self_loop = anchor in config_graph.successors[anchor]
        if len(component) == 1 and not has_self_loop:
            continue
        # BFS over (configuration, covered) starting from the anchor.
        start = (anchor, frozenset())
        seen: set[tuple[Configuration, frozenset[int]]] = {start}
        queue: deque[tuple[Configuration, frozenset[int]]] = deque([start])
        found = False
        while queue and not found:
            configuration, covered = queue.popleft()
            for nxt in config_graph.successors[configuration]:
                if nxt not in component:
                    continue
                for selection in config_graph.edge_selections[(configuration, nxt)]:
                    new_covered = covered | selection
                    if nxt == anchor and new_covered == all_nodes:
                        found = True
                        break
                    state = (nxt, new_covered)
                    if state not in seen:
                        seen.add(state)
                        queue.append(state)
                if found:
                    break
        if found:
            return anchor
    return None


def decide_adversarial(
    machine: DistributedMachine,
    graph: LabeledGraph,
    selection_mode: SelectionMode = SelectionMode.EXCLUSIVE,
    max_configurations: int = 200_000,
) -> DecisionReport:
    """Decide acceptance by stable consensus under adversarial fairness.

    All fair runs accept iff there is *no* fair lasso through a non-accepting
    configuration; all fair runs reject iff there is no fair lasso through a
    non-rejecting configuration.  If neither holds the automaton is
    inconsistent on this graph; both cannot hold simultaneously (the
    synchronous run is always fair and always exists).
    """
    config_graph = explore(
        machine, graph, selection_mode, max_configurations=max_configurations
    )
    non_accepting = [
        c
        for c in config_graph.configurations
        if not is_accepting_configuration(machine, c)
    ]
    non_rejecting = [
        c
        for c in config_graph.configurations
        if not is_rejecting_configuration(machine, c)
    ]
    lasso_breaking_accept = _exists_fair_lasso(config_graph, graph, non_accepting)
    all_accept = lasso_breaking_accept is None
    lasso_breaking_reject = _exists_fair_lasso(config_graph, graph, non_rejecting)
    all_reject = lasso_breaking_reject is None
    if all_accept and not all_reject:
        verdict = Verdict.ACCEPT
        witness = None
    elif all_reject and not all_accept:
        verdict = Verdict.REJECT
        witness = None
    else:
        verdict = Verdict.INCONSISTENT
        witness = lasso_breaking_accept or lasso_breaking_reject
    return DecisionReport(
        verdict=verdict,
        configuration_count=config_graph.size,
        witness=witness,
        detail="fair-lasso analysis (adversarial fairness)",
    )


# ---------------------------------------------------------------------- #
# Top-level entry points
# ---------------------------------------------------------------------- #
def decide(
    automaton: DistributedAutomaton,
    graph: LabeledGraph,
    max_configurations: int = 200_000,
) -> DecisionReport:
    """Exactly decide an automaton on a graph, honouring its fairness class.

    Synchronous automata have a single permitted selection, so the two
    fairness notions coincide and the (deterministic) synchronous run decides.
    """
    if automaton.selection is SelectionMode.SYNCHRONOUS:
        return decide_pseudo_stochastic(
            automaton.machine,
            graph,
            SelectionMode.SYNCHRONOUS,
            max_configurations=max_configurations,
        )
    if automaton.automaton_class.fairness is Fairness.PSEUDO_STOCHASTIC:
        return decide_pseudo_stochastic(
            automaton.machine,
            graph,
            automaton.selection,
            max_configurations=max_configurations,
        )
    return decide_adversarial(
        automaton.machine,
        graph,
        automaton.selection,
        max_configurations=max_configurations,
    )


def decides_same(
    automaton: DistributedAutomaton,
    graphs: list[LabeledGraph],
    max_configurations: int = 200_000,
) -> bool:
    """Whether the automaton gives the same (consistent) verdict on all graphs.

    The workhorse of the indistinguishability experiments: e.g. a DAf
    automaton must give the same verdict on a graph and on any covering of
    it (Lemma 3.2).
    """
    verdicts = {
        decide(automaton, graph, max_configurations=max_configurations).verdict
        for graph in graphs
    }
    return len(verdicts) == 1 and Verdict.INCONSISTENT not in verdicts
