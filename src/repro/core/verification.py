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

Configurations are stored as tuples of interned state ids over the shared
compiled table (:func:`~repro.core.compile.compile_machine`), numbered densely
in discovery order, so a decision leaves every reachable view memoised for the
compiled and per-node batch engines; states are decoded only for
:func:`explore` and witnesses.  Exclusive selection, the mode of every
asynchronous decision, is explored by one loop that resolves each node's
next id and numbers the successor it gives on the spot; the other selection
modes list a configuration's successors first and number them in the
generic :func:`_bfs`.  :func:`decide_by_bottom_sccs` serves models
with their own configurations: :class:`AtomicModel` (the weak-broadcast,
rendez-vous and strong-broadcast models) and
:meth:`~repro.population.protocol.PopulationProtocol.decide`.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Hashable, Iterable
from dataclasses import dataclass
from operator import itemgetter

from repro.core.automaton import DistributedAutomaton
from repro.core.compile import CompiledMachine, canonical_view_key, compile_machine
from repro.core.configuration import (
    Configuration,
    is_accepting_configuration,
    is_rejecting_configuration,
)
from repro.core.graphs import LabeledGraph
from repro.core.machine import DistributedMachine, Outputs
from repro.core.scheduler import Fairness, Selection, SelectionMode, permitted_selections
from repro.core.results import Verdict


class StateSpaceTooLarge(RuntimeError):
    """Raised when the reachable configuration space exceeds the exploration budget."""


@dataclass
class ConfigurationGraph:
    """The reachable configuration graph of a machine on a graph.

    ``successors[C]`` lists the distinct successor configurations of ``C``
    (over all permitted selections) in first-occurrence order;
    ``edge_selections[(C, D)]`` lists every selection inducing ``C → D``
    (needed by the fair-lasso search, which must know which nodes can be
    covered while traversing an edge).
    """

    initial: Configuration
    configurations: list[Configuration]
    successors: dict[Configuration, tuple[Configuration, ...]]
    edge_selections: dict[tuple[Configuration, Configuration], tuple[Selection, ...]]

    @property
    def size(self) -> int:
        return len(self.configurations)


def _bfs(
    initial: Hashable,
    successors: Callable[[Hashable], Iterable[Hashable]],
    max_configurations: int,
) -> tuple[list, list[tuple[int, ...]]]:
    """Breadth-first search; returns the configurations in discovery order
    and, per configuration, the indices of its successors in yield order."""
    if max_configurations < 1:
        raise ValueError("max_configurations must be at least 1")
    index = {initial: 0}
    configurations = [initial]
    edges: list[tuple[int, ...]] = []
    while len(edges) < len(configurations):
        row = []
        for nxt in successors(configurations[len(edges)]):
            target = index.get(nxt)
            if target is None:
                target = index[nxt] = len(configurations)
                configurations.append(nxt)
                if target >= max_configurations:
                    raise StateSpaceTooLarge(
                        f"more than {max_configurations} reachable configurations"
                    )
            row.append(target)
        edges.append(tuple(row))
    return configurations, edges


@dataclass
class _IdGraph:
    """A configuration graph on interned ids; ``selections[i][k]`` lists the
    selections inducing the edge to the ``k``-th successor of ``i`` (kept
    only on request)."""

    compiled: CompiledMachine
    configurations: list[tuple[int, ...]]
    successors: list[tuple[int, ...]]
    selections: list[list[tuple[Selection, ...]]]

    def decode(self, configuration: tuple[int, ...]) -> Configuration:
        return tuple(map(self.compiled._states.__getitem__, configuration))

    def flagged(self, accepting: bool) -> list[bool]:
        """Per configuration: every node accepting (or rejecting)."""
        flags = self.compiled._accepting if accepting else self.compiled._rejecting
        return [all(map(flags.__getitem__, c)) for c in self.configurations]


def _explore_ids(
    machine: DistributedMachine,
    graph: LabeledGraph,
    selection_mode: SelectionMode,
    max_configurations: int,
    keep_selections: bool,
    start: Configuration | None = None,
) -> _IdGraph:
    """Breadth-first exploration on interned ids through the compiled δ table.

    Configurations are expanded in discovery order and their nodes resolved
    in node order, so δ is evaluated and states are interned in the same
    order whatever the selection mode.  Exclusive mode runs its own loop:
    two moving nodes never give the same successor and every idle node
    gives the configuration itself, so each successor is numbered as its
    node resolves, without grouping.  The other modes group the selections
    by the successor they induce and go through :func:`_bfs`.
    """
    compiled = compile_machine(machine)
    selections = permitted_selections(graph, selection_mode)
    exclusive = selection_mode is SelectionMode.EXCLUSIVE
    nodes = graph.nodes()
    beta = compiled.beta
    table = compiled._table  # hit path inlined below; misses go via step_id
    step_id = compiled.step_id
    kept: list[list[tuple[Selection, ...]]] = []
    lookups = [0, 0]  # all lookups, misses; flushed once via record_lookups

    # Two per-exploration memos of the next id.  ``local`` is keyed by the
    # raw view (own id, own id, neighbour ids...): equal tuples have equal
    # views, and the own id is doubled so that the getter returns a tuple
    # even for an isolated node.  On a miss, ``multisets`` is keyed by
    # (own id, sorted neighbour ids), which catches views that differ only
    # in neighbour order before the canonical key is built.  The first view
    # with a given canonical key still reaches the table, so the lookup
    # counts flushed to ``record_lookups`` are those of one lookup per node
    # and configuration.
    local: dict[tuple[int, ...], int] = {}
    multisets: dict[tuple[int, ...], int] = {}
    views = [itemgetter(v, v, *graph.neighbors(v)) for v in nodes]

    def next_id(seen: tuple[int, ...]) -> int:
        neighbours = seen[2:]
        multiset = (seen[0], *sorted(neighbours))
        nxt = multisets.get(multiset)
        if nxt is None:
            counts: dict[int, int] = {}
            for q in neighbours:
                counts[q] = counts.get(q, 0) + 1
            key = canonical_view_key(len(neighbours), counts, beta)
            row = table.get(seen[0])
            nxt = row.get(key) if row is not None else None
            if nxt is None:
                lookups[1] += 1
                nxt = step_id(seen[0], key)
            multisets[multiset] = nxt
        local[seen] = nxt
        return nxt

    def successors(configuration: tuple[int, ...]) -> dict:
        after = []
        for v in nodes:
            seen = views[v](configuration)
            nxt = local.get(seen)
            if nxt is None:
                nxt = next_id(seen)
            after.append(nxt)
        lookups[0] += len(after)
        # Successor -> the selections inducing it, in first-occurrence order.
        induced: dict[tuple[int, ...], list[Selection]] = {}
        for selection in selections:
            updated = list(configuration)
            for v in selection:
                updated[v] = after[v]
            induced.setdefault(tuple(updated), []).append(selection)
        if keep_selections:
            kept.append([tuple(sels) for sels in induced.values()])
        return induced

    if start is None:
        initial = tuple(compiled.init_id(graph.label_of(v)) for v in nodes)
    else:
        initial = tuple(map(compiled.intern, start))
    try:
        if not exclusive:
            configurations, edges = _bfs(initial, successors, max_configurations)
        elif max_configurations < 1:
            raise ValueError("max_configurations must be at least 1")
        else:
            # _bfs fused with the exclusive successors.  A moving node v
            # gives C[:v] + (nxt,) + C[v+1:], which no other node gives; the
            # first idle node gives C itself, later idle nodes add nothing.
            # Every node resolves before a budget overflow is raised, so the
            # table sees whole configurations only.
            index = {initial: 0}
            configurations = [initial]
            edges = []
            local_get = local.get
            index_get = index.get
            numbered = list(enumerate(views))
            while len(edges) < len(configurations):
                current = len(edges)
                configuration = configurations[current]
                row = []
                idle = []
                for v, view in numbered:
                    seen = view(configuration)
                    nxt = local_get(seen)
                    if nxt is None:
                        nxt = next_id(seen)
                    if nxt == seen[0]:
                        if not idle:
                            row.append(current)
                        idle.append(v)
                        continue
                    moved = configuration[:v] + (nxt,) + configuration[v + 1:]
                    target = index_get(moved)
                    if target is None:
                        target = index[moved] = len(configurations)
                        configurations.append(moved)
                    row.append(target)
                lookups[0] += len(numbered)
                if len(configurations) > max_configurations:
                    raise StateSpaceTooLarge(
                        f"more than {max_configurations} reachable configurations"
                    )
                edges.append(tuple(row))
                if keep_selections:
                    # Every node before the first idle one moves, so C sits
                    # at that node's position.
                    chosen = [(selections[v],) for v in nodes if v not in idle]
                    if idle:
                        chosen.insert(idle[0], tuple(selections[v] for v in idle))
                    kept.append(chosen)
    finally:
        compiled.record_lookups(lookups[0] - lookups[1], lookups[1])
    return _IdGraph(compiled, configurations, edges, kept)


def explore(
    machine: DistributedMachine,
    graph: LabeledGraph,
    selection_mode: SelectionMode = SelectionMode.EXCLUSIVE,
    start: Configuration | None = None,
    max_configurations: int = 200_000,
) -> ConfigurationGraph:
    """Breadth-first exploration of the reachable configuration graph."""
    id_graph = _explore_ids(machine, graph, selection_mode, max_configurations, True, start)
    decoded = [id_graph.decode(c) for c in id_graph.configurations]
    successors: dict[Configuration, tuple[Configuration, ...]] = {}
    edge_selections: dict[tuple[Configuration, Configuration], tuple[Selection, ...]] = {}
    for configuration, row, sels in zip(decoded, id_graph.successors, id_graph.selections):
        successors[configuration] = tuple(decoded[j] for j in row)
        for nxt, selected in zip(successors[configuration], sels):
            edge_selections[(configuration, nxt)] = selected
    return ConfigurationGraph(decoded[0], decoded, successors, edge_selections)


# ---------------------------------------------------------------------- #
# Strongly connected components (iterative Tarjan over int indices)
# ---------------------------------------------------------------------- #
def _tarjan(successors: list[tuple[int, ...]]) -> tuple[list[list[int]], list[bool]]:
    """Tarjan's algorithm, iterative to avoid recursion limits.

    Roots are tried in index order; components come out in completion
    order, their members in stack-pop order.  Also returns, per component,
    whether it is closed (no edge leaves it): a node is marked when an edge
    reaches an already completed component, directly or through a finished
    child in its own component, so a component is closed iff its root is
    unmarked.
    """
    count = len(successors)
    indices = [-1] * count
    lowlinks = [0] * count
    on_stack = [False] * count
    exits = [False] * count
    stack: list[int] = []
    components: list[list[int]] = []
    closed: list[bool] = []
    counter = 0
    for root in range(count):
        if indices[root] >= 0:
            continue
        work: list = [(root, None)]
        while work:
            node, children = work[-1]
            if children is None:  # first visit
                indices[node] = lowlinks[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
                children = iter(successors[node])
                work[-1] = (node, children)
            for child in children:
                if indices[child] < 0:
                    work.append((child, None))
                    break
                if not on_stack[child]:
                    exits[node] = True
                elif indices[child] < lowlinks[node]:
                    lowlinks[node] = indices[child]
            else:
                work.pop()
                if lowlinks[node] == indices[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
                    closed.append(not exits[node])
                if work:
                    parent = work[-1][0]
                    if not on_stack[node] or exits[node]:
                        exits[parent] = True
                    if lowlinks[node] < lowlinks[parent]:
                        lowlinks[parent] = lowlinks[node]
    return components, closed


def _component_of(count: int, components: list[list[int]]) -> list[int]:
    owner = [0] * count
    for idx, component in enumerate(components):
        for member in component:
            owner[member] = idx
    return owner


def _bottoms(successors: list[tuple[int, ...]]) -> list[list[int]]:
    """The closed SCCs (no edge leaves them), in :func:`_tarjan` order;
    closedness comes from Tarjan's own pass, not a second pass over the
    edges."""
    components, closed = _tarjan(successors)
    return [component for component, ok in zip(components, closed) if ok]


def _indexed(config_graph: ConfigurationGraph) -> list[tuple[int, ...]]:
    index = {c: i for i, c in enumerate(config_graph.configurations)}
    return [
        tuple(index[nxt] for nxt in config_graph.successors[c])
        for c in config_graph.configurations
    ]


def strongly_connected_components(
    config_graph: ConfigurationGraph,
) -> list[list[Configuration]]:
    """Tarjan's algorithm, iterative to avoid recursion limits."""
    configurations = config_graph.configurations
    components, _ = _tarjan(_indexed(config_graph))
    return [[configurations[i] for i in c] for c in components]


def bottom_sccs(config_graph: ConfigurationGraph) -> list[list[Configuration]]:
    """SCCs with no edge leaving them (the possible ``Inf`` sets of fair F-runs)."""
    configurations = config_graph.configurations
    return [[configurations[i] for i in c] for c in _bottoms(_indexed(config_graph))]


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


def _verdict(all_accept: bool, all_reject: bool) -> Verdict:
    if all_accept == all_reject:
        return Verdict.INCONSISTENT
    return Verdict.ACCEPT if all_accept else Verdict.REJECT


def _bottom_scc_report(
    configurations: list,
    successors: list[tuple[int, ...]],
    is_accepting: Callable[[Hashable], bool],
    is_rejecting: Callable[[Hashable], bool],
) -> DecisionReport:
    """The bottom-SCC verdict; the witness is the first non-accepting bottom
    configuration met (``None`` if there is none)."""
    bottoms = _bottoms(successors)
    all_accepting = True
    all_rejecting = True
    witness = None
    for component in bottoms:
        for member in component:
            configuration = configurations[member]
            if not is_accepting(configuration):
                if all_accepting:
                    witness = configuration
                all_accepting = False
            if not is_rejecting(configuration):
                all_rejecting = False
    return DecisionReport(
        verdict=_verdict(all_accepting, all_rejecting),
        configuration_count=len(configurations),
        bottom_scc_count=len(bottoms),
        witness=witness,
        detail="bottom-SCC analysis (pseudo-stochastic fairness)",
    )


def decide_by_bottom_sccs(
    initial: Hashable,
    successors: Callable[[Hashable], Iterable[Hashable]],
    is_accepting: Callable[[Hashable], bool],
    is_rejecting: Callable[[Hashable], bool],
    max_configurations: int = 200_000,
) -> DecisionReport:
    """The verdict rule of :func:`decide_pseudo_stochastic` for any model.

    Explores breadth-first from ``initial`` through ``successors`` (raising
    :class:`StateSpaceTooLarge` beyond ``max_configurations``) and tests the
    bottom-SCC configurations with the per-configuration predicates.
    """
    configurations, edges = _bfs(initial, successors, max_configurations)
    return _bottom_scc_report(configurations, edges, is_accepting, is_rejecting)


class AtomicModel(Outputs):
    """An extended model run on per-node configurations of its own.

    Subclasses are dataclasses with ``init``, ``accepting`` and
    ``rejecting`` fields and a ``successors(graph, configuration)`` method
    listing the configurations one atomic step reaches — ``[configuration]``
    at a deadlock.  They decide by stable consensus, so the exact decision
    is :func:`decide_by_bottom_sccs` on that successor relation.
    """

    def initial_configuration(self, graph: LabeledGraph) -> Configuration:
        return tuple(self.init(graph.label_of(v)) for v in graph.nodes())

    def decide_pseudo_stochastic(
        self, graph: LabeledGraph, max_configurations: int = 100_000
    ) -> Verdict:
        """Exact decision under pseudo-stochastic fairness (bottom-SCC analysis)."""
        return decide_by_bottom_sccs(
            self.initial_configuration(graph),
            lambda c: self.successors(graph, c),
            lambda c: is_accepting_configuration(self, c),
            lambda c: is_rejecting_configuration(self, c),
            max_configurations,
        ).verdict


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
    id_graph = _explore_ids(machine, graph, selection_mode, max_configurations, False)
    accepting = id_graph.compiled._accepting
    rejecting = id_graph.compiled._rejecting
    report = _bottom_scc_report(
        id_graph.configurations,
        id_graph.successors,
        lambda c: all(map(accepting.__getitem__, c)),
        lambda c: all(map(rejecting.__getitem__, c)),
    )
    if report.witness is not None:
        report.witness = id_graph.decode(report.witness)
    return report


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
    the existence of an accepting fair run.  Such a configuration exists iff
    some bottom SCC is entirely accepting: the forward closure of a stably
    accepting configuration contains a bottom SCC, and every member of an
    accepting bottom SCC has that SCC as its forward closure.
    """
    id_graph = _explore_ids(machine, graph, selection_mode, max_configurations, False)
    good = id_graph.flagged(accepting)
    return any(
        all(good[member] for member in component)
        for component in _bottoms(id_graph.successors)
    )


# ---------------------------------------------------------------------- #
# Decision under adversarial fairness
# ---------------------------------------------------------------------- #
def _exists_fair_lasso(
    successors: list[tuple[int, ...]],
    edge_masks: list[list[tuple[int, ...]]],
    owner: list[int],
    sizes: list[int],
    all_nodes: int,
    anchors: list[int],
) -> int | None:
    """Is some ``anchor`` configuration on a cycle whose selections cover all nodes?

    Returns a witness anchor or ``None``.  The search runs, for every anchor,
    a BFS over pairs (configuration, bitmask of nodes covered so far) within
    the anchor's SCC (``owner`` maps configurations to SCCs, ``sizes`` SCCs
    to their sizes); ``edge_masks`` mirrors ``successors`` with the node
    bitmasks of the selections inducing each edge.
    """
    for anchor in anchors:
        home = owner[anchor]
        # A cycle through the anchor exists only if its SCC is non-trivial or
        # it has a self-loop.
        if sizes[home] == 1 and anchor not in successors[anchor]:
            continue
        start = (anchor, 0)
        seen = {start}
        queue = deque([start])
        while queue:
            configuration, covered = queue.popleft()
            for nxt, masks in zip(successors[configuration], edge_masks[configuration]):
                if owner[nxt] != home:
                    continue
                for mask in masks:
                    new_covered = covered | mask
                    if nxt == anchor and new_covered == all_nodes:
                        return anchor
                    state = (nxt, new_covered)
                    if state not in seen:
                        seen.add(state)
                        queue.append(state)
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
    id_graph = _explore_ids(machine, graph, selection_mode, max_configurations, True)
    successors = id_graph.successors
    components, _ = _tarjan(successors)
    owner = _component_of(len(successors), components)
    sizes = [len(component) for component in components]
    edge_masks = [
        [tuple(sum(1 << v for v in selection) for selection in sels) for sels in row]
        for row in id_graph.selections
    ]
    all_nodes = (1 << graph.num_nodes) - 1

    def lasso(accepting: bool) -> int | None:
        anchors = [i for i, good in enumerate(id_graph.flagged(accepting)) if not good]
        return _exists_fair_lasso(successors, edge_masks, owner, sizes, all_nodes, anchors)

    breaking_accept = lasso(accepting=True)
    breaking_reject = lasso(accepting=False)
    verdict = _verdict(breaking_accept is None, breaking_reject is None)
    breaking = breaking_accept if breaking_accept is not None else breaking_reject
    witness = None
    if verdict is Verdict.INCONSISTENT and breaking is not None:
        witness = id_graph.decode(id_graph.configurations[breaking])
    return DecisionReport(
        verdict=verdict,
        configuration_count=len(id_graph.configurations),
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
    if (
        automaton.selection is SelectionMode.SYNCHRONOUS
        or automaton.automaton_class.fairness is Fairness.PSEUDO_STOCHASTIC
    ):
        decider = decide_pseudo_stochastic
    else:
        decider = decide_adversarial
    return decider(
        automaton.machine, graph, automaton.selection, max_configurations=max_configurations
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
