"""Labelled graphs and the graph families used throughout the paper.

A (Λ-labelled, undirected) graph is a triple ``G = (V, E, λ)`` with a finite
non-empty node set, undirected edges and a labelling ``λ : V → Λ``
(Section 2).  The paper's convention is that all graphs are connected and
have at least three nodes; :meth:`LabeledGraph.check_paper_convention`
enforces this where it matters (the constructors themselves allow smaller
graphs so that unit tests can probe edge cases).

Besides the data structure this module provides the generators used by the
proofs and the experiment harness:

* cycles, lines (paths), stars, cliques and grids labelled by a
  :class:`~repro.core.labels.LabelCount`;
* random connected graphs of bounded degree;
* the graph surgery of Lemma 3.1 (gluing copies of two cyclic graphs,
  Figure 3) lives in :mod:`repro.analysis.limitations`;
* covering graphs (λ-fold lifts of cycles) live in
  :mod:`repro.core.coverings`.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from repro.core.labels import Alphabet, Label, LabelCount

Node = int


def _check_labels(alphabet: Alphabet, labels: Sequence[Label]) -> None:
    for label in labels:
        if label not in alphabet:
            raise ValueError(f"label {label!r} not in alphabet {alphabet.labels}")


@dataclass(frozen=True)
class LabeledGraph:
    """An undirected, labelled graph with integer nodes ``0..n-1``.

    The adjacency structure is stored both as an edge set and as an
    adjacency list; the latter is what the simulation engine uses on every
    step, so it is precomputed once at construction time.
    """

    alphabet: Alphabet
    labels: tuple[Label, ...]
    edges: frozenset[frozenset[Node]]
    name: str = "graph"
    _adjacency: tuple[tuple[Node, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.labels)
        if n == 0:
            raise ValueError("graph must have at least one node")
        _check_labels(self.alphabet, self.labels)
        adjacency: list[set[Node]] = [set() for _ in range(n)]
        for edge in self.edges:
            endpoints = sorted(edge)
            if len(endpoints) != 2:
                raise ValueError(f"edge {edge} is not a pair of distinct nodes")
            u, v = endpoints
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {edge} references unknown nodes (n={n})")
            adjacency[u].add(v)
            adjacency[v].add(u)
        object.__setattr__(
            self, "_adjacency", tuple(tuple(sorted(neigh)) for neigh in adjacency)
        )

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        alphabet: Alphabet,
        labels: Sequence[Label],
        edges: Iterable[tuple[Node, Node]],
        name: str = "graph",
    ) -> "LabeledGraph":
        """Build a graph from a label sequence and ``(u, v)`` edge pairs."""
        edge_set = frozenset(frozenset((u, v)) for u, v in edges)
        return cls(alphabet, tuple(labels), edge_set, name)

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def nodes(self) -> range:
        return range(self.num_nodes)

    def label_of(self, node: Node) -> Label:
        return self.labels[node]

    def neighbors(self, node: Node) -> tuple[Node, ...]:
        """The neighbours of ``node`` (sorted, without ``node`` itself)."""
        return self._adjacency[node]

    def degree(self, node: Node) -> int:
        return len(self._adjacency[node])

    def max_degree(self) -> int:
        return max(self.degree(v) for v in self.nodes())

    def has_edge(self, u: Node, v: Node) -> bool:
        return frozenset((u, v)) in self.edges

    def edge_pairs(self) -> list[tuple[Node, Node]]:
        """Edges as sorted ``(u, v)`` pairs with ``u < v``."""
        return sorted(tuple(sorted(edge)) for edge in self.edges)

    def label_count(self) -> LabelCount:
        """The label count ``L_G`` of the graph (Definition A.1)."""
        return LabelCount.from_labels(self.alphabet, self.labels)

    # ------------------------------------------------------------------ #
    # Structural predicates
    # ------------------------------------------------------------------ #
    def is_connected(self) -> bool:
        if self.num_nodes == 0:
            return False
        seen = {0}
        frontier = [0]
        while frontier:
            node = frontier.pop()
            for neighbour in self.neighbors(node):
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return len(seen) == self.num_nodes

    def has_cycle(self) -> bool:
        """Whether the graph contains a cycle (needed by Lemma 3.1 witnesses)."""
        # For an undirected graph: acyclic (a forest) iff |E| = |V| - #components.
        components = self._num_components()
        return self.num_edges > self.num_nodes - components

    def is_degree_bounded(self, k: int) -> bool:
        """Whether every node has at most ``k`` neighbours."""
        return self.max_degree() <= k

    def is_clique(self) -> bool:
        """Whether every pair of distinct nodes is adjacent.

        Cliques are the substrate of classical population protocols and the
        one family where a configuration is fully described by its state
        counts: every node sees the same neighbourhood up to its own state.
        The count-based simulation backend keys off this predicate.
        """
        n = self.num_nodes
        return self.num_edges == n * (n - 1) // 2

    def check_paper_convention(self) -> None:
        """Enforce the paper's standing convention: connected, ≥ 3 nodes."""
        if self.num_nodes < 3:
            raise ValueError(
                f"paper convention requires at least 3 nodes, got {self.num_nodes}"
            )
        if not self.is_connected():
            raise ValueError("paper convention requires a connected graph")

    def _num_components(self) -> int:
        unseen = set(self.nodes())
        components = 0
        while unseen:
            components += 1
            start = next(iter(unseen))
            stack = [start]
            unseen.discard(start)
            while stack:
                node = stack.pop()
                for neighbour in self.neighbors(node):
                    if neighbour in unseen:
                        unseen.discard(neighbour)
                        stack.append(neighbour)
        return components

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #
    def relabel(self, new_labels: Sequence[Label], name: str | None = None) -> "LabeledGraph":
        """The same structure with a different labelling."""
        if len(new_labels) != self.num_nodes:
            raise ValueError("new labelling must cover every node")
        return LabeledGraph(
            self.alphabet, tuple(new_labels), self.edges, name or self.name
        )

    def __repr__(self) -> str:
        return (
            f"LabeledGraph(name={self.name!r}, n={self.num_nodes}, "
            f"m={self.num_edges}, labels={self.labels})"
        )


# ---------------------------------------------------------------------- #
# Implicit cliques (large populations)
# ---------------------------------------------------------------------- #
class ImplicitCliqueGraph:
    """A clique represented without materialising its ``n(n-1)/2`` edges.

    :class:`LabeledGraph` stores an explicit edge set, which caps cliques at
    a few thousand nodes (a 10⁴-node clique already has ~5·10⁷ edges).  This
    class implements the same read interface — ``nodes``, ``labels``,
    ``label_of``, ``neighbors``, ``degree``, ``is_clique`` … — with all
    adjacency answered implicitly, so the count-based simulation backend can
    run populations of 10⁴–10⁶ agents and the per-node backend can still walk
    the same instance (``neighbors`` builds the other-nodes tuple on demand).
    Build one with :func:`implicit_clique_graph` / :func:`clique_from_count`
    with ``implicit=True``.
    """

    def __init__(self, alphabet: Alphabet, labels: Sequence[Label], name: str = "clique"):
        if len(labels) == 0:
            raise ValueError("graph must have at least one node")
        for label in labels:
            if label not in alphabet:
                raise ValueError(f"label {label!r} not in alphabet {alphabet.labels}")
        self.alphabet = alphabet
        self.labels = tuple(labels)
        self.name = name

    @property
    def num_nodes(self) -> int:
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        n = self.num_nodes
        return n * (n - 1) // 2

    def nodes(self) -> range:
        return range(self.num_nodes)

    def label_of(self, node: Node) -> Label:
        return self.labels[node]

    def neighbors(self, node: Node) -> tuple[Node, ...]:
        return tuple(v for v in range(self.num_nodes) if v != node)

    def degree(self, node: Node) -> int:
        return self.num_nodes - 1

    def max_degree(self) -> int:
        return self.num_nodes - 1

    def has_edge(self, u: Node, v: Node) -> bool:
        n = self.num_nodes
        return u != v and 0 <= u < n and 0 <= v < n

    def label_count(self) -> LabelCount:
        return LabelCount.from_labels(self.alphabet, self.labels)

    def is_connected(self) -> bool:
        return True

    def has_cycle(self) -> bool:
        return self.num_nodes >= 3

    def is_degree_bounded(self, k: int) -> bool:
        return self.num_nodes - 1 <= k

    def is_clique(self) -> bool:
        return True

    def check_paper_convention(self) -> None:
        if self.num_nodes < 3:
            raise ValueError(
                f"paper convention requires at least 3 nodes, got {self.num_nodes}"
            )

    def materialise(self) -> "LabeledGraph":
        """The equivalent explicit :class:`LabeledGraph` (small cliques only)."""
        return clique_graph(self.alphabet, self.labels, self.name)

    def __repr__(self) -> str:
        return (
            f"ImplicitCliqueGraph(name={self.name!r}, n={self.num_nodes}, "
            f"labels={self.label_count().as_dict()})"
        )


def implicit_clique_graph(
    alphabet: Alphabet, labels: Sequence[Label], name: str = "clique"
) -> ImplicitCliqueGraph:
    """A clique on the given labels without materialised edges (any size)."""
    return ImplicitCliqueGraph(alphabet, labels, name)


# ---------------------------------------------------------------------- #
# Generators
# ---------------------------------------------------------------------- #
def _labels_from_count(count: LabelCount) -> list[Label]:
    return count.to_label_sequence()


def cycle_graph(alphabet: Alphabet, labels: Sequence[Label], name: str = "cycle") -> LabeledGraph:
    """A cycle with the given label sequence in order around the cycle."""
    n = len(labels)
    if n < 3:
        raise ValueError("a cycle needs at least 3 nodes")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return LabeledGraph.build(alphabet, labels, edges, name)


def line_graph(alphabet: Alphabet, labels: Sequence[Label], name: str = "line") -> LabeledGraph:
    """A path (line) with the given label sequence from one end to the other."""
    n = len(labels)
    if n < 1:
        raise ValueError("a line needs at least 1 node")
    edges = [(i, i + 1) for i in range(n - 1)]
    return LabeledGraph.build(alphabet, labels, edges, name)


def star_graph(
    alphabet: Alphabet,
    centre_label: Label,
    leaf_labels: Sequence[Label],
    name: str = "star",
) -> LabeledGraph:
    """A star: node 0 is the centre, nodes 1..k the leaves (used by Lemma 3.5)."""
    if len(leaf_labels) < 1:
        raise ValueError("a star needs at least one leaf")
    labels = [centre_label, *leaf_labels]
    edges = [(0, i) for i in range(1, len(labels))]
    return LabeledGraph.build(alphabet, labels, edges, name)


def clique_graph(alphabet: Alphabet, labels: Sequence[Label], name: str = "clique") -> LabeledGraph:
    """A complete graph on the given labels (the canonical graph for labelling properties)."""
    n = len(labels)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return LabeledGraph.build(alphabet, labels, edges, name)


def grid_graph(
    alphabet: Alphabet,
    rows: int,
    cols: int,
    labels: Sequence[Label],
    name: str = "grid",
) -> LabeledGraph:
    """A rows × cols grid (degree ≤ 4), labelled row by row."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    if len(labels) != rows * cols:
        raise ValueError(f"need {rows * cols} labels, got {len(labels)}")
    edges: list[tuple[Node, Node]] = []
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                edges.append((node, node + 1))
            if r + 1 < rows:
                edges.append((node, node + cols))
    return LabeledGraph.build(alphabet, labels, edges, name)


def cycle_from_count(count: LabelCount, name: str = "cycle") -> LabeledGraph:
    """A cycle whose label count is exactly ``count`` (labels in alphabet order)."""
    return cycle_graph(count.alphabet, _labels_from_count(count), name)


def line_from_count(count: LabelCount, name: str = "line") -> LabeledGraph:
    """A line whose label count is exactly ``count``."""
    return line_graph(count.alphabet, _labels_from_count(count), name)


def clique_from_count(
    count: LabelCount, name: str = "clique", implicit: bool = False
) -> "LabeledGraph | ImplicitCliqueGraph":
    """The (unique up to isomorphism) clique with label count ``count``.

    With ``implicit=True`` the edges are never materialised
    (:class:`ImplicitCliqueGraph`), which is the only feasible representation
    beyond a few thousand nodes.
    """
    labels = _labels_from_count(count)
    if implicit:
        return implicit_clique_graph(count.alphabet, labels, name)
    return clique_graph(count.alphabet, labels, name)


def star_from_count(count: LabelCount, name: str = "star") -> LabeledGraph:
    """A star whose label count is exactly ``count``; the centre takes the first label."""
    labels = _labels_from_count(count)
    if len(labels) < 2:
        raise ValueError("a star needs at least two nodes")
    return star_graph(count.alphabet, labels[0], labels[1:], name)


def random_connected_graph(
    alphabet: Alphabet,
    labels: Sequence[Label],
    max_degree: int,
    extra_edge_probability: float = 0.3,
    seed: int = 0,
    name: str = "random",
) -> LabeledGraph:
    """A random connected graph with the given labels and degree bound.

    The construction starts from a random spanning tree (guaranteeing
    connectivity) and then adds extra edges while respecting the degree
    bound.  The label *positions* are shuffled so that the structure does
    not correlate with the labelling.
    """
    if max_degree < 2:
        raise ValueError("max_degree must be at least 2 to connect 3+ nodes")
    rng = random.Random(seed)
    n = len(labels)
    order = list(range(n))
    rng.shuffle(order)
    degree = [0] * n
    edges: list[tuple[Node, Node]] = []
    # Random spanning tree: attach each new node to a random earlier node
    # that still has spare degree.
    for position in range(1, n):
        node = order[position]
        candidates = [u for u in order[:position] if degree[u] < max_degree]
        if not candidates:
            # Fall back to a path attachment; only possible if max_degree >= 2.
            candidates = [order[position - 1]]
        parent = rng.choice(candidates)
        edges.append((parent, node))
        degree[parent] += 1
        degree[node] += 1
    # Extra edges.
    for u in range(n):
        for v in range(u + 1, n):
            if degree[u] < max_degree and degree[v] < max_degree:
                if (u, v) not in edges and (v, u) not in edges:
                    if rng.random() < extra_edge_probability:
                        edges.append((u, v))
                        degree[u] += 1
                        degree[v] += 1
    shuffled_labels = list(labels)
    rng.shuffle(shuffled_labels)
    return LabeledGraph.build(alphabet, shuffled_labels, edges, name)


def _components(n: int, edges: Iterable[tuple[Node, Node]]) -> list[list[Node]]:
    """The connected components of ``0..n-1`` under ``edges``.

    Each component lists its nodes in increasing order, and the components
    come in the order of their smallest nodes.
    """
    parent = list(range(n))

    def find(x: Node) -> Node:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    components: dict[Node, list[Node]] = {}
    for node in range(n):
        components.setdefault(find(node), []).append(node)
    return list(components.values())


def _connect_components(
    rng: random.Random, n: int, edges: list[tuple[Node, Node]]
) -> list[tuple[Node, Node]]:
    """``edges`` plus the fewest extra edges needed to connect ``0..n-1``.

    Random families like G(n, p) and rewired ring lattices can come out
    disconnected; the paper convention requires connected graphs, so the
    generators repair the sample instead of rejecting it (rejection sampling
    has unbounded running time at low densities).  One random representative
    of each extra component is joined to a random node of the first
    component, which preserves the family's local structure everywhere else.
    """
    anchor, *others = _components(n, edges)
    repaired = list(edges)
    for component in others:
        repaired.append((rng.choice(anchor), rng.choice(component)))
    return repaired


def erdos_renyi_graph(
    alphabet: Alphabet,
    labels: Sequence[Label],
    edge_probability: float = 0.5,
    seed: int = 0,
    name: str = "erdos-renyi",
) -> LabeledGraph:
    """A connected Erdős–Rényi graph ``G(n, p)`` with the given labels.

    Each of the ``n(n-1)/2`` possible edges is included independently with
    ``edge_probability``; if the sample is disconnected it is repaired by
    :func:`_connect_components`.  Label positions are shuffled, as in
    :func:`random_connected_graph`.
    """
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError("edge_probability must be in [0, 1]")
    rng = random.Random(seed)
    n = len(labels)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < edge_probability
    ]
    edges = _connect_components(rng, n, edges)
    shuffled_labels = list(labels)
    rng.shuffle(shuffled_labels)
    return LabeledGraph.build(alphabet, shuffled_labels, edges, name)


def barabasi_albert_graph(
    alphabet: Alphabet,
    labels: Sequence[Label],
    attachment: int = 2,
    seed: int = 0,
    name: str = "barabasi-albert",
) -> LabeledGraph:
    """A Barabási–Albert preferential-attachment graph (connected by construction).

    Starts from a clique on ``attachment + 1`` nodes; every further node
    attaches to ``attachment`` distinct existing nodes chosen with
    probability proportional to their current degree (sampled from the
    standard repeated-endpoints urn).  Produces the scale-free degree
    distributions the bounded-degree results contrast with.
    """
    n = len(labels)
    if attachment < 1:
        raise ValueError("attachment must be at least 1")
    if n < attachment + 1:
        raise ValueError("need at least attachment + 1 nodes")
    rng = random.Random(seed)
    core = attachment + 1
    edges = [(u, v) for u in range(core) for v in range(u + 1, core)]
    urn: list[Node] = [endpoint for edge in edges for endpoint in edge]
    for node in range(core, n):
        targets: set[Node] = set()
        while len(targets) < attachment:
            targets.add(rng.choice(urn))
        for target in sorted(targets):
            edges.append((target, node))
            urn.extend((target, node))
    shuffled_labels = list(labels)
    rng.shuffle(shuffled_labels)
    return LabeledGraph.build(alphabet, shuffled_labels, edges, name)


def random_regular_graph(
    alphabet: Alphabet,
    labels: Sequence[Label],
    degree: int = 3,
    seed: int = 0,
    name: str = "random-regular",
    max_attempts: int = 1000,
) -> LabeledGraph:
    """A uniformly random connected ``degree``-regular graph (pairing model).

    Repeatedly shuffles the ``n · degree`` half-edge stubs into a perfect
    matching and keeps the first sample that is simple (no loops or parallel
    edges) and connected.  ``n · degree`` must be even and ``degree < n``.
    Regular graphs are the cleanest stress test for degree-based arguments:
    every node sees exactly ``degree`` neighbours.
    """
    n = len(labels)
    if degree < 2:
        raise ValueError("degree must be at least 2 to connect 3+ nodes")
    if degree >= n:
        raise ValueError("degree must be smaller than the node count")
    if (n * degree) % 2 != 0:
        raise ValueError("n * degree must be even (handshake lemma)")
    _check_labels(alphabet, labels)
    rng = random.Random(seed)
    stubs = [node for node in range(n) for _ in range(degree)]
    for _ in range(max_attempts):
        rng.shuffle(stubs)
        pairs = _simple_pairing(stubs)
        if pairs is not None and len(_components(n, pairs)) == 1:
            shuffled_labels = list(labels)
            rng.shuffle(shuffled_labels)
            return LabeledGraph.build(alphabet, shuffled_labels, pairs, name)
    raise ValueError(
        f"no simple connected {degree}-regular graph on {n} nodes found "
        f"in {max_attempts} pairing attempts"
    )


def _simple_pairing(stubs: list[Node]) -> set[tuple[Node, Node]] | None:
    """The ``(u, v)``, ``u < v`` pairs of consecutive stubs, or ``None`` at the
    first self-loop or repeated pair."""
    pairs: set[tuple[Node, Node]] = set()
    for u, v in zip(stubs[::2], stubs[1::2]):
        if u < v:
            pair = (u, v)
        elif v < u:
            pair = (v, u)
        else:
            return None
        if pair in pairs:
            return None
        pairs.add(pair)
    return pairs


def watts_strogatz_graph(
    alphabet: Alphabet,
    labels: Sequence[Label],
    neighbours: int = 2,
    rewire_probability: float = 0.1,
    seed: int = 0,
    name: str = "watts-strogatz",
) -> LabeledGraph:
    """A connected Watts–Strogatz small-world graph.

    Starts from a ring lattice where every node is joined to its
    ``neighbours // 2`` nearest nodes on each side, then rewires the far
    endpoint of each lattice edge with ``rewire_probability`` (skipping
    rewirings that would create loops or parallel edges).  Rewiring can
    disconnect the ring, so the sample is repaired by
    :func:`_connect_components`.
    """
    n = len(labels)
    if neighbours < 2 or neighbours % 2 != 0:
        raise ValueError("neighbours must be a positive even number")
    if neighbours >= n:
        raise ValueError("neighbours must be smaller than the node count")
    if not 0.0 <= rewire_probability <= 1.0:
        raise ValueError("rewire_probability must be in [0, 1]")
    rng = random.Random(seed)
    edge_set: set[tuple[Node, Node]] = set()
    for node in range(n):
        for offset in range(1, neighbours // 2 + 1):
            other = (node + offset) % n
            edge_set.add((node, other) if node < other else (other, node))
    for edge in sorted(edge_set):
        if rng.random() >= rewire_probability:
            continue
        u, _v = edge
        # Every w != u in increasing order, keyed as the (min, max) pair.
        candidates = [w for w in range(u) if (w, u) not in edge_set]
        candidates += [w for w in range(u + 1, n) if (u, w) not in edge_set]
        if not candidates:
            continue
        edge_set.remove(edge)
        w = rng.choice(candidates)
        edge_set.add((u, w) if u < w else (w, u))
    edges = _connect_components(rng, n, sorted(edge_set))
    shuffled_labels = list(labels)
    rng.shuffle(shuffled_labels)
    return LabeledGraph.build(alphabet, shuffled_labels, edges, name)


def ring_of_cliques(
    alphabet: Alphabet,
    clique_sizes: Sequence[int],
    labels: Sequence[Label],
    name: str = "ring-of-cliques",
) -> LabeledGraph:
    """Cliques arranged in a ring, joined by single edges.

    A convenient family with tunable degree used in the bounded-degree
    experiments: the maximum degree is ``max(clique_sizes)``.
    """
    total = sum(clique_sizes)
    if total != len(labels):
        raise ValueError("label count must match total clique size")
    if len(clique_sizes) < 2:
        raise ValueError("need at least two cliques")
    edges: list[tuple[Node, Node]] = []
    offsets: list[int] = []
    offset = 0
    for size in clique_sizes:
        offsets.append(offset)
        for i in range(size):
            for j in range(i + 1, size):
                edges.append((offset + i, offset + j))
        offset += size
    for index in range(len(clique_sizes)):
        nxt = (index + 1) % len(clique_sizes)
        edges.append((offsets[index], offsets[nxt]))
    return LabeledGraph.build(alphabet, labels, edges, name)


def standard_families(
    count: LabelCount, include_star: bool = True
) -> list[LabeledGraph]:
    """The standard graph family for a label count: cycle, line, clique (and star).

    Used when verifying that a construction decides a *labelling* property —
    the answer must agree on every member of the family.
    """
    graphs = [cycle_from_count(count), line_from_count(count), clique_from_count(count)]
    if include_star and count.total() >= 2:
        graphs.append(star_from_count(count))
    return [g for g in graphs if g.num_nodes >= 3]
