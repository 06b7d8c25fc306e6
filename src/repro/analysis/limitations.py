"""Limitation witnesses: the graph constructions behind the lower bounds of §3.

Each lemma of Section 3 is proved by exhibiting pairs of graphs that the
respective class cannot tell apart.  This module builds those witnesses so
the experiments can *check the indistinguishability empirically* on concrete
automata:

* :func:`halting_surgery_graph` — the Lemma 3.1 / Figure 3 construction:
  given two cyclic graphs ``G`` and ``H``, glue ``2g+1`` copies of ``G`` and
  ``2h+1`` copies of ``H`` into one connected graph in which the inner copies
  are locally indistinguishable from the originals for ``g`` (resp. ``h``)
  synchronous steps — so a halting automaton that accepted ``G`` and rejected
  ``H`` would produce contradictory verdicts on the glued graph.
* :func:`covering_pair` — a graph and a λ-fold covering of it (Lemma 3.2 /
  Corollary 3.3): DAf-automata give the same verdict on both, hence decide
  only properties invariant under scalar multiplication.
* :func:`clique_cutoff_pair` — two cliques whose label counts agree after the
  cutoff at β+1 (Lemma 3.4): a DAf-automaton with counting bound β cannot
  distinguish them (their synchronous runs proceed in lock-step).
* :func:`star_pair` — two stars whose label counts agree after a cutoff
  (Lemma 3.5): the witness family for the dAF upper bound.
* :func:`line_extension_pair` — a labelled line and the same line with one
  node duplicated at the far end (Proposition D.1): synchronous runs of
  non-counting machines keep the duplicate in lock-step with its twin, which
  pins dAf to Cutoff(1) even on bounded-degree graphs.

The checking helpers run the synchronous traces used in the corresponding
proofs and report whether lock-step really holds for a given machine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.coverings import cycle_lift, is_covering_map
from repro.core.graphs import LabeledGraph, Node, clique_from_count, cycle_graph, line_graph
from repro.core.labels import Alphabet, Label, LabelCount
from repro.core.machine import DistributedMachine
from repro.core.configuration import synchronous_trace


# ---------------------------------------------------------------------- #
# Lemma 3.1 / Figure 3 — the halting surgery
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SurgeryResult:
    """The glued graph plus bookkeeping about where the copies live."""

    graph: LabeledGraph
    copies_of_first: int
    copies_of_second: int
    inner_first_nodes: tuple[Node, ...]
    inner_second_nodes: tuple[Node, ...]


def _cycle_edge(graph: LabeledGraph) -> tuple[Node, Node]:
    """An edge lying on a cycle of the graph (any edge whose removal keeps it connected)."""
    for u, v in graph.edge_pairs():
        reduced = LabeledGraph(
            graph.alphabet,
            graph.labels,
            frozenset(e for e in graph.edges if e != frozenset((u, v))),
            name="reduced",
        )
        if reduced.is_connected():
            return u, v
    raise ValueError("graph has no cycle edge (it is a tree)")


def halting_surgery_graph(
    first: LabeledGraph, second: LabeledGraph, rounds_first: int, rounds_second: int
) -> SurgeryResult:
    """The Figure 3 construction gluing ``2g+1`` copies of ``first`` and ``2h+1`` of ``second``.

    ``rounds_first`` / ``rounds_second`` play the role of ``g`` and ``h`` (the
    halting times); the middle copy of each block is at graph distance more
    than ``g`` (resp. ``h``) from every cut point, so its nodes behave exactly
    as in the original graph for that many synchronous steps.
    """
    if not first.has_cycle() or not second.has_cycle():
        raise ValueError("both graphs must contain a cycle (Lemma 3.1)")
    if first.alphabet != second.alphabet:
        raise ValueError("graphs must share an alphabet")
    copies_first = 2 * rounds_first + 1
    copies_second = 2 * rounds_second + 1
    ug, vg = _cycle_edge(first)
    uh, vh = _cycle_edge(second)

    labels: list[Label] = []
    edges: list[tuple[Node, Node]] = []
    offsets_first: list[int] = []
    offsets_second: list[int] = []
    offset = 0
    for _ in range(copies_first):
        offsets_first.append(offset)
        labels.extend(first.labels)
        for a, b in first.edge_pairs():
            if (a, b) == tuple(sorted((ug, vg))):
                continue  # the removed cycle edge
            edges.append((offset + a, offset + b))
        offset += first.num_nodes
    for _ in range(copies_second):
        offsets_second.append(offset)
        labels.extend(second.labels)
        for a, b in second.edge_pairs():
            if (a, b) == tuple(sorted((uh, vh))):
                continue
            edges.append((offset + a, offset + b))
        offset += second.num_nodes
    # Chain the copies: v_G^i — u_G^{i+1}, then v_G^{last} — u_H^0, then the H chain,
    # and finally close the ring back to u_G^0 so the graph stays connected and
    # every node keeps the degree it had in its original graph.
    for index in range(copies_first - 1):
        edges.append((offsets_first[index] + vg, offsets_first[index + 1] + ug))
    edges.append((offsets_first[-1] + vg, offsets_second[0] + uh))
    for index in range(copies_second - 1):
        edges.append((offsets_second[index] + vh, offsets_second[index + 1] + uh))
    edges.append((offsets_second[-1] + vh, offsets_first[0] + ug))

    glued = LabeledGraph.build(
        first.alphabet, labels, edges, name=f"surgery({first.name},{second.name})"
    )
    middle_first = offsets_first[rounds_first]
    middle_second = offsets_second[rounds_second]
    return SurgeryResult(
        graph=glued,
        copies_of_first=copies_first,
        copies_of_second=copies_second,
        inner_first_nodes=tuple(middle_first + v for v in first.nodes()),
        inner_second_nodes=tuple(middle_second + v for v in second.nodes()),
    )


def surgery_lockstep_holds(
    machine: DistributedMachine,
    original: LabeledGraph,
    surgery: SurgeryResult,
    inner_nodes: tuple[Node, ...],
    steps: int,
) -> bool:
    """Check that the inner copy runs in lock-step with the original graph.

    This is the heart of the Lemma 3.1 argument: for ``steps`` synchronous
    rounds the nodes of the middle copy visit exactly the same states as
    their originals, so a halting automaton that has halted by then carries
    its original verdict into the glued graph.
    """
    original_trace = synchronous_trace(machine, original, steps)
    glued_trace = synchronous_trace(machine, surgery.graph, steps)
    for t in range(steps + 1):
        for local, global_node in enumerate(inner_nodes):
            if original_trace[t][local] != glued_trace[t][global_node]:
                return False
    return True


# ---------------------------------------------------------------------- #
# Lemma 3.2 / Corollary 3.3 — coverings
# ---------------------------------------------------------------------- #
def covering_pair(
    alphabet: Alphabet, base_labels: list[Label], factor: int
) -> tuple[LabeledGraph, LabeledGraph, dict[Node, Node]]:
    """A labelled cycle, its λ-fold covering cycle, and the covering map."""
    base, cover, mapping = cycle_lift(base_labels, factor, alphabet)
    if not is_covering_map(cover, base, mapping):
        raise AssertionError("cycle lift failed to produce a covering map")
    return base, cover, mapping


def covering_lockstep_holds(
    machine: DistributedMachine,
    base: LabeledGraph,
    cover: LabeledGraph,
    mapping: dict[Node, Node],
    steps: int,
) -> bool:
    """Check ``C_t(v) = C_t(f(v))`` along the synchronous runs (proof of Lemma 3.2)."""
    base_trace = synchronous_trace(machine, base, steps)
    cover_trace = synchronous_trace(machine, cover, steps)
    for t in range(steps + 1):
        for node in cover.nodes():
            if cover_trace[t][node] != base_trace[t][mapping[node]]:
                return False
    return True


# ---------------------------------------------------------------------- #
# Lemma 3.4 — cliques and the counting-bound cutoff
# ---------------------------------------------------------------------- #
def clique_cutoff_pair(
    first_count: LabelCount, second_count: LabelCount
) -> tuple[LabeledGraph, LabeledGraph]:
    """Two cliques with the given label counts (used with counts equal after cutoff β+1)."""
    return clique_from_count(first_count), clique_from_count(second_count)


def clique_state_counts_match(
    machine: DistributedMachine,
    first: LabeledGraph,
    second: LabeledGraph,
    steps: int,
    beta: int,
) -> bool:
    """Check that the per-state counts of the synchronous runs agree up to cutoff β+1.

    This is the induction invariant of the Lemma 3.4 proof.
    """
    first_trace = synchronous_trace(machine, first, steps)
    second_trace = synchronous_trace(machine, second, steps)
    for t in range(steps + 1):
        first_counts: dict[object, int] = {}
        second_counts: dict[object, int] = {}
        for state in first_trace[t]:
            first_counts[state] = first_counts.get(state, 0) + 1
        for state in second_trace[t]:
            second_counts[state] = second_counts.get(state, 0) + 1
        states = set(first_counts) | set(second_counts)
        for state in states:
            a = min(first_counts.get(state, 0), beta + 1)
            b = min(second_counts.get(state, 0), beta + 1)
            if a != b:
                return False
    return True


# ---------------------------------------------------------------------- #
# Lemma 3.5 — stars
# ---------------------------------------------------------------------- #
def star_pair(
    alphabet: Alphabet, centre: Label, leaves_first: list[Label], leaves_second: list[Label]
) -> tuple[LabeledGraph, LabeledGraph]:
    """Two stars sharing the centre label, used in the dAF cutoff argument."""
    from repro.core.graphs import star_graph

    return (
        star_graph(alphabet, centre, leaves_first, name="star-1"),
        star_graph(alphabet, centre, leaves_second, name="star-2"),
    )


# ---------------------------------------------------------------------- #
# Proposition D.1 — the line extension argument for dAf on bounded degree
# ---------------------------------------------------------------------- #
def line_extension_pair(
    alphabet: Alphabet, labels: list[Label], extra_label: Label
) -> tuple[LabeledGraph, LabeledGraph]:
    """A labelled line and the same line with a duplicate of its first node.

    The extra node carries ``extra_label`` (which must equal the label of the
    first node for the lock-step argument) and is attached to the second
    node, exactly as in the proof of Proposition D.1.
    """
    if labels[0] != extra_label:
        raise ValueError("the duplicated node must carry the same label as the line's end")
    line = line_graph(alphabet, labels, name="line")
    extended_labels = list(labels) + [extra_label]
    edges = [(i, i + 1) for i in range(len(labels) - 1)]
    edges.append((len(labels), 1))
    extended = LabeledGraph.build(alphabet, extended_labels, edges, name="line+dup")
    return line, extended


def line_extension_lockstep_holds(
    machine: DistributedMachine,
    line: LabeledGraph,
    extended: LabeledGraph,
    steps: int,
) -> bool:
    """Check the Proposition D.1 invariant on synchronous runs.

    Every original node of the line visits the same states in both graphs and
    the duplicated node stays in lock-step with the line's first node —
    provided the machine is non-counting (β = 1).
    """
    line_trace = synchronous_trace(machine, line, steps)
    extended_trace = synchronous_trace(machine, extended, steps)
    duplicate = extended.num_nodes - 1
    for t in range(steps + 1):
        for node in line.nodes():
            if line_trace[t][node] != extended_trace[t][node]:
                return False
        if extended_trace[t][duplicate] != line_trace[t][0]:
            return False
    return True
