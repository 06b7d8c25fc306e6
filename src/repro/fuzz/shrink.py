"""Greedy counterexample shrinking for failing fuzz triples.

Given a failing triple and a ``still_fails`` predicate (re-running the
oracle and asking whether the *same check* still fails), the shrinker walks
a fixed, deterministic candidate order and greedily accepts any strictly
smaller triple that still fails, restarting from the accepted candidate
until no candidate helps (or the attempt budget runs out).

Candidate moves, in order:

1. **graph** — the graph descriptor is first frozen into its explicit
   node/edge form, then: drop a node (keeping ≥ 3 nodes, connected), drop
   an edge (keeping connected);
2. **machine** — for table machines: drop a transition row, drop an unused
   state (and every row mentioning it); for matched construction terms:
   replace a boolean combinator with one of its children (shrinking the
   paired property in lockstep) or lower a threshold ``k``;
3. **property** — drop the property entirely (valid whenever the failing
   check is an engine-agreement check, which never looks at it).

All moves are pure descriptor surgery — no randomness — so a shrink run is
reproducible and the shrunk descriptor is exactly what lands in the replay
fixture.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from repro.fuzz.descriptors import explicit_graph_descriptor


def _connected(labels: list, edges: list) -> bool:
    if not labels:
        return False
    adjacency: dict[int, list[int]] = {i: [] for i in range(len(labels))}
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen = {0}
    frontier = [0]
    while frontier:
        node = frontier.pop()
        for neighbour in adjacency[node]:
            if neighbour not in seen:
                seen.add(neighbour)
                frontier.append(neighbour)
    return len(seen) == len(labels)


def _graph_candidates(graph: dict) -> Iterator[dict]:
    """Smaller explicit graphs: node drops first, then edge drops."""
    explicit = explicit_graph_descriptor(graph)
    labels, edges = explicit["labels"], explicit["edges"]
    n = len(labels)
    if n > 3:
        for victim in range(n):
            kept = [i for i in range(n) if i != victim]
            remap = {old: new for new, old in enumerate(kept)}
            new_edges = sorted(
                sorted((remap[u], remap[v]))
                for u, v in edges
                if u != victim and v != victim
            )
            new_labels = [labels[i] for i in kept]
            if _connected(new_labels, new_edges):
                yield {"kind": "explicit", "labels": new_labels, "edges": new_edges}
    for drop in range(len(edges)):
        new_edges = [edge for index, edge in enumerate(edges) if index != drop]
        if _connected(labels, new_edges):
            yield {"kind": "explicit", "labels": list(labels), "edges": new_edges}


def _table_machine_candidates(machine: dict) -> Iterator[dict]:
    """Smaller transition tables: row drops, then unused-state drops."""
    transitions = machine["transitions"]
    for drop in range(len(transitions)):
        smaller = dict(machine)
        smaller["transitions"] = [
            row for index, row in enumerate(transitions) if index != drop
        ]
        yield smaller
    protected = set(machine["init"].values())
    for victim in machine["states"]:
        if victim in protected:
            continue
        smaller = dict(machine)
        smaller["states"] = [s for s in machine["states"] if s != victim]
        smaller["accepting"] = [s for s in machine["accepting"] if s != victim]
        smaller["rejecting"] = [s for s in machine["rejecting"] if s != victim]
        smaller["transitions"] = [
            row
            for row in transitions
            if row[0] != victim
            and row[2] != victim
            and all(state != victim for state, _count in row[1])
        ]
        yield smaller


def _pair_candidates(machine: dict, prop: dict | None) -> Iterator[tuple[dict, dict | None]]:
    """Structurally smaller (machine, property) pairs, shrunk in lockstep."""
    kind = machine["kind"]
    if kind == "table":
        for smaller in _table_machine_candidates(machine):
            yield smaller, prop
        return
    if kind == "negation":
        child_prop = prop["child"] if prop is not None and prop.get("kind") == "not" else None
        yield machine["child"], child_prop
        return
    if kind in ("conjunction", "disjunction"):
        child_props: list = [None, None]
        if prop is not None and prop.get("kind") in ("and", "or"):
            child_props = list(prop["children"])
        for index, child in enumerate(machine["children"]):
            yield child, child_props[index]
        return
    if kind == "threshold-daf" and int(machine["k"]) > 1:
        smaller = dict(machine, k=int(machine["k"]) - 1)
        smaller_prop = prop
        if prop is not None and prop.get("kind") in ("at-least-k", "semilinear-threshold"):
            smaller_prop = dict(prop, k=int(prop["k"]) - 1)
        yield smaller, smaller_prop


def shrink_candidates(triple: dict) -> Iterator[dict]:
    """Every one-step-smaller triple, in the fixed deterministic order."""
    for graph in _graph_candidates(triple["graph"]):
        yield {
            "machine": triple["machine"],
            "graph": graph,
            "property": triple.get("property"),
        }
    for machine, prop in _pair_candidates(triple["machine"], triple.get("property")):
        yield {"machine": machine, "graph": triple["graph"], "property": prop}
    if triple.get("property") is not None:
        yield {
            "machine": triple["machine"],
            "graph": triple["graph"],
            "property": None,
        }


def shrink_triple(
    triple: dict,
    still_fails: Callable[[dict], bool],
    max_attempts: int = 200,
) -> tuple[dict, int]:
    """Greedily minimise a failing triple; returns ``(shrunk, attempts_used)``.

    ``still_fails`` must be side-effect free: it is called once per
    candidate, up to ``max_attempts`` times in total.  The input triple is
    assumed failing and is returned unchanged when nothing smaller fails.
    """
    current = {
        "machine": triple["machine"],
        "graph": explicit_graph_descriptor(triple["graph"]),
        "property": triple.get("property"),
    }
    # Freezing the graph to explicit form must preserve the failure; if it
    # does not (a family builder quirk), shrink the original instead.
    attempts = 0
    if current["graph"] != triple["graph"]:
        attempts += 1
        if not still_fails(current):
            current = dict(triple)
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        for candidate in shrink_candidates(current):
            if attempts >= max_attempts:
                break
            attempts += 1
            if still_fails(candidate):
                current = candidate
                improved = True
                break
    return current, attempts
