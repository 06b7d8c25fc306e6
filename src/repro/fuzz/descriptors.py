"""Plain-JSON descriptors for fuzz triples, and the builders that realise them.

The fuzzer never passes live Python objects around: every sampled
``(machine, graph, property)`` triple is a nested dict of JSON scalars — the
*descriptor* — and :func:`build_triple` deterministically reconstructs the
runnable objects from it.  This is what makes counterexamples replayable:
a shrunk descriptor checked into ``tests/fixtures/fuzz/`` rebuilds the exact
failing instance on any machine, with no pickles involved.

The grammar (documented in ``docs/fuzzing.md``):

* **graph** — ``{"kind": "family", "family": ..., "labels": [...],
  "seed": ..., "params": {...}}`` for the registered graph families, or
  ``{"kind": "explicit", "labels": [...], "edges": [[u, v], ...]}`` for the
  shrinker's literal form;
* **machine** — ``{"kind": "table", ...}`` for random β-capped transition
  tables (realised via :func:`repro.core.machine.table_machine`) or a
  ``constructions/`` term: ``exists-label``, ``threshold-daf``, ``support``,
  ``nl-exists``, and the boolean combinators ``negation`` / ``conjunction``
  / ``disjunction`` over child machine descriptors;
* **property** — a ``properties/`` term mirroring the machine grammar:
  ``exists``, ``at-least-k``, ``semilinear-threshold``, ``parity``,
  ``majority``, ``cutoff1`` and the boolean combinators, or ``null`` when
  the machine has no declared ground truth (random tables).

Everything is over the catalog alphabet ``{a, b}``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.core.graphs import (
    LabeledGraph,
    barabasi_albert_graph,
    clique_graph,
    cycle_graph,
    erdos_renyi_graph,
    line_graph,
    random_connected_graph,
    random_regular_graph,
    star_graph,
    watts_strogatz_graph,
)
from repro.core.labels import Alphabet, LabelCount
from repro.core.machine import DistributedMachine, table_machine
from repro.properties.base import LabellingProperty, property_from_function
from repro.properties.presburger import threshold_semilinear
from repro.properties.threshold import (
    at_least_k_property,
    exists_label_property,
    majority_property,
    parity_property,
)

#: The alphabet every fuzzed triple runs over (the catalog alphabet).
ALPHABET = Alphabet.of("a", "b")


# --------------------------------------------------------------------- #
# Graphs
# --------------------------------------------------------------------- #
def build_graph(desc: Mapping) -> LabeledGraph:
    """Realise a graph descriptor into a :class:`LabeledGraph`."""
    kind = desc["kind"]
    if kind == "explicit":
        return LabeledGraph.build(
            ALPHABET,
            list(desc["labels"]),
            [tuple(edge) for edge in desc["edges"]],
            desc.get("name", "explicit"),
        )
    if kind != "family":
        raise ValueError(f"unknown graph descriptor kind {kind!r}")
    family = desc["family"]
    labels = list(desc["labels"])
    seed = int(desc.get("seed", 0))
    params = dict(desc.get("params", {}))
    if family == "cycle":
        return cycle_graph(ALPHABET, labels)
    if family == "line":
        return line_graph(ALPHABET, labels)
    if family == "clique":
        return clique_graph(ALPHABET, labels)
    if family == "star":
        return star_graph(ALPHABET, labels[0], labels[1:])
    if family == "random":
        return random_connected_graph(
            ALPHABET, labels, max_degree=int(params.get("max_degree", 3)), seed=seed
        )
    if family == "erdos-renyi":
        return erdos_renyi_graph(
            ALPHABET,
            labels,
            edge_probability=float(params.get("edge_probability", 0.5)),
            seed=seed,
        )
    if family == "barabasi-albert":
        return barabasi_albert_graph(
            ALPHABET, labels, attachment=int(params.get("attachment", 2)), seed=seed
        )
    if family == "random-regular":
        return random_regular_graph(
            ALPHABET, labels, degree=int(params.get("degree", 2)), seed=seed
        )
    if family == "watts-strogatz":
        return watts_strogatz_graph(
            ALPHABET,
            labels,
            neighbours=int(params.get("neighbours", 2)),
            rewire_probability=float(params.get("rewire_probability", 0.1)),
            seed=seed,
        )
    raise ValueError(f"unknown graph family {family!r}")


def explicit_graph_descriptor(desc: Mapping) -> dict:
    """The literal (node/edge) form of any graph descriptor.

    Family descriptors are realised once and frozen into their concrete
    labels and edge list, which is the form the shrinker mutates.
    """
    if desc["kind"] == "explicit":
        return {
            "kind": "explicit",
            "labels": list(desc["labels"]),
            "edges": [sorted(edge) for edge in desc["edges"]],
        }
    graph = build_graph(desc)
    return {
        "kind": "explicit",
        "labels": list(graph.labels),
        "edges": sorted(sorted(pair) for pair in graph.edge_pairs()),
    }


# --------------------------------------------------------------------- #
# Machines
# --------------------------------------------------------------------- #
def _items_key(items: Sequence) -> tuple:
    """Normalise a descriptor's neighbourhood-items list to the runtime key.

    :meth:`repro.core.machine.Neighborhood.items` returns the capped counts
    sorted by ``repr``; transition-table keys must use the identical order.
    """
    return tuple(sorted(((str(s), int(c)) for s, c in items), key=repr))


def build_machine(desc: Mapping) -> DistributedMachine:
    """Realise a machine descriptor into a :class:`DistributedMachine`."""
    kind = desc["kind"]
    if kind == "table":
        transitions = {
            (str(state), _items_key(items)): str(target)
            for state, items, target in desc["transitions"]
        }
        return table_machine(
            ALPHABET,
            beta=int(desc["beta"]),
            init={str(k): str(v) for k, v in desc["init"].items()},
            transitions=transitions,
            accepting=[str(s) for s in desc["accepting"]],
            rejecting=[str(s) for s in desc["rejecting"]],
            states=[str(s) for s in desc["states"]],
            name=desc.get("name", "fuzz-table"),
        )
    if kind == "exists-label":
        from repro.constructions import exists_label_machine

        return exists_label_machine(ALPHABET, desc["label"])
    if kind == "threshold-daf":
        from repro.constructions import threshold_daf_machine

        return threshold_daf_machine(ALPHABET, desc["label"], int(desc["k"]))
    if kind == "support":
        from repro.constructions import support_automaton

        return support_automaton(build_property(desc["property"])).machine
    if kind == "nl-exists":
        from repro.constructions import nl_daf_machine
        from repro.constructions.strong_broadcast import exists_broadcast_protocol

        return nl_daf_machine(exists_broadcast_protocol(ALPHABET, desc["label"]))
    if kind == "negation":
        from repro.constructions import negate_machine

        return negate_machine(build_machine(desc["child"]))
    if kind in ("conjunction", "disjunction"):
        from repro.constructions.boolean import _and, _or, product_machine

        first, second = (build_machine(child) for child in desc["children"])
        combine = _and if kind == "conjunction" else _or
        # The product name composes the child names, so reports and
        # findings show what the combinator wraps.
        name = f"{kind}({first.name}, {second.name})"
        return product_machine(first, second, combine, name)
    raise ValueError(f"unknown machine descriptor kind {kind!r}")


# --------------------------------------------------------------------- #
# Properties
# --------------------------------------------------------------------- #
def build_property(desc: Mapping | None) -> LabellingProperty | None:
    """Realise a property descriptor (``None`` descriptors build to ``None``)."""
    if desc is None:
        return None
    kind = desc["kind"]
    if kind == "exists":
        return exists_label_property(ALPHABET, desc["label"])
    if kind == "at-least-k":
        return at_least_k_property(ALPHABET, desc["label"], int(desc["k"]))
    if kind == "semilinear-threshold":
        return threshold_semilinear(ALPHABET, desc["label"], int(desc["k"]))
    if kind == "parity":
        return parity_property(ALPHABET, desc["label"], even=bool(desc["even"]))
    if kind == "majority":
        return majority_property(ALPHABET, strict=bool(desc.get("strict", True)))
    if kind == "cutoff1":
        child = build_property(desc["child"])
        return property_from_function(
            ALPHABET,
            _Cutoff1(child),
            name=f"cutoff1({child.name})",
        )
    if kind == "not":
        return ~build_property(desc["child"])
    if kind in ("and", "or"):
        first, second = (build_property(child) for child in desc["children"])
        return (first & second) if kind == "and" else (first | second)
    raise ValueError(f"unknown property descriptor kind {kind!r}")


class _Cutoff1:
    """Evaluate a child property on the count capped at 1 (its support)."""

    def __init__(self, child: LabellingProperty):
        self.child = child

    def __call__(self, count: LabelCount) -> bool:
        return self.child.evaluate(count.cutoff(1))


# --------------------------------------------------------------------- #
# Triples
# --------------------------------------------------------------------- #
def build_triple(triple: Mapping):
    """``(machine, graph, property_or_None)`` for a triple descriptor."""
    return (
        build_machine(triple["machine"]),
        build_graph(triple["graph"]),
        build_property(triple.get("property")),
    )
