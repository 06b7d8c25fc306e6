"""The built-in scenario catalog: nine scenarios over five workload kinds.

Importing this module registers every scenario with
:mod:`repro.workloads.registry` (the package ``__init__`` imports it, so the
registry is always populated once :mod:`repro.workloads` is imported).  Each
builder maps a *full* parameter assignment (see
:func:`~repro.workloads.registry.validated_params`) to a runnable
:class:`~repro.workloads.base.Workload`; engine options are attached by
:func:`~repro.workloads.base.build_workload`.

**Shared machines.**  δ sees only a node's own state and its β-capped
neighbourhood (Section 2.1), so a machine — and the compiled δ table
:func:`~repro.core.compile.compile_machine` caches on it — does not depend
on the graph.  The builders of exists-label, threshold-broadcast (one
machine per ``k``), absence-probe, rendezvous-parity and rendezvous-majority
therefore take their machine from :data:`RECIPE_MACHINES`, one per *recipe*
(the scenario plus the parameters its machine depends on) per process: every
point, chunk and run of a recipe in a process shares one warm table and its
interned states.  clique-majority (β = n, one machine per population size)
and the population protocols (no compiled table) build fresh.  Results do
not depend on the order points were built in: that order fixes the interned
state ids, and no result reads one — a per-node row draws node indices, not
state ids, count rows order their movers by ``repr(state)``, and final
configurations are decoded back to states.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

from repro.core.graphs import (
    barabasi_albert_graph,
    clique_from_count,
    cycle_from_count,
    erdos_renyi_graph,
    line_from_count,
    random_connected_graph,
    random_regular_graph,
    star_from_count,
    watts_strogatz_graph,
)
from repro.core.labels import Alphabet, LabelCount
from repro.core.machine import DistributedMachine, Neighborhood, State
from repro.workloads.machine import MachineWorkload
from repro.workloads.population import PopulationWorkload
from repro.workloads.registry import register_scenario

#: The alphabet every registered scenario runs over.
AB = Alphabet.of("a", "b")

#: One machine per scenario recipe, keyed by the function that builds it and
#: that function's arguments, shared by every workload of that recipe built
#: in this process (see the module docstring).
RECIPE_MACHINES: dict[tuple, DistributedMachine] = {}


def _recipe_machine(
    build: Callable[..., DistributedMachine], *args: object
) -> DistributedMachine:
    """The process's ``build(*args)``, built on first use."""
    machine = RECIPE_MACHINES.get((build, args))
    if machine is None:
        machine = RECIPE_MACHINES[build, args] = build(*args)
    return machine


# ---------------------------------------------------------------------- #
# Shared parameter helpers
# ---------------------------------------------------------------------- #
GRAPH_FAMILIES = (
    "cycle",
    "line",
    "clique",
    "star",
    "implicit-clique",
    "random",
    "erdos-renyi",
    "barabasi-albert",
    "random-regular",
    "watts-strogatz",
)


def _label_count(params: Mapping) -> LabelCount:
    a, b = int(params["a"]), int(params["b"])
    if a < 0 or b < 0:
        raise ValueError("label counts must be non-negative")
    if a + b < 3:
        raise ValueError("scenarios follow the paper convention of >= 3 nodes")
    return LabelCount.from_mapping(AB, {"a": a, "b": b})


def _graph(params: Mapping, count: LabelCount):
    family = params.get("graph", "cycle")
    if family == "cycle":
        return cycle_from_count(count)
    if family == "line":
        return line_from_count(count)
    if family == "clique":
        return clique_from_count(count)
    if family == "star":
        return star_from_count(count)
    if family == "implicit-clique":
        return clique_from_count(count, implicit=True)
    if family == "random":
        return random_connected_graph(
            AB,
            count.to_label_sequence(),
            max_degree=int(params.get("max_degree", 3)),
            seed=int(params.get("graph_seed", 0)),
        )
    # The random families below share the `graph_seed` knob; `graph_density`
    # is the family-specific density parameter (edge probability for
    # Erdős–Rényi, rewire probability for Watts–Strogatz) and `max_degree`
    # doubles as the structural degree knob (regular degree, ring neighbours,
    # preferential attachments).
    labels = count.to_label_sequence()
    seed = int(params.get("graph_seed", 0))
    density = float(params.get("graph_density", 0.5))
    max_degree = int(params.get("max_degree", 3))
    if family == "erdos-renyi":
        return erdos_renyi_graph(AB, labels, edge_probability=density, seed=seed)
    if family == "barabasi-albert":
        attachment = max(1, min(max_degree - 1, len(labels) - 1))
        return barabasi_albert_graph(AB, labels, attachment=attachment, seed=seed)
    if family == "random-regular":
        degree = max_degree
        if (len(labels) * degree) % 2 != 0:
            degree -= 1
        return random_regular_graph(AB, labels, degree=degree, seed=seed)
    if family == "watts-strogatz":
        neighbours = max(2, max_degree - (max_degree % 2))
        return watts_strogatz_graph(
            AB, labels, neighbours=neighbours, rewire_probability=density, seed=seed
        )
    raise ValueError(f"unknown graph family {family!r}; expected one of {GRAPH_FAMILIES}")


# ---------------------------------------------------------------------- #
# Detection machines
# ---------------------------------------------------------------------- #
@register_scenario(
    "exists-label",
    kind="detection-machine",
    description="Flooding dAF detector for ∃a on a chosen graph family",
    defaults={"a": 1, "b": 4, "graph": "cycle", "max_degree": 3, "graph_seed": 0, "graph_density": 0.5},
    ground_truth="accept iff a ≥ 1 (at least one 'a'-labelled node exists)",
)
def _exists_label(params: dict) -> MachineWorkload:
    from repro.constructions import exists_label_machine

    count = _label_count(params)
    machine = _recipe_machine(exists_label_machine, AB, "a")
    return MachineWorkload(
        machine=machine, graph=_graph(params, count), expected=count["a"] >= 1
    )


def local_majority_machine(alphabet: Alphabet, n: int) -> DistributedMachine:
    """Adopt the majority state among the neighbours (clique majority).

    On a clique every node sees the global counts minus itself, so with a
    margin ≥ 2 the initial majority is invariant and the run stabilises once
    every minority node has moved.  ``beta = n`` makes the counting
    effectively uncapped, as the comparison needs true counts.
    """

    def delta(state: State, neighborhood: Neighborhood) -> State:
        a = neighborhood.count("a")
        b = neighborhood.count("b")
        if a > b:
            return "a"
        if b > a:
            return "b"
        return state

    return DistributedMachine(
        alphabet=alphabet,
        beta=n,
        init=lambda label: label,
        delta=delta,
        accepting={"a"},
        rejecting={"b"},
        name=f"clique-majority(n={n})",
    )


@register_scenario(
    "clique-majority",
    kind="detection-machine",
    description="Local-majority counting machine on an implicit clique "
    "(the count-backend substrate; scales to 10^4-10^6 agents)",
    defaults={"a": 6, "b": 3},
    ground_truth="accept iff a > b, declared only for margins |a - b| ≥ 2",
    notes=(
        "With margin 1 the race can flip (the selected node excludes itself "
        "from its view), so the scenario declares no ground truth there — a "
        "sweep point with |a - b| < 2 reports expected=None.",
    ),
)
def _clique_majority(params: dict) -> MachineWorkload:
    count = _label_count(params)
    n = count.total()
    machine = local_majority_machine(AB, n)
    graph = clique_from_count(count, implicit=True)
    a, b = count["a"], count["b"]
    # With margin >= 2 the initial majority is invariant; closer races can
    # flip, so the scenario declares no ground truth for them.
    expected = (a > b) if abs(a - b) >= 2 else None
    return MachineWorkload(machine=machine, graph=graph, expected=expected)


# ---------------------------------------------------------------------- #
# Broadcast / absence / rendez-vous compilations
# ---------------------------------------------------------------------- #
@register_scenario(
    "threshold-broadcast",
    kind="broadcast",
    description="Lemma C.5 weak-broadcast protocol for x_a ≥ k, compiled to a "
    "plain dAF machine via the Lemma 4.7 three-phase construction",
    defaults={"a": 2, "b": 2, "k": 2, "graph": "cycle", "max_degree": 3, "graph_seed": 0, "graph_density": 0.5},
    ground_truth="accept iff a ≥ k ('a'-labelled nodes reach the threshold)",
)
def _threshold_broadcast(params: dict) -> MachineWorkload:
    from repro.constructions import threshold_daf_machine

    count = _label_count(params)
    k = int(params["k"])
    machine = _recipe_machine(threshold_daf_machine, AB, "a", k)
    return MachineWorkload(
        machine=machine, graph=_graph(params, count), expected=count["a"] >= k
    )


def _absence_machine(degree_bound: int) -> DistributedMachine:
    """The DA$ support probe compiled for graphs of degree ≤ ``degree_bound``."""
    from repro.extensions import compile_absence_detection, support_probe_machine

    return compile_absence_detection(support_probe_machine(AB), degree_bound)


@register_scenario(
    "absence-probe",
    kind="absence",
    description="DA$ support probe ('no b exists') compiled for bounded degree "
    "via the Lemma 4.9 distance-labelled three-phase protocol",
    defaults={"a": 1, "b": 2, "graph": "cycle"},
    ground_truth="accept iff b = 0 (no marker nodes exist)",
    notes=(
        "Runs on the degree-2 families only (cycle or line) — the Lemma 4.9 "
        "compilation is bounded-degree.",
    ),
)
def _absence_probe(params: dict) -> MachineWorkload:
    count = _label_count(params)
    if count["a"] < 1:
        raise ValueError("absence-probe needs at least one probe agent (a >= 1)")
    family = params.get("graph", "cycle")
    if family not in ("cycle", "line"):
        raise ValueError("absence-probe runs on degree-2 families: cycle or line")
    machine = _recipe_machine(_absence_machine, 2)
    return MachineWorkload(
        machine=machine, graph=_graph(params, count), expected=count["b"] == 0
    )


def _rendezvous_machine(
    protocol: Callable[..., object], *args: object
) -> DistributedMachine:
    """``protocol(*args)`` compiled by the Figure 4 handshake (Lemma 4.10)."""
    from repro.extensions import compile_rendezvous

    return compile_rendezvous(protocol(*args))


@register_scenario(
    "rendezvous-parity",
    kind="rendezvous",
    description="Pair-interaction parity protocol compiled into a β=2 counting "
    "machine via the Figure 4 five-status handshake (Lemma 4.10)",
    defaults={"a": 3, "b": 4, "graph": "cycle", "max_degree": 3, "graph_seed": 0, "graph_density": 0.5},
    ground_truth="accept iff a is odd",
    notes=(
        "The handshake passes through long transient consensus stretches: a "
        "stability window below 2000 steps falsely stabilises them on some "
        "seeds, so InstanceSpec warns (SpecValidationWarning) below that "
        "threshold.",
    ),
)
def _rendezvous_parity(params: dict) -> MachineWorkload:
    from repro.extensions import parity_protocol

    count = _label_count(params)
    machine = _recipe_machine(_rendezvous_machine, parity_protocol, AB, "a")
    return MachineWorkload(
        machine=machine, graph=_graph(params, count), expected=count["a"] % 2 == 1
    )


@register_scenario(
    "rendezvous-majority",
    kind="rendezvous",
    description="Majority-with-movement graph population protocol under the "
    "Figure 4 handshake compilation (strict: ties reject)",
    # A comfortable margin: close races (e.g. 3 vs 2) are legitimate inputs
    # but need ~10^5 handshake steps on a cycle, too slow for a default.
    defaults={"a": 4, "b": 1, "graph": "cycle", "max_degree": 3, "graph_seed": 0, "graph_density": 0.5},
    ground_truth="accept iff a > b (strict majority; ties reject)",
    notes=(
        "Same stability-window footgun as rendezvous-parity (window ≥ 2000).",
        "Close races (margin 1) need ~10^5 handshake steps on a cycle; the "
        "default keeps a comfortable margin so sweeps terminate quickly.",
    ),
)
def _rendezvous_majority(params: dict) -> MachineWorkload:
    from repro.extensions import majority_with_movement

    count = _label_count(params)
    machine = _recipe_machine(_rendezvous_machine, majority_with_movement, AB)
    return MachineWorkload(
        machine=machine, graph=_graph(params, count), expected=count["a"] > count["b"]
    )


# ---------------------------------------------------------------------- #
# Population protocols
# ---------------------------------------------------------------------- #
@register_scenario(
    "population-majority",
    kind="population",
    description="Classical 4-state exact-majority population protocol "
    "(strict: ties reject) on a clique population",
    defaults={"a": 6, "b": 3},
    ground_truth="accept iff a > b (strict majority; ties reject)",
    notes=(
        "The follower tie-fight ((b,a) → (b,b)) makes accept-side absorption "
        "take exponentially long in the population size, for any faithful "
        "engine — use small populations or the threshold protocols for "
        "large-scale demos.",
    ),
)
def _population_majority(params: dict) -> PopulationWorkload:
    from repro.population import four_state_majority

    count = _label_count(params)
    protocol = four_state_majority(AB)
    return PopulationWorkload(
        protocol=protocol, count=count, expected=count["a"] > count["b"]
    )


@register_scenario(
    "population-threshold",
    kind="population",
    description="Token-accumulation population protocol for x_a ≥ k",
    defaults={"a": 3, "b": 4, "k": 3},
    ground_truth="accept iff a ≥ k (token accumulation reaches the threshold)",
)
def _population_threshold(params: dict) -> PopulationWorkload:
    from repro.population import threshold_protocol

    count = _label_count(params)
    k = int(params["k"])
    protocol = threshold_protocol(AB, "a", k)
    return PopulationWorkload(protocol=protocol, count=count, expected=count["a"] >= k)


@register_scenario(
    "population-parity",
    kind="population",
    description="Leader-based parity population protocol (odd number of a's)",
    defaults={"a": 3, "b": 2},
    ground_truth="accept iff a is odd",
)
def _population_parity(params: dict) -> PopulationWorkload:
    from repro.population import parity_population_protocol

    count = _label_count(params)
    protocol = parity_population_protocol(AB, "a")
    return PopulationWorkload(
        protocol=protocol, count=count, expected=count["a"] % 2 == 1
    )
