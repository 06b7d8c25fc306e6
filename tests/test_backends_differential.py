"""Differential tests: per-node backend vs count-based backend vs exact decision.

Seven cross-validation layers, all seeded so failures reproduce:

1. *Routing and lock-step*: every selection stream but a private seeded
   random-exclusive one runs on the per-node reference; the fast backends
   refuse it.  On a clique the synchronous run is unique and every node in
   one state moves to one state, so the reference's synchronous run must
   equal the lock-step run computed from the state counts **exactly** —
   trace, verdict, step count and stabilisation point — even for completely
   random transition functions.

2. *Random exclusive schedules vs exact decision*: for consistent automata
   (label flooding, DAF thresholds) on randomized small graphs, the verdict
   of every backend must match :func:`repro.core.verification.decide`, which
   quantifies over all fair schedules.  This is the harness that keeps
   aggressive backend optimisations honest.

3. *Population protocols*: the count-vector engine of
   :class:`~repro.population.protocol.PopulationProtocol` against the
   per-agent engine and the exact (bottom-SCC) decision.

4. *Non-clique graph matrix*: the compiled per-node engine
   (:class:`~repro.core.backends.CompiledPerNodeBackend`) against the
   reference loop over cycle / line / star / grid / ring-of-cliques under
   seeded random-exclusive schedules.  Because the compiled engine replays
   the reference's node draws, the contract is *bit identity* for the same
   seed — verdict, step count, ``stabilised_at`` and final configuration
   all equal — not just verdict agreement.  On the same matrix, every
   schedule class (seeded and injected-generator exclusive and liberal,
   synchronous, round-robin, starving, and a finite stream) must give the
   run stepped from the definition of ``succ(C, S)`` over a fresh copy of
   its stream, traced through the reference and untraced through
   ``"auto"``.

5. *Hitting times*: step counts of every random-exclusive engine against
   the closed-form expected absorption time of flooding / an epidemic on a
   small clique — the distributional check that sees a count-level row
   engine taking the right path at the wrong speed.

6. *The reference's dead-configuration stop*: a reference run that ends a
   dead configuration early against the same run stepped to its budget,
   traces included.

7. *The reference's silent steps*: a reference run reads the nodes' outputs
   only for its initial configuration and after steps that changed it, and
   still equals the run stepped from the definition.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace
from itertools import islice

import pytest

from repro.core import backends
from repro.core.automaton import automaton
from repro.core.graphs import (
    clique_graph,
    cycle_graph,
    grid_graph,
    line_graph,
    random_connected_graph,
    ring_of_cliques,
    star_graph,
)
from repro.core.labels import Alphabet, LabelCount
from repro.core.machine import DistributedMachine, Neighborhood
from repro.core.scheduler import (
    RandomExclusiveSchedule,
    RandomLiberalSchedule,
    RoundRobinSchedule,
    StarvingSchedule,
    SynchronousSchedule,
)
from repro.core.results import RunResult, Verdict
from repro.core.verification import decide
from repro.constructions import (
    exists_label_machine,
    threshold_daf_automaton,
    threshold_daf_machine,
)
from repro.population import (
    four_state_majority,
    parity_population_protocol,
    threshold_protocol,
)
from repro.workloads import EngineOptions, MachineWorkload, PopulationWorkload

AB = Alphabet.of("a", "b")


def run(machine, graph, schedule, **options):
    """One run of ``machine`` on ``graph`` under an explicit schedule."""
    workload = MachineWorkload(machine, graph, EngineOptions(**options))
    return workload.run_with_schedule(schedule)


# --------------------------------------------------------------------- #
# Random machines
# --------------------------------------------------------------------- #
def random_table_machine(master_seed: int) -> DistributedMachine:
    """A machine with a pseudo-random (but deterministic) transition function.

    The successor of ``(state, view)`` is drawn from a ``random.Random``
    keyed by the machine seed and the capped view, so the function is a
    genuine function — both backends observe identical dynamics.
    """
    seeder = random.Random(master_seed)
    states = [f"q{i}" for i in range(seeder.randint(2, 4))]
    beta = seeder.randint(1, 2)
    init_map = {"a": seeder.choice(states), "b": seeder.choice(states)}
    accepting = frozenset(seeder.sample(states, seeder.randint(0, len(states) - 1)))
    rejecting = frozenset(
        seeder.sample(sorted(set(states) - accepting), 1)
        if len(set(states) - set(accepting)) > 1 and seeder.random() < 0.7
        else []
    )

    def delta(state, neighborhood):
        key = (master_seed, state, neighborhood.items())
        return random.Random(repr(key)).choice(states)

    return DistributedMachine(
        alphabet=AB,
        beta=beta,
        init=lambda label: init_map[label],
        delta=delta,
        accepting=accepting,
        rejecting=rejecting,
        name=f"random-table-{master_seed}",
    )


# --------------------------------------------------------------------- #
# Runs from the definition
# --------------------------------------------------------------------- #
def consensus_by_definition(machine, configuration) -> bool | None:
    """``True`` if every state accepts, ``False`` if every state rejects."""
    if all(machine.is_accepting(state) for state in configuration):
        return True
    if all(machine.is_rejecting(state) for state in configuration):
        return False
    return None


def run_by_definition(machine, initial, successors, *, max_steps, stability_window):
    """The traced run ``initial, *successors`` cut by the reference's stop rule.

    The run stops at the first step whose configuration holds the same
    consensus as the ``stability_window`` configurations before it;
    otherwise it ends at ``max_steps`` or where ``successors`` ends.
    """
    trace = [initial]
    held = consensus_by_definition(machine, initial)
    streak = 0
    stabilised_at = None
    for configuration in islice(successors, max_steps):
        trace.append(configuration)
        current = consensus_by_definition(machine, configuration)
        streak = streak + 1 if current is not None and current == held else 0
        held = current
        if streak >= stability_window:
            stabilised_at = len(trace) - 1
            break
    return RunResult(
        verdict=Verdict.of(consensus_by_definition(machine, trace[-1])),
        steps=len(trace) - 1,
        final_configuration=trace[-1],
        stabilised_at=stabilised_at,
        trace=trace,
    )


def initial_by_definition(machine, graph):
    return tuple(machine.initial_state(graph.label_of(v)) for v in graph.nodes())


def lockstep_on_clique(machine, configuration):
    """The synchronous successor on a clique, from the state counts alone.

    Every node in state ``q`` reads the same view — all counts, one ``q``
    fewer — so all of them move to the same state.
    """
    counts = Counter(configuration)
    total = len(configuration) - 1
    move = {
        state: machine.step(
            state, Neighborhood(counts - Counter({state: 1}), machine.beta, total=total)
        )
        for state in counts
    }
    return tuple(move[state] for state in configuration)


def lockstep_run(machine, configuration):
    while True:
        configuration = lockstep_on_clique(machine, configuration)
        yield configuration


def random_clique_labels(rng: random.Random) -> list[str]:
    n = rng.randint(2, 7)
    return [rng.choice("ab") for _ in range(n)]


@pytest.mark.parametrize(
    "max_steps, stability_window",
    # The long budget drives several cases into a periodic orbit.
    [(60, 12), (2000, 10**6)],
)
@pytest.mark.parametrize("case", range(25))
def test_synchronous_lockstep_on_cliques(case, max_steps, stability_window):
    """Random machines on random cliques: the reference's synchronous run is
    the count-level lock-step run, trace included."""
    rng = random.Random(1000 + case)
    machine = random_table_machine(2000 + case)
    graph = clique_graph(AB, random_clique_labels(rng))
    initial = initial_by_definition(machine, graph)
    expected = run_by_definition(
        machine, initial, lockstep_run(machine, initial),
        max_steps=max_steps, stability_window=stability_window,
    )
    traced = run(
        machine, graph, SynchronousSchedule(), record_trace=True,
        max_steps=max_steps, stability_window=stability_window,
    )
    assert traced == expected, (
        f"case {case}: reference {run_result_tuple(traced)[:3]} != lock-step "
        f"{run_result_tuple(expected)[:3]} on {graph!r} with {machine.name}"
    )


# --------------------------------------------------------------------- #
# Layer 2: consistent automata vs exact decision (>= 50 randomized cases)
# --------------------------------------------------------------------- #
def random_graph(rng: random.Random, labels: list[str]):
    """One of the standard graph shapes over the given labels."""
    shape = rng.choice(["cycle", "line", "star", "clique", "random"])
    if shape == "cycle" and len(labels) >= 3:
        return cycle_graph(AB, labels)
    if shape == "line":
        return line_graph(AB, labels)
    if shape == "star" and len(labels) >= 2:
        return star_graph(AB, labels[0], labels[1:])
    if shape == "random" and len(labels) >= 3:
        return random_connected_graph(AB, labels, max_degree=3, seed=rng.randint(0, 10**6))
    return clique_graph(AB, labels)


@pytest.mark.parametrize("case", range(50))
def test_flooding_backends_match_exact_decision(case):
    """≥ 50 randomized instances: simulated verdicts must equal ``decide``.

    The flooding automaton for ``exists(label)`` is consistent on every
    connected graph, so the exact bottom-SCC verdict is the ground truth for
    every backend and schedule seed.
    """
    rng = random.Random(5000 + case)
    label = rng.choice("ab")
    auto = automaton(exists_label_machine(AB, label), "dAF")
    n = rng.randint(3, 6)
    labels = [rng.choice("ab") for _ in range(n)]
    graph = random_graph(rng, labels)
    exact = decide(auto, graph).verdict
    assert exact in (Verdict.ACCEPT, Verdict.REJECT)

    schedule = RandomExclusiveSchedule(seed=rng.randint(0, 10**6))
    backends = ("per-node", "count") if graph.is_clique() else ("per-node",)
    for backend in backends:
        result = run(
            auto.machine, graph, schedule,
            max_steps=4_000, stability_window=60, backend=backend,
        )
        assert result.verdict is exact


@pytest.mark.parametrize("case", range(6))
def test_threshold_automaton_backends_match_exact_decision(case):
    """DAF threshold automata (token accumulation) against ``decide``."""
    rng = random.Random(7000 + case)
    threshold = rng.randint(1, 2)
    auto = threshold_daf_automaton(AB, "a", threshold)
    n = rng.randint(3, 4)
    labels = [rng.choice("ab") for _ in range(n)]
    graph = clique_graph(AB, labels) if case % 2 == 0 else cycle_graph(AB, labels)
    exact = decide(auto, graph, max_configurations=600_000).verdict
    assert exact in (Verdict.ACCEPT, Verdict.REJECT)
    options = EngineOptions(max_steps=30_000, stability_window=500)
    result = MachineWorkload(auto.machine, graph, options).run(rng.randint(0, 10**6))
    assert result.verdict is exact


def test_count_backend_agrees_with_per_node_across_seeds():
    """Same instance, many schedule seeds: the two backends' verdicts agree
    run by run (both are faithful samples of the same Markov chain)."""
    machine = exists_label_machine(AB, "a")
    graph = clique_graph(AB, ["a", "b", "b", "b", "b", "b"])
    for seed in range(10):
        schedule = RandomExclusiveSchedule(seed=seed)
        verdicts = set()
        for backend in ("per-node", "count"):
            result = run(
                machine, graph, schedule,
                max_steps=3_000, stability_window=50, backend=backend,
            )
            verdicts.add(result.verdict)
        assert verdicts == {Verdict.ACCEPT}


# --------------------------------------------------------------------- #
# Layer 4: compiled per-node engine vs reference loop, non-clique matrix
# --------------------------------------------------------------------- #
NON_CLIQUE_FAMILIES = ("cycle", "line", "star", "grid", "ring-of-cliques")


def family_graph(family: str, rng: random.Random):
    """A labelled instance of one of the non-clique families under test."""
    if family == "cycle":
        return cycle_graph(AB, [rng.choice("ab") for _ in range(rng.randint(3, 9))])
    if family == "line":
        return line_graph(AB, [rng.choice("ab") for _ in range(rng.randint(2, 9))])
    if family == "star":
        leaves = [rng.choice("ab") for _ in range(rng.randint(2, 7))]
        return star_graph(AB, rng.choice("ab"), leaves)
    if family == "grid":
        rows, cols = rng.randint(2, 3), rng.randint(2, 4)
        return grid_graph(
            AB, rows, cols, [rng.choice("ab") for _ in range(rows * cols)]
        )
    sizes = [rng.randint(2, 4) for _ in range(rng.randint(2, 3))]
    return ring_of_cliques(
        AB, sizes, [rng.choice("ab") for _ in range(sum(sizes))]
    )


def run_result_tuple(result):
    return (
        result.verdict,
        result.steps,
        result.stabilised_at,
        result.final_configuration,
    )


class FiniteRoundRobin(RoundRobinSchedule):
    """Round-robin that ends after ``2n + 1`` selections: a finite stream."""

    def selections(self, graph):
        return islice(super().selections(graph), 2 * graph.num_nodes + 1)


def matrix_schedule(kind: str, seed: int):
    """A fresh schedule of one kind."""
    if kind == "exclusive":
        return RandomExclusiveSchedule(seed=seed)
    if kind == "injected-exclusive":
        return RandomExclusiveSchedule(rng=random.Random(seed))
    if kind == "synchronous":
        return SynchronousSchedule()
    if kind == "liberal":
        return RandomLiberalSchedule(probability=0.3, seed=seed)
    if kind == "injected-liberal":
        return RandomLiberalSchedule(rng=random.Random(seed))
    if kind == "round-robin":
        return RoundRobinSchedule()
    if kind == "starving":
        return StarvingSchedule(victim=seed % 2, period=3)
    assert kind == "finite-round-robin"
    return FiniteRoundRobin()


MATRIX_SCHEDULES = (
    "exclusive",
    "injected-exclusive",
    "synchronous",
    "liberal",
    "injected-liberal",
    "round-robin",
    "starving",
    "finite-round-robin",
)


# --------------------------------------------------------------------- #
# Layer 1: every other stream runs on the reference
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("graph_kind", ["cycle", "clique"])
@pytest.mark.parametrize("schedule_kind", MATRIX_SCHEDULES[1:])
def test_other_streams_run_on_the_reference(graph_kind, schedule_kind):
    """Every stream but a private seeded random-exclusive one: ``"auto"``
    picks the per-node reference, the fast backends refuse it, and a spec
    cannot name it."""
    machine = exists_label_machine(AB, "a")
    labels = ["a", "b", "b", "b", "b"]
    graph = (cycle_graph if graph_kind == "cycle" else clique_graph)(AB, labels)
    schedule = matrix_schedule(schedule_kind, 7)
    assert (
        backends.resolve_backend("auto", machine, graph, schedule)
        is backends.PER_NODE_BACKEND
    )
    for name in ("compiled", "count"):
        with pytest.raises(backends.BackendUnsupported):
            backends.resolve_backend(name, machine, graph, schedule)
        with pytest.raises(backends.BackendUnsupported):
            run(machine, graph, schedule, backend=name)
    with pytest.raises(ValueError, match="unknown engine option"):
        EngineOptions.from_dict({"schedule": "synchronous"})


def successor_by_definition(machine, graph, configuration, selection):
    """``succ(C, S)``: every selected node reads its neighbours' old states."""
    states = list(configuration)
    for node in set(selection):
        view = Counter(configuration[u] for u in graph.neighbors(node))
        states[node] = machine.step(
            configuration[node],
            Neighborhood(view, machine.beta, total=graph.degree(node)),
        )
    return tuple(states)


def replayed_run(machine, graph, schedule):
    configuration = initial_by_definition(machine, graph)
    for selection in schedule.selections(graph):
        configuration = successor_by_definition(machine, graph, configuration, selection)
        yield configuration


@pytest.mark.parametrize("family", NON_CLIQUE_FAMILIES)
@pytest.mark.parametrize("schedule_kind", MATRIX_SCHEDULES)
@pytest.mark.parametrize("max_steps, window", [(400, 25), (60, 3), (5, 1), (12, 40)])
@pytest.mark.parametrize("case", range(3))
def test_every_stream_matches_the_definition_on_non_clique_matrix(
    family, schedule_kind, max_steps, window, case
):
    """Random machines on every non-clique family × schedule: the run equals
    the one stepped from ``succ(C, S)`` over a fresh copy of the stream —
    traced (the reference) and untraced (``"auto"``'s engine)."""
    rng = random.Random(f"{family}:{schedule_kind}:{case}")
    machine = random_table_machine(11_000 + case)
    graph = family_graph(family, rng)
    seed = rng.randint(0, 10**6)
    expected = run_by_definition(
        machine,
        initial_by_definition(machine, graph),
        replayed_run(machine, graph, matrix_schedule(schedule_kind, seed)),
        max_steps=max_steps,
        stability_window=window,
    )
    options = dict(max_steps=max_steps, stability_window=window)
    traced = run(
        machine, graph, matrix_schedule(schedule_kind, seed), record_trace=True, **options
    )
    assert traced == expected, (
        f"{family}/{schedule_kind} case {case}: reference "
        f"{run_result_tuple(traced)[:3]} != definition "
        f"{run_result_tuple(expected)[:3]} on {graph!r} with {machine.name}"
    )
    untraced = run(machine, graph, matrix_schedule(schedule_kind, seed), **options)
    assert untraced == replace(expected, trace=None)


@pytest.mark.batch
@pytest.mark.parametrize("family", NON_CLIQUE_FAMILIES)
@pytest.mark.parametrize("max_steps, window", [(400, 25), (60, 3), (5, 1), (12, 40)])
@pytest.mark.parametrize("case", range(3))
def test_compiled_matches_reference_on_non_clique_matrix(family, max_steps, window, case):
    """Bit-identical RunResults from the compiled engine and the reference
    loop, for random machines on every non-clique family."""
    rng = random.Random(f"{family}:exclusive:{case}")
    machine = random_table_machine(11_000 + case)
    graph = family_graph(family, rng)
    seed = rng.randint(0, 10**6)
    outcomes = []
    for backend in ("per-node", "compiled"):
        result = run(
            machine, graph, RandomExclusiveSchedule(seed=seed),
            max_steps=max_steps, stability_window=window, backend=backend,
        )
        outcomes.append(result)
    assert outcomes[0] == outcomes[1], (
        f"{family} case {case}: reference {run_result_tuple(outcomes[0])[:3]} "
        f"!= compiled {run_result_tuple(outcomes[1])[:3]} on {graph!r} with "
        f"{machine.name}"
    )


@pytest.mark.parametrize("family", NON_CLIQUE_FAMILIES)
def test_compiled_flooding_matches_reference_to_stabilisation(family):
    """A consistent machine (∃a flooding) run to stabilisation: the compiled
    engine must reproduce the reference's stabilisation step exactly."""
    rng = random.Random(f"flood:{family}")
    machine = exists_label_machine(AB, "a")
    graph = family_graph(family, rng)
    seed = rng.randint(0, 10**6)
    outcomes = []
    for backend in ("per-node", "compiled"):
        result = run(
            machine, graph, RandomExclusiveSchedule(seed=seed),
            max_steps=6_000, stability_window=60, backend=backend,
        )
        outcomes.append(run_result_tuple(result))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][2] is not None, "expected the flooding run to stabilise"


@pytest.mark.parametrize("family", NON_CLIQUE_FAMILIES)
def test_compiled_broadcast_pipeline_matches_reference(family):
    """The weak-broadcast compilation's consensus comes and goes while its
    phases propagate, so the consensus streak is reset mid-run: the
    compiled engine must still reproduce the reference run exactly."""
    rng = random.Random(f"broadcast:{family}")
    machine = threshold_daf_machine(AB, "a", 2)
    graph = family_graph(family, rng)
    for _ in range(3):
        seed = rng.randint(0, 10**6)
        outcomes = []
        for backend in ("per-node", "compiled"):
            result = run(
                machine, graph, RandomExclusiveSchedule(seed=seed),
                max_steps=4_000, stability_window=60, backend=backend,
            )
            outcomes.append(run_result_tuple(result))
        assert outcomes[0] == outcomes[1], (family, seed)
        assert outcomes[0][2] is not None, "expected the run to stabilise"


# --------------------------------------------------------------------- #
# Layer 3: population protocols (agents vs counts vs exact)
# --------------------------------------------------------------------- #
def _lc(a: int, b: int) -> LabelCount:
    return LabelCount.from_mapping(AB, {"a": a, "b": b})


@pytest.mark.parametrize("case", range(12))
def test_population_methods_match_exact_decision(case):
    rng = random.Random(9000 + case)
    protocol_kind = rng.choice(["majority", "threshold", "parity"])
    if protocol_kind == "majority":
        protocol = four_state_majority(AB)
    elif protocol_kind == "threshold":
        protocol = threshold_protocol(AB, "a", rng.randint(1, 3))
    else:
        protocol = parity_population_protocol(AB, "a")
    a = rng.randint(0, 5)
    b = rng.randint(0, 5)
    if a + b < 2:
        a, b = 2, 1
    count = _lc(a, b)
    exact = protocol.decide(count)
    assert exact in (Verdict.ACCEPT, Verdict.REJECT)
    verdict, _ = protocol.simulate_agents(
        count, max_steps=80_000, seed=rng.randint(0, 10**6)
    )
    assert verdict is exact, (case, protocol.name, "agents", verdict, exact)
    options = EngineOptions(max_steps=80_000, stability_window=1)
    result = PopulationWorkload(protocol, count, options).run(rng.randint(0, 10**6))
    assert result.verdict is exact, (case, protocol.name, "counts", result.verdict, exact)


# --------------------------------------------------------------------- #
# Layer 5: step counts against exact expected hitting times
# --------------------------------------------------------------------- #
# Verdict checks cannot see an engine that takes the right path at the
# wrong speed (say, one silent step too many per active step).  Flooding
# from one informed node is absorbed in a consensus, so a run's step count
# is the absorption time T plus the stabilisation window, and E[T] has a
# closed form: with k nodes informed, each step is active with probability
# p_k, so E[T] = Σ_k 1/p_k.  The sample mean over fixed seeds must sit
# within four standard errors of it.
HITTING_RUNS = 1_000


def _assert_mean_matches(samples, expected, label):
    n = len(samples)
    mean = sum(samples) / n
    variance = sum((x - mean) ** 2 for x in samples) / (n - 1)
    standard_error = (variance / n) ** 0.5
    assert abs(mean - expected) < 4 * standard_error, (
        f"{label}: mean absorption time {mean:.3f} vs exact {expected:.3f} "
        f"(standard error {standard_error:.3f})"
    )


@pytest.mark.parametrize("backend", ["per-node", "compiled", "count"])
def test_flooding_absorption_time_matches_exact_expectation(backend):
    n, window = 8, 1
    machine = exists_label_machine(AB, "a")
    graph = clique_graph(AB, ["a"] + ["b"] * (n - 1))
    # k informed nodes: the n - k uninformed ones are the movers.
    expected = sum(n / (n - k) for k in range(1, n))
    samples = []
    for seed in range(HITTING_RUNS):
        result = run(
            machine, graph, RandomExclusiveSchedule(seed=seed),
            max_steps=10_000, stability_window=window, backend=backend,
        )
        assert result.verdict is Verdict.ACCEPT and result.stabilised_at
        samples.append(result.steps - window)
    _assert_mean_matches(samples, expected, backend)


# A window above the 10·n floor must be honoured too: 200 > 80 at n = 8.
@pytest.mark.parametrize("stability_window", [1, 200])
def test_population_epidemic_absorption_time_matches_exact_expectation(
    stability_window,
):
    from repro.population import PopulationProtocol

    n = 8
    epidemic = PopulationProtocol(
        alphabet=AB,
        init=lambda label: "y" if label == "a" else "x",
        delta=lambda p, q: ("y", "y") if "y" in (p, q) else (p, q),
        accepting={"y"},
        rejecting={"x"},
        name="epidemic",
    )
    # k infected agents: 2k(n - k) of the n(n - 1) ordered pairs are active;
    # the counts engine stabilises one consensus window after absorption.
    expected = sum(n * (n - 1) / (2 * k * (n - k)) for k in range(1, n))
    window = PopulationProtocol.consensus_window(n, stability_window)
    workload = PopulationWorkload(
        epidemic,
        _lc(1, n - 1),
        EngineOptions(max_steps=10_000, stability_window=stability_window),
    )
    samples = []
    for seed in range(HITTING_RUNS):
        result = workload.run(seed)
        assert result.verdict is Verdict.ACCEPT
        samples.append(result.steps - window)
    _assert_mean_matches(samples, expected, "counts")


# --------------------------------------------------------------------- #
# Layer 6: the reference loop's dead-configuration stop
# --------------------------------------------------------------------- #
# A reference run quiet for a whole window without consensus checks once
# whether any node can move; if none can, it reports the rest of its budget
# as silent steps without stepping them.  The oracle is the same run under
# a schedule subclass, which the exact-type gate keeps on the stepped path.
class SteppedRandomExclusive(RandomExclusiveSchedule):
    """Overrides nothing: the same draws, but never cut short."""


def chain_machine(length: int) -> DistributedMachine:
    """``a`` nodes walk ``a0 → … → a{length}`` and stop; ``b`` nodes never move.

    Accepting and rejecting states mix, so there is never a consensus, and
    the configuration dies once every ``a`` node reaches the chain's end.
    """
    last = f"a{length}"

    def delta(state, neighborhood):
        if state == "b" or state == last:
            return state
        return f"a{int(state[1:]) + 1}"

    return DistributedMachine(
        alphabet=AB,
        beta=1,
        init=lambda label: "a0" if label == "a" else "b",
        delta=delta,
        accepting=frozenset(f"a{i}" for i in range(length + 1)),
        rejecting={"b"},
        name=f"chain-{length}",
    )


@pytest.fixture
def enabled_checks(monkeypatch):
    """Every list the reference loop's ``enabled_nodes`` check returned."""
    returned: list[list] = []
    original = backends.enabled_nodes

    def recording(machine, graph, configuration):
        nodes = original(machine, graph, configuration)
        returned.append(nodes)
        return nodes

    monkeypatch.setattr(backends, "enabled_nodes", recording)
    return returned


def reference_pair(machine, graph, seed, checks, **options):
    """The reference run on the shortcut path and on the stepped path.

    The compiled run of the same seed, whose row finishes a dead
    configuration without drawing, must match them too (traces aside).
    """
    fast = backends.PER_NODE_BACKEND.run(
        machine, graph, RandomExclusiveSchedule(seed=seed), **options
    )
    before = len(checks)
    stepped = backends.PER_NODE_BACKEND.run(
        machine, graph, SteppedRandomExclusive(seed=seed), **options
    )
    assert len(checks) == before, "the stepped oracle must never check"
    options.pop("record_trace", None)
    compiled = backends.COMPILED_BACKEND.run(
        machine, graph, RandomExclusiveSchedule(seed=seed), **options
    )
    assert run_result_tuple(compiled) == run_result_tuple(fast)
    return fast, stepped


SHORTCUT_SETTINGS = [
    # (stability_window, max_steps, record_trace)
    (3, 300, False),
    (3, 300, True),
    (1, 50, True),
    (40, 40, True),  # max_steps == window: the check fires on the last step
    (40, 30, True),  # max_steps < window: the check can never fire
    (3, 0, False),  # a zero budget: nothing is drawn
]


@pytest.mark.parametrize("window, max_steps, record_trace", SHORTCUT_SETTINGS)
def test_dead_from_start_stop_matches_stepped_run(
    enabled_checks, window, max_steps, record_trace
):
    machine = chain_machine(0)
    graph = line_graph(AB, ["a", "b", "b", "a", "b"])
    fast, stepped = reference_pair(
        machine, graph, 7, enabled_checks,
        max_steps=max_steps, stability_window=window, record_trace=record_trace,
    )
    assert fast == stepped
    assert (fast.verdict, fast.steps, fast.stabilised_at) == (
        Verdict.UNDECIDED, max_steps, None,
    )
    assert enabled_checks == ([[]] if window <= max_steps else [])


@pytest.mark.parametrize("window, max_steps, record_trace", SHORTCUT_SETTINGS[:3])
@pytest.mark.parametrize("seed", range(3))
def test_mid_run_death_stop_matches_stepped_run(
    enabled_checks, window, max_steps, record_trace, seed
):
    machine = chain_machine(3)
    graph = line_graph(AB, ["b", "a", "b", "b"])
    fast, stepped = reference_pair(
        machine, graph, seed, enabled_checks,
        max_steps=max_steps, stability_window=window, record_trace=record_trace,
    )
    assert fast == stepped
    assert fast.final_configuration == ("b", "a3", "b", "b")
    assert fast.steps == max_steps and fast.stabilised_at is None
    # Quiet stretches before the death find the a-node still enabled.
    assert enabled_checks[-1] == [] and all(enabled_checks[:-1])
    assert len(enabled_checks) > 1


@pytest.mark.parametrize("record_trace", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_live_quiet_stretches_keep_stepping(enabled_checks, record_trace, seed):
    machine = exists_label_machine(AB, "a")
    graph = line_graph(AB, ["a"] + ["b"] * 15)
    fast, stepped = reference_pair(
        machine, graph, seed, enabled_checks,
        max_steps=6_000, stability_window=3, record_trace=record_trace,
    )
    assert fast == stepped
    assert fast.verdict is Verdict.ACCEPT and fast.stabilised_at is not None
    assert enabled_checks and all(enabled_checks)


@pytest.mark.parametrize(
    "schedule",
    [
        SteppedRandomExclusive(seed=7),
        RandomExclusiveSchedule(rng=random.Random(7)),
        SynchronousSchedule(),
    ],
    ids=["subclass", "injected-rng", "synchronous"],
)
def test_dead_stop_needs_a_private_random_exclusive_stream(enabled_checks, schedule):
    machine = chain_machine(0)
    graph = line_graph(AB, ["a", "b", "b", "a", "b"])
    result = backends.PER_NODE_BACKEND.run(
        machine, graph, schedule, max_steps=200, stability_window=3
    )
    assert (result.verdict, result.steps) == (Verdict.UNDECIDED, 200)
    assert enabled_checks == []


def test_injected_generator_is_consumed_as_if_stepped():
    machine = chain_machine(0)
    graph = line_graph(AB, ["a", "b", "b", "a", "b"])
    injected, stepped = random.Random(7), random.Random(7)
    for schedule in (
        RandomExclusiveSchedule(rng=injected),
        SteppedRandomExclusive(rng=stepped),
    ):
        backends.PER_NODE_BACKEND.run(
            machine, graph, schedule, max_steps=200, stability_window=3
        )
    assert injected.getstate() == stepped.getstate()


@pytest.mark.parametrize("window", [0, -1])
@pytest.mark.parametrize(
    "backend, make_schedule",
    [
        ("per-node", lambda: RandomExclusiveSchedule(seed=0)),
        ("per-node", lambda: RandomExclusiveSchedule(rng=random.Random(0))),
        ("per-node", SynchronousSchedule),
        ("compiled", lambda: RandomExclusiveSchedule(seed=0)),
        ("count", lambda: RandomExclusiveSchedule(seed=0)),
        ("auto", lambda: RandomExclusiveSchedule(rng=random.Random(0))),
        ("auto", SynchronousSchedule),
    ],
    ids=[
        "per-node-seeded",
        "per-node-injected-rng",
        "per-node-synchronous",
        "compiled-seeded",
        "count-seeded",
        "auto-injected-rng",
        "auto-synchronous",
    ],
)
def test_every_loop_refuses_a_window_below_one(backend, make_schedule, window):
    """Below a window of 1 a loop would call a run without consensus
    stabilised, so every stepping loop refuses before its first step."""
    machine = exists_label_machine(AB, "a")
    graph = clique_graph(AB, ["a", "b", "b", "b", "b"])
    schedule = make_schedule()
    with pytest.raises(ValueError, match="stability_window must be at least 1"):
        backends.resolve_backend(backend, machine, graph, schedule).run(
            machine, graph, schedule, max_steps=50, stability_window=window
        )


# --------------------------------------------------------------------- #
# Layer 7: the reference reads outputs only after a step changed something
# --------------------------------------------------------------------- #
# The consensus value is a function of the configuration, so the reference
# keeps it across a silent step instead of rescanning the nodes' outputs.
def counting_outputs(machine, calls: Counter):
    """``machine`` with ``is_accepting`` / ``is_rejecting`` counting their calls."""

    def counted(predicate, name):
        def wrapped(state):
            calls[name] += 1
            return predicate(state)

        return wrapped

    return replace(
        machine,
        accepting=counted(machine.is_accepting, "accepting"),
        rejecting=counted(machine.is_rejecting, "rejecting"),
    )


@pytest.mark.parametrize(
    "make_machine, labels, window",
    [
        (lambda: exists_label_machine(AB, "a"), "bbabbb", 40),
        (lambda: threshold_daf_machine(AB, "a", 2), "abbab", 60),
        (lambda: random_table_machine(11_002), "abbaab", 25),
        (lambda: chain_machine(3), "babb", 3),  # dies without consensus
    ],
    ids=["flooding", "broadcast", "random-table", "dead"],
)
@pytest.mark.parametrize("record_trace", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_reference_reads_outputs_only_after_a_change(
    make_machine, labels, window, record_trace, seed
):
    base = make_machine()
    graph = line_graph(AB, list(labels))
    options = dict(max_steps=3_000, stability_window=window)
    expected = run_by_definition(
        base,
        initial_by_definition(base, graph),
        replayed_run(base, graph, RandomExclusiveSchedule(seed=seed)),
        **options,
    )
    calls: Counter = Counter()
    machine = counting_outputs(base, calls)
    result = backends.PER_NODE_BACKEND.run(
        machine, graph, RandomExclusiveSchedule(seed=seed),
        record_trace=record_trace, **options,
    )
    assert result == (expected if record_trace else replace(expected, trace=None))
    # One consensus scan of the initial configuration and of every step
    # that changed it; the silent steps add none.
    scanned = Counter(calls)
    calls.clear()
    trace = expected.trace
    changed = [c for i, c in enumerate(trace) if i == 0 or c != trace[i - 1]]
    for configuration in changed:
        consensus_by_definition(machine, configuration)
    assert scanned == calls
    assert len(changed) < len(trace), "the run should take silent steps"
