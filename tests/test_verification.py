"""Tests for the exact decision engine (bottom SCCs, fair lassos, verdicts)."""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

from repro.core.automaton import automaton
from repro.core.backends import COMPILED_BACKEND
from repro.core.batch import derive_seed
from repro.core import verification
from repro.core.compile import canonical_view_key, compile_machine
from repro.core.configuration import successor
from repro.core.graphs import cycle_graph, line_graph, star_graph
from repro.core.labels import Alphabet, LabelCount
from repro.core.machine import DistributedMachine, Neighborhood
from repro.core.scheduler import RandomExclusiveSchedule, SelectionMode
from repro.core.results import Verdict
from repro.core.verification import (
    StateSpaceTooLarge,
    _bottoms,
    _tarjan,
    bottom_sccs,
    decide,
    decide_adversarial,
    decide_by_bottom_sccs,
    decide_pseudo_stochastic,
    decides_same,
    explore,
    reachable_stably_accepting,
    strongly_connected_components,
)
from repro.constructions import exists_broadcast_protocol
from repro.constructions.threshold_daf import threshold_broadcast_machine
from repro.extensions.broadcast_sim import compile_broadcasts
from repro.extensions.rendezvous import majority_with_movement
from repro.fuzz.descriptors import build_triple
from repro.fuzz.generators import sample_triple
from repro.fuzz.oracle import OracleConfig
from repro.population import four_state_majority


@pytest.fixture
def ab():
    return Alphabet.of("a", "b")


def flooding_machine(ab):
    """Flood 'yes' if any node started with label a (works for dAf and dAF)."""

    def init(label):
        return "yes" if label == "a" else "no"

    def delta(state, neighborhood):
        if state == "no" and neighborhood.has("yes"):
            return "yes"
        return state

    return DistributedMachine(
        alphabet=ab, beta=1, init=init, delta=delta,
        accepting={"yes"}, rejecting={"no"}, name="flood",
    )


def flaky_machine(ab):
    """A machine that deliberately violates the consistency condition.

    A node toggles between an accepting and a rejecting state whenever it is
    selected, so no run ever stabilises.
    """

    def init(label):
        return "ping"

    def delta(state, neighborhood):
        return "pong" if state == "ping" else "ping"

    return DistributedMachine(
        alphabet=ab, beta=1, init=init, delta=delta,
        accepting={"ping"}, rejecting={"pong"}, name="flaky",
    )


def lucky_machine(ab):
    """A machine whose acceptance needs pseudo-stochastic luck.

    A single 'token' node accepts only if, when selected, *all* its
    neighbours currently show 'ready'; other nodes toggle ready/idle each
    time they are selected.
    """

    def init(label):
        return "token" if label == "a" else "idle"

    def delta(state, neighborhood):
        if state == "token":
            if neighborhood.states() and neighborhood.all_in({"ready", "done"}):
                return "done"
            return state
        if state == "done":
            return "done"
        if state in ("idle", "ready"):
            if neighborhood.has("done"):
                return "done"
            return "ready" if state == "idle" else "idle"
        return state

    return DistributedMachine(
        alphabet=ab, beta=1, init=init, delta=delta,
        accepting={"done"}, rejecting={"token", "idle", "ready"}, name="lucky",
    )


class TestExplore:
    def test_reachable_configurations(self, ab):
        machine = flooding_machine(ab)
        g = cycle_graph(ab, ["a", "b", "b"])
        graph = explore(machine, g)
        # States only ever go no -> yes, so reachable configs are monotone sets.
        assert graph.initial == ("yes", "no", "no")
        assert ("yes", "yes", "yes") in graph.configurations
        assert graph.size <= 2**3

    def test_budget_enforced(self, ab):
        machine = flooding_machine(ab)
        g = cycle_graph(ab, ["a", "b", "b", "b"])
        with pytest.raises(StateSpaceTooLarge):
            explore(machine, g, max_configurations=2)

    def test_edge_selections_recorded(self, ab):
        machine = flooding_machine(ab)
        g = line_graph(ab, ["a", "b", "b"])
        graph = explore(machine, g)
        start = graph.initial
        succ = ("yes", "yes", "no")
        assert succ in graph.successors[start]
        assert frozenset({1}) in graph.edge_selections[(start, succ)]


class TestSCC:
    def test_components_partition_configurations(self, ab):
        machine = flooding_machine(ab)
        g = cycle_graph(ab, ["a", "b", "b"])
        graph = explore(machine, g)
        components = strongly_connected_components(graph)
        flattened = [c for component in components for c in component]
        assert sorted(map(repr, flattened)) == sorted(map(repr, graph.configurations))

    def test_bottom_scc_is_the_consensus(self, ab):
        machine = flooding_machine(ab)
        g = cycle_graph(ab, ["a", "b", "b"])
        graph = explore(machine, g)
        bottoms = bottom_sccs(graph)
        assert len(bottoms) == 1
        assert bottoms[0] == [("yes", "yes", "yes")]


class TestPseudoStochasticDecision:
    def test_accepts_when_a_present(self, ab):
        machine = flooding_machine(ab)
        report = decide_pseudo_stochastic(machine, cycle_graph(ab, ["a", "b", "b"]))
        assert report.verdict is Verdict.ACCEPT

    def test_rejects_when_no_a(self, ab):
        machine = flooding_machine(ab)
        report = decide_pseudo_stochastic(machine, cycle_graph(ab, ["b", "b", "b"]))
        assert report.verdict is Verdict.REJECT

    def test_flaky_machine_is_inconsistent(self, ab):
        machine = flaky_machine(ab)
        report = decide_pseudo_stochastic(machine, cycle_graph(ab, ["a", "b", "b"]))
        assert report.verdict is Verdict.INCONSISTENT

    def test_reachable_stably_accepting(self, ab):
        machine = flooding_machine(ab)
        assert reachable_stably_accepting(machine, cycle_graph(ab, ["a", "b", "b"]))
        assert not reachable_stably_accepting(machine, cycle_graph(ab, ["b", "b", "b"]))
        assert reachable_stably_accepting(
            machine, cycle_graph(ab, ["b", "b", "b"]), accepting=False
        )


class TestAdversarialDecision:
    def test_flooding_also_works_under_adversarial_fairness(self, ab):
        machine = flooding_machine(ab)
        assert decide_adversarial(machine, cycle_graph(ab, ["a", "b", "b"])).verdict is Verdict.ACCEPT
        assert decide_adversarial(machine, cycle_graph(ab, ["b", "b", "b"])).verdict is Verdict.REJECT

    def test_flaky_machine_inconsistent_adversarially(self, ab):
        machine = flaky_machine(ab)
        assert decide_adversarial(machine, cycle_graph(ab, ["a", "a", "a"])).verdict is Verdict.INCONSISTENT

    def test_fairness_sensitive_machine(self, ab):
        """A machine whose acceptance needs pseudo-stochastic luck.

        A single 'token' node accepts only if, when selected, *all* its
        neighbours currently show 'ready'; other nodes toggle ready/idle each
        time they are selected.  Under pseudo-stochastic fairness the lucky
        constellation is guaranteed to occur; an adversarial scheduler can
        avoid it forever, so the automaton is not consistent adversarially —
        the engine must detect the difference.
        """

        machine = lucky_machine(ab)
        g = star_graph(ab, "a", ["b", "b"])
        pseudo = decide_pseudo_stochastic(machine, g)
        adversarial = decide_adversarial(machine, g)
        assert pseudo.verdict is Verdict.ACCEPT
        assert adversarial.verdict is Verdict.INCONSISTENT

    def test_budget_enforced(self, ab):
        machine = flooding_machine(ab)
        g = cycle_graph(ab, ["a", "b", "b", "b"])
        with pytest.raises(StateSpaceTooLarge):
            decide_adversarial(machine, g, max_configurations=2)

    def test_synchronous_selection_mode(self, ab):
        machine = flooding_machine(ab)
        report = decide_adversarial(
            machine, cycle_graph(ab, ["a", "b", "b"]), SelectionMode.SYNCHRONOUS
        )
        assert report.verdict is Verdict.ACCEPT


class TestTopLevelDecide:
    def test_dispatch_on_class(self, ab):
        machine = flooding_machine(ab)
        g = cycle_graph(ab, ["a", "b", "b"])
        for symbol in ("dAf", "dAF"):
            assert decide(automaton(machine, symbol), g).verdict is Verdict.ACCEPT

    def test_synchronous_selection(self, ab):
        machine = flooding_machine(ab)
        auto = automaton(machine, "dAf", selection=SelectionMode.SYNCHRONOUS)
        assert decide(auto, cycle_graph(ab, ["a", "b", "b"])).verdict is Verdict.ACCEPT

    def test_decides_same_on_families(self, ab):
        machine = flooding_machine(ab)
        auto = automaton(machine, "dAf")
        graphs = [
            cycle_graph(ab, ["a", "b", "b"]),
            line_graph(ab, ["b", "a", "b"]),
            star_graph(ab, "b", ["a", "b"]),
        ]
        assert decides_same(auto, graphs)

    def test_decides_same_false_on_disagreement(self, ab):
        machine = flooding_machine(ab)
        auto = automaton(machine, "dAf")
        graphs = [
            cycle_graph(ab, ["a", "b", "b"]),  # accepts: an 'a' is present
            cycle_graph(ab, ["b", "b", "b"]),  # rejects: no 'a'
        ]
        assert not decides_same(auto, graphs)

    def test_decides_same_false_when_inconsistent(self, ab):
        # A uniformly INCONSISTENT verdict set is NOT "deciding the same":
        # the automaton decides nothing at all on these graphs.
        machine = flaky_machine(ab)
        auto = automaton(machine, "dAf")
        graphs = [cycle_graph(ab, ["a", "b", "b"]), line_graph(ab, ["b", "a", "b"])]
        assert not decides_same(auto, graphs)

    def test_decides_same_single_graph(self, ab):
        machine = flooding_machine(ab)
        auto = automaton(machine, "dAf")
        assert decides_same(auto, [cycle_graph(ab, ["a", "b", "b"])])

    def test_decides_same_propagates_budget(self, ab):
        machine = flooding_machine(ab)
        auto = automaton(machine, "dAf")
        with pytest.raises(StateSpaceTooLarge):
            decides_same(
                auto, [cycle_graph(ab, ["a", "b", "b", "b"])], max_configurations=2
            )

    def test_selection_mode_does_not_change_verdict(self, ab):
        """An empirical spot-check of the Esparza–Reiter collapse theorem."""
        machine = flooding_machine(ab)
        g = cycle_graph(ab, ["a", "b", "b"])
        verdicts = set()
        for mode in (SelectionMode.EXCLUSIVE, SelectionMode.SYNCHRONOUS, SelectionMode.LIBERAL):
            auto = automaton(machine, "dAF", selection=mode)
            verdicts.add(decide(auto, g).verdict)
        assert verdicts == {Verdict.ACCEPT}


# ---------------------------------------------------------------------- #
# Regression pins: exact outputs of the exploration and the deciders
# ---------------------------------------------------------------------- #
def _shape(config_graph):
    """A compact, order-preserving image of an explored configuration graph.

    Configurations become space-joined state strings in discovery order;
    successors and edges refer to configurations by that index, and each
    edge lists its selections (node ids joined) in enumeration order.
    """
    index = {c: i for i, c in enumerate(config_graph.configurations)}
    configurations = [" ".join(c) for c in config_graph.configurations]
    successors = [
        [index[nxt] for nxt in config_graph.successors[c]]
        for c in config_graph.configurations
    ]
    edges = [
        (index[src], index[dst], ["".join(map(str, sorted(s))) for s in sels])
        for (src, dst), sels in config_graph.edge_selections.items()
    ]
    return configurations, successors, edges


class TestExplorePins:
    def test_liberal_selection(self, ab):
        config_graph = explore(
            lucky_machine(ab), star_graph(ab, "a", ["b", "b"]), SelectionMode.LIBERAL
        )
        configurations, successors, edges = _shape(config_graph)
        assert configurations == [
            "token idle idle", "token ready idle", "token idle ready",
            "token ready ready", "done ready ready", "done idle ready",
            "done ready idle", "done idle idle", "done done ready",
            "done ready done", "done done done", "done idle done",
            "done done idle",
        ]
        assert successors == [
            [0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [4, 2, 1, 5, 6, 0, 7],
            [4, 8, 9, 10], [5, 8, 11, 10], [6, 12, 9, 10], [7, 12, 11, 10],
            [8, 10], [9, 10], [10], [11, 10], [12, 10],
        ]
        assert edges == [
            (0, 0, ["0"]), (0, 1, ["1", "01"]), (0, 2, ["2", "02"]),
            (0, 3, ["12", "012"]), (1, 1, ["0"]), (1, 0, ["1", "01"]),
            (1, 3, ["2", "02"]), (1, 2, ["12", "012"]), (2, 2, ["0"]),
            (2, 3, ["1", "01"]), (2, 0, ["2", "02"]), (2, 1, ["12", "012"]),
            (3, 4, ["0"]), (3, 2, ["1"]), (3, 1, ["2"]), (3, 5, ["01"]),
            (3, 6, ["02"]), (3, 0, ["12"]), (3, 7, ["012"]), (4, 4, ["0"]),
            (4, 8, ["1", "01"]), (4, 9, ["2", "02"]), (4, 10, ["12", "012"]),
            (5, 5, ["0"]), (5, 8, ["1", "01"]), (5, 11, ["2", "02"]),
            (5, 10, ["12", "012"]), (6, 6, ["0"]), (6, 12, ["1", "01"]),
            (6, 9, ["2", "02"]), (6, 10, ["12", "012"]), (7, 7, ["0"]),
            (7, 12, ["1", "01"]), (7, 11, ["2", "02"]), (7, 10, ["12", "012"]),
            (8, 8, ["0", "1", "01"]), (8, 10, ["2", "02", "12", "012"]),
            (9, 9, ["0", "2", "02"]), (9, 10, ["1", "01", "12", "012"]),
            (10, 10, ["0", "1", "2", "01", "02", "12", "012"]),
            (11, 11, ["0", "2", "02"]), (11, 10, ["1", "01", "12", "012"]),
            (12, 12, ["0", "1", "01"]), (12, 10, ["2", "02", "12", "012"]),
        ]

    def test_synchronous_selection(self, ab):
        config_graph = explore(
            flaky_machine(ab), line_graph(ab, ["a", "b", "b", "a"]),
            SelectionMode.SYNCHRONOUS,
        )
        assert _shape(config_graph) == (
            ["ping ping ping ping", "pong pong pong pong"],
            [[1], [0]],
            [(0, 1, ["0123"]), (1, 0, ["0123"])],
        )

    def test_explicit_start(self, ab):
        config_graph = explore(
            flooding_machine(ab), cycle_graph(ab, ["b", "b", "b", "b"]),
            start=("no", "yes", "no", "no"),
        )
        assert config_graph.initial == ("no", "yes", "no", "no")
        assert _shape(config_graph) == (
            ["no yes no no", "yes yes no no", "no yes yes no", "yes yes yes no",
             "yes yes no yes", "no yes yes yes", "yes yes yes yes"],
            [[1, 0, 2], [1, 3, 4], [3, 2, 5], [3, 6], [4, 6], [6, 5], [6]],
            [(0, 1, ["0"]), (0, 0, ["1", "3"]), (0, 2, ["2"]), (1, 1, ["0", "1"]),
             (1, 3, ["2"]), (1, 4, ["3"]), (2, 3, ["0"]), (2, 2, ["1", "2"]),
             (2, 5, ["3"]), (3, 3, ["0", "1", "2"]), (3, 6, ["3"]),
             (4, 4, ["0", "1", "3"]), (4, 6, ["2"]), (5, 6, ["0"]),
             (5, 5, ["1", "2", "3"]), (6, 6, ["0", "1", "2", "3"])],
        )


class TestDeciderPins:
    def test_adversarial_flaky(self, ab):
        report = decide_adversarial(flaky_machine(ab), cycle_graph(ab, ["a", "a", "a"]))
        assert (report.verdict, report.configuration_count, report.bottom_scc_count) == (
            Verdict.INCONSISTENT, 8, 0,
        )
        assert report.witness == ("pong", "ping", "ping")

    def test_adversarial_lucky(self, ab):
        report = decide_adversarial(lucky_machine(ab), star_graph(ab, "a", ["b", "b"]))
        assert (report.verdict, report.configuration_count, report.bottom_scc_count) == (
            Verdict.INCONSISTENT, 8, 0,
        )
        assert report.witness == ("token", "idle", "idle")

    # Fuzz campaign -> (verdict, configuration_count, bottom_scc_count, witness,
    # table_size, misses) of the exact decision on the campaign's first
    # triple, under the oracle's budget, with a cold compiled table.  Covers
    # broadcast-compiled, rendez-vous-compiled (nl-exists), threshold and
    # combinator machines; 30 (degree-5 star), 34 (line) and 24 are the
    # corpus's largest explorations.  The table statistics pin
    # the number of δ evaluations.
    FUZZ_CAMPAIGNS = {
        2: (Verdict.REJECT, 1079, 1, (
            ("#broadcast-phase", 1, 2, 2), ("#broadcast-phase", 1, 2, 2),
            ("#broadcast-phase", 1, 2, 2), ("#broadcast-phase", 1, 2, 2),
            ("#broadcast-phase", 1, 2, 2), ("#broadcast-phase", 2, 2, 2),
        ), 260, 260),
        17: (Verdict.REJECT, 26, 1, (
            ("yes", 0), ("yes", ("#broadcast-phase", 1, 0, 1)),
            ("yes", ("#broadcast-phase", 1, 1, 1)),
        ), 44, 44),
        20: (Verdict.REJECT, 1012, 1, (
            (("0", "idle"), "idle"),
            ((("#rv-confirm", "L", "L'"), "idle"), "idle"),
            ((("#rv-answer", "0"), "idle"), "idle"),
        ), 516, 516),
        24: (Verdict.ACCEPT, 1990, 1, None, 1014, 1014),
        28: (Verdict.ACCEPT, 1244, 1, None, 989, 989),
        30: (Verdict.ACCEPT, 2010, 1, None, 182, 182),
        34: (Verdict.REJECT, 3052, 2, (
            ("#broadcast-phase", 1, 0, 1), ("#broadcast-phase", 2, 0, 1),
            ("#broadcast-phase", 1, 1, 1), 0, ("#broadcast-phase", 2, 2, 1),
            ("#broadcast-phase", 1, 0, 1),
        ), 280, 280),
        36: (Verdict.REJECT, 91, 2, (
            ("#broadcast-phase", 1, 1, 2), ("#broadcast-phase", 1, 2, 2),
            ("#broadcast-phase", 2, 0, 2),
        ), 154, 154),
        38: (Verdict.ACCEPT, 141, 1, None, 131, 131),
        45: (Verdict.ACCEPT, 88, 1, None, 129, 129),
    }

    @staticmethod
    def campaign_decision(campaign):
        triple = sample_triple(derive_seed(campaign, 0))
        machine, graph, _ = build_triple(triple)
        config = OracleConfig()
        cap = (
            config.nl_max_configurations
            if triple["machine"].get("kind") == "nl-exists"
            else config.max_configurations
        )
        return machine, graph, decide_pseudo_stochastic(machine, graph, max_configurations=cap)

    @pytest.mark.parametrize("campaign", sorted(FUZZ_CAMPAIGNS))
    def test_fuzz_campaign_report(self, campaign):
        machine, _, report = self.campaign_decision(campaign)
        compiled = compile_machine(machine)
        assert (
            report.verdict, report.configuration_count, report.bottom_scc_count,
            report.witness, compiled.table_size, compiled.misses,
        ) == self.FUZZ_CAMPAIGNS[campaign]

    def test_canonical_keys_are_built_once_per_neighbour_multiset(self, monkeypatch):
        # Campaign 30's degree-5 centre sees the same neighbour multiset in
        # many orders; the exploration must build its canonical key only
        # when the (own state, neighbour multiset) pair is new.
        calls = []

        def counting(*args):
            calls.append(args)
            return canonical_view_key(*args)

        monkeypatch.setattr(verification, "canonical_view_key", counting)
        machine, graph, report = self.campaign_decision(30)
        built = len(calls)
        config_graph = explore(machine, graph, max_configurations=20_000)
        assert config_graph.size == report.configuration_count
        pairs = {
            (c[v], frozenset(Counter(c[u] for u in graph.neighbors(v)).items()))
            for c in config_graph.configurations
            for v in graph.nodes()
        }
        assert 0 < built <= len(pairs)


def _machine_case(ab, live):
    if live:
        return flooding_machine(ab), cycle_graph(ab, ["a", "b", "b", "b"])
    # Campaign 6: no node of the 6-clique is ever enabled.
    machine, graph, _ = build_triple(sample_triple(derive_seed(6, 0)))
    return machine, graph


def _model_graph(ab, live, labels):
    # A single node has one reachable configuration in every model below.
    return cycle_graph(ab, labels) if live else line_graph(ab, ["b"])


def _automaton_case(ab, live):
    machine, graph = _machine_case(ab, live)
    return automaton(machine, "DAF" if machine.beta > 1 else "dAF"), graph


def _decide_automaton(ab, live, budget):
    auto, graph = _automaton_case(ab, live)
    return decide(auto, graph, max_configurations=budget)


def _decides_same(ab, live, budget):
    auto, graph = _automaton_case(ab, live)
    return decides_same(auto, [graph], max_configurations=budget)


def _by_bottom_sccs(ab, live, budget):
    return decide_by_bottom_sccs(
        0, lambda c: [(c + 1) % 3] if live else [c],
        lambda c: True, lambda c: False, max_configurations=budget,
    )


def _broadcast(ab, live, budget):
    return threshold_broadcast_machine(ab, "a", 2).decide_pseudo_stochastic(
        _model_graph(ab, live, ["a", "a", "b"]), max_configurations=budget
    )


def _rendezvous(ab, live, budget):
    return majority_with_movement(ab).decide_pseudo_stochastic(
        _model_graph(ab, live, ["a", "a", "b"]), max_configurations=budget
    )


def _strong_broadcast(ab, live, budget):
    return exists_broadcast_protocol(ab, "a").decide_pseudo_stochastic(
        _model_graph(ab, live, ["a", "b", "b"]), max_configurations=budget
    )


def _population(ab, live, budget):
    count = {"a": 2, "b": 1} if live else {"a": 1, "b": 0}
    return four_state_majority(ab).decide(
        LabelCount.from_mapping(ab, count), max_configurations=budget
    )


class TestBudgetValidation:
    """Every exploration refuses a budget below one configuration, whether
    the input has one reachable configuration (dead) or many (live)."""

    ENTRY_POINTS = {
        "explore": lambda ab, live, budget: explore(
            *_machine_case(ab, live), max_configurations=budget
        ),
        "decide_pseudo_stochastic": lambda ab, live, budget: decide_pseudo_stochastic(
            *_machine_case(ab, live), max_configurations=budget
        ),
        "decide_adversarial": lambda ab, live, budget: decide_adversarial(
            *_machine_case(ab, live), max_configurations=budget
        ),
        "reachable_stably_accepting": lambda ab, live, budget: reachable_stably_accepting(
            *_machine_case(ab, live), max_configurations=budget
        ),
        "decide": _decide_automaton,
        "decides_same": _decides_same,
        "decide_by_bottom_sccs": _by_bottom_sccs,
        "broadcast": _broadcast,
        "rendezvous": _rendezvous,
        "strong_broadcast": _strong_broadcast,
        "population": _population,
    }

    @pytest.mark.parametrize("budget", [0, -5])
    @pytest.mark.parametrize("live", [False, True], ids=["dead", "live"])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_budget_below_one_is_refused(self, ab, entry, live, budget):
        with pytest.raises(ValueError, match="max_configurations must be at least 1"):
            self.ENTRY_POINTS[entry](ab, live, budget)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_cases_are_dead_and_live(self, ab, entry):
        # A budget of one fits the dead case exactly and not the live one.
        self.ENTRY_POINTS[entry](ab, False, 1)
        with pytest.raises(StateSpaceTooLarge):
            self.ENTRY_POINTS[entry](ab, True, 1)


class TestClosedComponents:
    @staticmethod
    def random_digraph(rng):
        count = rng.randint(1, 40)
        shape = rng.choice(["random", "chain", "sparse"])
        rows = []
        for node in range(count):
            if shape == "chain":
                row = [node + 1] if node + 1 < count else []
            else:
                row = [rng.randrange(count) for _ in range(rng.randint(0, 3))]
            if rng.random() < 0.2:
                row.append(node)  # self-loop
            if row and rng.random() < 0.2:
                row.append(rng.choice(row))  # duplicate edge
            if shape == "sparse" and rng.random() < 0.3:
                row = []  # sink
            if shape == "chain" and rng.random() < 0.1:
                row.append(rng.randrange(count))  # back or forward jump
            rows.append(tuple(row))
        return rows

    @staticmethod
    def reachable(successors, node):
        seen = {node}
        frontier = [node]
        while frontier:
            for nxt in successors[frontier.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    def test_tarjan_marks_exactly_the_closed_components(self):
        rng = random.Random(20)
        for _ in range(400):
            successors = self.random_digraph(rng)
            components, closed = _tarjan(successors)
            expected = [
                component
                for component in components
                if all(
                    nxt in component for member in component for nxt in successors[member]
                )
            ]
            assert _bottoms(successors) == expected
            assert [c for c, ok in zip(components, closed) if ok] == expected
            # Independently of Tarjan: a node lies in a bottom SCC iff every
            # node it reaches reaches it back.
            in_bottom = {
                node
                for node in range(len(successors))
                if all(node in self.reachable(successors, other)
                       for other in self.reachable(successors, node))
            }
            assert {m for c in expected for m in c} == in_bottom


class TestExclusiveExploration:
    """The exclusive-selection loop against the definition of ``succ(C, {v})``."""

    @staticmethod
    def by_definition(machine, graph):
        """Breadth-first from the initial configuration: every node's
        successor in node order, selections grouped by the successor they
        induce (so the idle nodes join ``C`` at the first idle position)."""
        initial = tuple(machine.initial_state(graph.label_of(v)) for v in graph.nodes())
        configurations = [initial]
        known = {initial}
        successors = {}
        edge_selections = {}
        for configuration in configurations:
            grouped: dict = {}
            for v in graph.nodes():
                nxt = successor(machine, graph, configuration, {v})
                grouped.setdefault(nxt, []).append(frozenset({v}))
                if nxt not in known:
                    known.add(nxt)
                    configurations.append(nxt)
            successors[configuration] = tuple(grouped)
            for nxt, selections in grouped.items():
                edge_selections[(configuration, nxt)] = tuple(selections)
        return configurations, successors, edge_selections

    @pytest.mark.parametrize("kind", ["flooding", "broadcast"])
    def test_successors_and_selections_match_the_definition(self, ab, kind):
        machine = (
            flooding_machine(ab)
            if kind == "flooding"
            else compile_broadcasts(threshold_broadcast_machine(ab, "a", 2))
        )
        graphs = 0
        for n in (3, 4):
            for labels in itertools.product("ab", repeat=n):
                for make in (line_graph, cycle_graph):
                    graph = make(ab, list(labels))
                    config_graph = explore(machine, graph)
                    configurations, successors, edge_selections = self.by_definition(
                        machine, graph
                    )
                    assert config_graph.configurations == configurations
                    assert list(config_graph.successors.items()) == list(successors.items())
                    assert list(config_graph.edge_selections.items()) == list(
                        edge_selections.items()
                    )
                    graphs += 1
        assert graphs == 2 * (2**3 + 2**4)

    @pytest.mark.parametrize("budget", [1, 5, 40])
    def test_overflow_folds_every_expanded_configuration(self, ab, budget):
        # The overflow is raised once the configuration that discovered one
        # configuration too many has resolved all its nodes.
        graph = cycle_graph(ab, ["a", "b", "a", "b"])
        machine = compile_broadcasts(threshold_broadcast_machine(ab, "a", 2))
        with pytest.raises(StateSpaceTooLarge):
            explore(machine, graph, max_configurations=budget)
        compiled = compile_machine(machine)
        lookups = compiled.hits + compiled.misses
        full = explore(
            compile_broadcasts(threshold_broadcast_machine(ab, "a", 2)), graph
        )
        index = {c: i for i, c in enumerate(full.configurations)}
        discovered = 1
        expanded = 0
        while discovered <= budget:
            configuration = full.configurations[expanded]
            expanded += 1
            discovered = max(
                discovered, 1 + max(index[c] for c in full.successors[configuration])
            )
        assert full.size > budget
        assert lookups == expanded * graph.num_nodes
        assert compiled.misses == compiled.table_size > 0


class TestSharedCompiledTable:
    def test_explore_folds_lookups_into_the_table_stats(self, ab):
        machine = flooding_machine(ab)
        graph = cycle_graph(ab, ["a", "b", "b", "b"])
        config_graph = explore(machine, graph)
        compiled = compile_machine(machine)
        # One lookup per (configuration, node), flushed through
        # record_lookups; every miss memoised one table entry.
        assert compiled.hits + compiled.misses == config_graph.size * graph.num_nodes
        assert compiled.misses == compiled.table_size > 0
        assert compiled.stats()["hit_rate"] == compiled.hits / (
            compiled.hits + compiled.misses
        )

    def test_decision_memoises_every_view_a_run_can_reach(self):
        machine, graph, _ = build_triple(sample_triple(derive_seed(38, 0)))
        report = decide_pseudo_stochastic(machine, graph, max_configurations=20_000)
        assert report.verdict is Verdict.ACCEPT
        compiled = compile_machine(machine)
        misses, hits = compiled.misses, compiled.hits
        assert misses > 0
        for seed in range(3):
            COMPILED_BACKEND.run(
                machine, graph, RandomExclusiveSchedule(seed=seed),
                max_steps=2_000, stability_window=300,
            )
        assert compiled.misses == misses
        assert compiled.hits > hits
