"""Tests for the exact decision engine (bottom SCCs, fair lassos, verdicts)."""

from __future__ import annotations

import pytest

from repro.core.automaton import automaton
from repro.core.backends import COMPILED_BACKEND
from repro.core.batch import derive_seed
from repro.core.compile import compile_machine
from repro.core.graphs import cycle_graph, line_graph, star_graph
from repro.core.labels import Alphabet
from repro.core.machine import DistributedMachine, Neighborhood
from repro.core.scheduler import RandomExclusiveSchedule, SelectionMode
from repro.core.results import Verdict
from repro.core.verification import (
    StateSpaceTooLarge,
    bottom_sccs,
    decide,
    decide_adversarial,
    decide_pseudo_stochastic,
    decides_same,
    explore,
    reachable_stably_accepting,
    strongly_connected_components,
)
from repro.fuzz.descriptors import build_triple
from repro.fuzz.generators import sample_triple
from repro.fuzz.oracle import OracleConfig


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

    # Fuzz campaign -> (verdict, configuration_count, bottom_scc_count, witness)
    # of the exact decision on the campaign's first triple, under the oracle's
    # budget.  Covers broadcast-compiled, rendez-vous-compiled (nl-exists),
    # threshold and combinator machines.
    FUZZ_CAMPAIGNS = {
        2: (Verdict.REJECT, 1079, 1, (
            ("#broadcast-phase", 1, 2, 2), ("#broadcast-phase", 1, 2, 2),
            ("#broadcast-phase", 1, 2, 2), ("#broadcast-phase", 1, 2, 2),
            ("#broadcast-phase", 1, 2, 2), ("#broadcast-phase", 2, 2, 2),
        )),
        17: (Verdict.REJECT, 26, 1, (
            ("yes", 0), ("yes", ("#broadcast-phase", 1, 0, 1)),
            ("yes", ("#broadcast-phase", 1, 1, 1)),
        )),
        20: (Verdict.REJECT, 1012, 1, (
            (("0", "idle"), "idle"),
            ((("#rv-confirm", "L", "L'"), "idle"), "idle"),
            ((("#rv-answer", "0"), "idle"), "idle"),
        )),
        24: (Verdict.ACCEPT, 1990, 1, None),
        36: (Verdict.REJECT, 103, 2, (
            ("#broadcast-phase", 1, 1, 2), ("#broadcast-phase", 2, 2, 2),
            ("#broadcast-phase", 2, 0, 1),
        )),
        38: (Verdict.ACCEPT, 141, 1, None),
        45: (Verdict.ACCEPT, 103, 1, None),
    }

    @pytest.mark.parametrize("campaign", sorted(FUZZ_CAMPAIGNS))
    def test_fuzz_campaign_report(self, campaign):
        triple = sample_triple(derive_seed(campaign, 0))
        machine, graph, _ = build_triple(triple)
        config = OracleConfig()
        cap = (
            config.nl_max_configurations
            if triple["machine"].get("kind") == "nl-exists"
            else config.max_configurations
        )
        report = decide_pseudo_stochastic(machine, graph, max_configurations=cap)
        assert (
            report.verdict, report.configuration_count, report.bottom_scc_count,
            report.witness,
        ) == self.FUZZ_CAMPAIGNS[campaign]


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
