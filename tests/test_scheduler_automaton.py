"""Tests for schedulers and the class taxonomy (the Figure 1 table: test_figure1.py)."""

from __future__ import annotations

import pytest

from repro.core.automaton import ALL_CLASSES, AutomatonClass, DistributedAutomaton, automaton
from repro.core.graphs import cycle_graph
from repro.core.labels import Alphabet
from repro.core.machine import DistributedMachine
from repro.core.scheduler import (
    Fairness,
    RandomExclusiveSchedule,
    RandomLiberalSchedule,
    RoundRobinSchedule,
    Scheduler,
    SelectionMode,
    StarvingSchedule,
    SynchronousSchedule,
    is_fair_prefix,
    permitted_selections,
)


@pytest.fixture
def ab():
    return Alphabet.of("a", "b")


@pytest.fixture
def five_cycle(ab):
    return cycle_graph(ab, ["a", "b", "a", "b", "a"])


def dummy_machine(ab, beta=1):
    return DistributedMachine(
        alphabet=ab, beta=beta, init=lambda l: l, delta=lambda q, n: q, name="dummy"
    )


class TestSelections:
    def test_synchronous_single_selection(self, five_cycle):
        sels = permitted_selections(five_cycle, SelectionMode.SYNCHRONOUS)
        assert sels == [frozenset(range(5))]

    def test_exclusive_selections(self, five_cycle):
        sels = permitted_selections(five_cycle, SelectionMode.EXCLUSIVE)
        assert len(sels) == 5
        assert all(len(s) == 1 for s in sels)

    def test_liberal_selections(self, five_cycle):
        sels = permitted_selections(five_cycle, SelectionMode.LIBERAL)
        assert len(sels) == 2**5 - 1

    def test_every_node_occurs_in_some_selection(self, five_cycle):
        for mode in SelectionMode:
            covered = set()
            for selection in permitted_selections(five_cycle, mode):
                covered |= selection
            assert covered == set(five_cycle.nodes())


class TestScheduleGenerators:
    def test_synchronous_prefix(self, five_cycle):
        prefix = SynchronousSchedule().prefix(five_cycle, 3)
        assert prefix == [frozenset(range(5))] * 3

    def test_round_robin_is_fair(self, five_cycle):
        prefix = RoundRobinSchedule().prefix(five_cycle, 5)
        assert is_fair_prefix(five_cycle, prefix)

    def test_random_exclusive_is_eventually_fair(self, five_cycle):
        prefix = RandomExclusiveSchedule(seed=7).prefix(five_cycle, 200)
        assert is_fair_prefix(five_cycle, prefix)

    def test_random_liberal_selections_nonempty(self, five_cycle):
        prefix = RandomLiberalSchedule(seed=3).prefix(five_cycle, 50)
        assert all(len(s) >= 1 for s in prefix)

    def test_starving_schedule_still_selects_victim(self, five_cycle):
        prefix = StarvingSchedule(victim=2, period=7).prefix(five_cycle, 100)
        assert any(2 in s for s in prefix)
        assert is_fair_prefix(five_cycle, prefix)

    def test_round_robin_refuses_an_empty_order(self):
        # It would spin forever without yielding a selection.
        with pytest.raises(ValueError, match="at least one node"):
            RoundRobinSchedule(order=[])

    @pytest.mark.parametrize("period", [0, -3])
    def test_starving_schedule_refuses_a_period_below_one(self, period):
        # A zero period would divide by zero on the first draw.
        with pytest.raises(ValueError, match="period must be at least 1"):
            StarvingSchedule(period=period)

    def test_reproducibility_with_seed(self, five_cycle):
        a = RandomExclusiveSchedule(seed=11).prefix(five_cycle, 20)
        b = RandomExclusiveSchedule(seed=11).prefix(five_cycle, 20)
        assert a == b

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: RandomExclusiveSchedule(seed=5),
            lambda: RandomLiberalSchedule(seed=5, probability=0.4),
            lambda: RoundRobinSchedule(),
            lambda: SynchronousSchedule(),
            lambda: StarvingSchedule(victim=1, period=4),
        ],
        ids=["random-exclusive", "random-liberal", "round-robin", "synchronous", "starving"],
    )
    def test_every_generator_is_deterministic(self, five_cycle, factory):
        """Same construction ⇒ identical prefix, for every generator kind."""
        assert factory().prefix(five_cycle, 40) == factory().prefix(five_cycle, 40)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: RandomExclusiveSchedule(seed=5),
            lambda: RandomLiberalSchedule(seed=5, probability=0.4),
        ],
        ids=["random-exclusive", "random-liberal"],
    )
    def test_generators_ignore_global_random_state(self, five_cycle, factory):
        """Seeded generators draw from a private Random, never ``random.seed``."""
        import random as random_module

        random_module.seed(0)
        a = factory().prefix(five_cycle, 30)
        random_module.seed(12345)
        b = factory().prefix(five_cycle, 30)
        assert a == b

    def test_generators_do_not_consume_global_stream(self, five_cycle):
        import random as random_module

        random_module.seed(7)
        expected = [random_module.random() for _ in range(3)]
        random_module.seed(7)
        RandomExclusiveSchedule(seed=1).prefix(five_cycle, 50)
        RandomLiberalSchedule(seed=1).prefix(five_cycle, 50)
        observed = [random_module.random() for _ in range(3)]
        assert observed == expected

    def test_injected_rng_is_shared_and_continues(self, five_cycle):
        """An injected random.Random is used directly: successive prefixes
        continue its stream instead of restarting it."""
        import random as random_module

        shared = random_module.Random(99)
        schedule = RandomExclusiveSchedule(rng=shared)
        first = schedule.prefix(five_cycle, 10)
        second = schedule.prefix(five_cycle, 10)

        replay = random_module.Random(99)
        expected_first = RandomExclusiveSchedule(rng=replay).prefix(five_cycle, 10)
        expected_second = RandomExclusiveSchedule(rng=replay).prefix(five_cycle, 10)
        assert first == expected_first
        assert second == expected_second
        assert first != second  # vanishing probability of a 10-step collision


class TestAutomatonClass:
    def test_parse_and_symbol_roundtrip(self):
        for symbol in ("daf", "DAF", "dAf", "DaF"):
            assert AutomatonClass.parse(symbol).symbol == symbol

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            AutomatonClass.parse("xyz")
        with pytest.raises(ValueError):
            AutomatonClass.parse("DA")

    def test_all_classes_has_eight_members(self):
        assert len(ALL_CLASSES) == 8
        assert len({c.symbol for c in ALL_CLASSES}) == 8

    def test_strength_order(self):
        assert AutomatonClass.parse("DAF").at_least_as_strong_as(AutomatonClass.parse("daf"))
        assert not AutomatonClass.parse("dAf").at_least_as_strong_as(
            AutomatonClass.parse("Daf")
        )

    def test_automaton_class_consistency_checks(self, ab):
        with pytest.raises(ValueError):
            automaton(dummy_machine(ab, beta=1), "DAF")
        with pytest.raises(ValueError):
            automaton(dummy_machine(ab, beta=2), "dAF")
        auto = automaton(dummy_machine(ab, beta=2), "DAf")
        assert auto.automaton_class.symbol == "DAf"

    def test_with_selection(self, ab):
        auto = automaton(dummy_machine(ab), "dAf")
        sync = auto.with_selection(SelectionMode.SYNCHRONOUS)
        assert sync.selection is SelectionMode.SYNCHRONOUS
        assert sync.machine is auto.machine

    def test_scheduler_degenerate_fairness(self):
        sched = Scheduler(SelectionMode.SYNCHRONOUS, Fairness.ADVERSARIAL)
        assert sched.is_degenerate_fairness
