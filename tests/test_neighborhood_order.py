"""The order contract of neighbourhood views.

A :class:`~repro.core.machine.Neighborhood` keeps its capped counts as a map
with no order; only ``items()`` (and ``repr``) sorts, on first call.  These
tests hold the view to a copy of the eager class it replaced, which sorted
by ``repr`` when it was built, and hold every order-free fold to the same
fold iterating the sorted items.
"""

from __future__ import annotations

import itertools
import pickle
import random
import subprocess
import sys

import pytest

from repro.constructions import boolean, nl_automaton
from repro.core.machine import Neighborhood
from repro.extensions import absence_sim, broadcast_sim, rendezvous_sim


class EagerView:
    """The view as it was: capped counts sorted by ``repr`` when built."""

    def __init__(self, counts, beta, total=None):
        capped = {}
        raw_total = 0
        for state, count in counts.items():
            raw_total += count
            if count > 0:
                capped[state] = min(count, beta)
        self._beta = beta
        self._counts = tuple(sorted(capped.items(), key=repr))
        self._total = raw_total if total is None else total

    @classmethod
    def from_capped(cls, items, beta, total):
        view = cls.__new__(cls)
        view._beta = beta
        view._counts = tuple(sorted(items, key=repr))
        view._total = total
        return view

    @property
    def degree(self):
        return self._total

    def count(self, state):
        for s, c in self._counts:
            if s == state:
                return c
        return 0

    def has(self, state):
        return self.count(state) > 0

    def count_where(self, predicate):
        return sum(c for s, c in self._counts if predicate(s))

    def states(self):
        return frozenset(s for s, _ in self._counts)

    def items(self):
        return self._counts

    def all_in(self, allowed):
        allowed_set = set(allowed)
        return all(s in allowed_set for s, _ in self._counts)

    def __eq__(self, other):
        return (
            self._beta == other._beta
            and self._counts == other._counts
            and self._total == other._total
        )

    def __hash__(self):
        return hash((self._beta, self._counts, self._total))

    def __repr__(self):
        inner = ", ".join(f"{s!r}: {c}" for s, c in self._counts)
        return f"Neighborhood(beta={self._beta}, degree={self._total}, {{{inner}}})"


class Bare(str):
    """A state whose repr is its bare text, so that one repr can be a
    prefix of another followed by a character that sorts before ``,``:
    then sorting by ``repr((state, count))`` and by ``repr(state)`` differ."""

    def __repr__(self):
        return str(self)


#: States whose reprs share prefixes, and nested tuples.
STATES = (
    1, 12, 2, 120, -1, "a", "ab", "b", "a b", (1,), (1, 2), (12, 1),
    (1, (2, "a")), ("a", ("ab", 1)), ("a", ("a", 1)), ((1, 2), 3), None,
    Bare("q"), Bare("q r"), Bare("q!"), Bare("q,"),
)


def random_counts(rng: random.Random) -> dict:
    states = rng.sample(STATES, rng.randint(0, 6))
    return {state: rng.randint(0, 5) for state in states}


def shuffled(counts: dict, rng: random.Random) -> dict:
    pairs = list(counts.items())
    rng.shuffle(pairs)
    return dict(pairs)


class TestAgainstTheEagerView:
    @pytest.mark.parametrize("seed", range(8))
    def test_every_reader_agrees(self, seed):
        rng = random.Random(seed)
        for _ in range(150):
            counts = random_counts(rng)
            beta = rng.randint(1, 3)
            total = rng.choice([None, sum(counts.values()) + rng.randint(0, 4)])
            view = Neighborhood(shuffled(counts, rng), beta, total=total)
            eager = EagerView(counts, beta, total=total)
            assert view.items() == eager.items()
            assert repr(view) == repr(eager)
            assert view.degree == eager.degree
            assert view.states() == eager.states()
            assert dict(view.unordered_items()) == dict(eager.items())
            for state in STATES:
                assert view.count(state) == view[state] == eager.count(state)
                assert view.has(state) == eager.has(state)
                assert view.count(state) <= beta
            allowed = rng.sample(STATES, rng.randint(0, len(STATES)))
            assert view.all_in(allowed) == eager.all_in(allowed)
            for predicate in (
                lambda s: isinstance(s, int),
                lambda s: isinstance(s, tuple),
                lambda s: repr(s).startswith("1"),
            ):
                assert view.count_where(predicate) == eager.count_where(predicate)

    @pytest.mark.parametrize("seed", range(4))
    def test_from_capped_agrees(self, seed):
        rng = random.Random(seed)
        for _ in range(150):
            beta = rng.randint(1, 3)
            states = rng.sample(STATES, rng.randint(0, 6))
            items = [(state, rng.randint(1, beta)) for state in states]
            total = sum(c for _, c in items) + rng.randint(0, 3)
            view = Neighborhood.from_capped(items, beta, total)
            eager = EagerView.from_capped(items, beta, total)
            assert view.items() == eager.items() and repr(view) == repr(eager)
            assert view == Neighborhood(dict(items), beta, total=total)

    @pytest.mark.parametrize("seed", range(4))
    def test_equality_and_hash_classes_agree(self, seed):
        # A small domain, so that many pairs of views are equal.
        rng = random.Random(seed)
        domain = ("a", "ab", 1, 12, (1, "a"))
        pairs = []
        for _ in range(120):
            counts = {s: rng.randint(0, 3) for s in rng.sample(domain, rng.randint(0, 3))}
            beta = rng.randint(1, 2)
            total = rng.choice([None, 5])
            pairs.append((
                Neighborhood(shuffled(counts, rng), beta, total=total),
                EagerView(counts, beta, total=total),
            ))
        for (view, eager), (other, other_eager) in itertools.combinations(pairs, 2):
            assert (view == other) == (eager == other_eager)
            if view == other:
                assert hash(view) == hash(other)
        assert any(v == w for (v, _), (w, _) in itertools.combinations(pairs, 2))

    def test_the_order_is_by_the_repr_of_each_pair(self):
        view = Neighborhood({Bare("q"): 1, Bare("q r"): 1}, beta=1)
        assert view.items() == ((Bare("q r"), 1), (Bare("q"), 1))

    def test_insertion_order_is_not_observable(self):
        first = Neighborhood({"ab": 1, "a": 2, 12: 1, 1: 3}, beta=2)
        second = Neighborhood({1: 3, 12: 1, "a": 2, "ab": 1}, beta=2)
        assert first == second and hash(first) == hash(second)
        assert first.items() == second.items() and repr(first) == repr(second)


class TestPickling:
    def test_a_reloaded_view_hashes_and_compares(self):
        view = Neighborhood({"a": 3, ("b", 1): 1, 12: 2}, beta=2, total=7)
        view.items()  # fill the cached order before pickling
        loaded = pickle.loads(pickle.dumps(view))
        assert loaded == view and hash(loaded) == hash(view)
        assert loaded.items() == view.items() and repr(loaded) == repr(view)
        assert {view: "x"}[loaded] == "x"

    def test_a_view_reloaded_under_another_string_hash_seed(self):
        """Spawned workers seed string hashing differently: a view pickled
        in one process must hash like a fresh view in the other."""
        view = Neighborhood({"a": 3, ("b", "c"): 1, "ab": 2}, beta=2, total=7)
        hash(view), view.items()
        script = (
            "import pickle, sys\n"
            "from repro.core.machine import Neighborhood\n"
            "loaded = pickle.loads(sys.stdin.buffer.read())\n"
            "fresh = Neighborhood({'ab': 2, ('b', 'c'): 1, 'a': 3}, beta=2, total=7)\n"
            "assert loaded == fresh and hash(loaded) == hash(fresh)\n"
            "assert {fresh: 1}[loaded] == 1 and loaded.items() == fresh.items()\n"
        )
        for seed in ("1", "2"):
            result = subprocess.run(
                [sys.executable, "-c", script],
                input=pickle.dumps(view),
                env={"PYTHONHASHSEED": seed, "PYTHONPATH": ":".join(sys.path)},
                capture_output=True,
            )
            assert result.returncode == 0, result.stderr.decode()


class CountedRepr:
    """A state that counts the calls of its ``__repr__``."""

    calls = 0

    def __init__(self, name):
        self.name = name

    def __eq__(self, other):
        return isinstance(other, CountedRepr) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        CountedRepr.calls += 1
        return f"CountedRepr({self.name!r})"


class TestReprIsCalledOnlyForTheOrder:
    def test_building_projecting_counting_comparing_and_hashing(self):
        p, q, r = CountedRepr("p"), CountedRepr("q"), CountedRepr("r")
        CountedRepr.calls = 0
        view = Neighborhood({(p, q): 2, (q, r): 1, (p, r): 3}, beta=2)
        decoded = Neighborhood.from_capped([((q, r), 1), ((p, q), 2), ((p, r), 2)], 2, 6)
        first = boolean._project(view, 0, 2)
        second = boolean._project(view, 1, 2)
        assert view == decoded and hash(view) == hash(decoded)
        assert first.count(p) == 2 and first[q] == 1 and first.has(p)
        assert second.count_where(lambda s: s in (q, r)) == 4
        assert first.states() == {p, q} and first.all_in([p, q])
        assert dict(view.unordered_items())[(p, r)] == 2
        assert {view: 1}[decoded] == 1
        assert CountedRepr.calls == 0

    def test_items_and_repr_call_it_once_per_state_and_view(self):
        states = [CountedRepr(name) for name in "zyxw"]
        view = Neighborhood(dict.fromkeys(states, 1), beta=1)
        CountedRepr.calls = 0
        view.items()
        assert CountedRepr.calls == len(states)
        view.items(), repr(view), repr(view)
        assert CountedRepr.calls == len(states)
        fresh = Neighborhood(dict.fromkeys(states, 1), beta=1)
        repr(fresh)
        assert CountedRepr.calls == 2 * len(states)


# --------------------------------------------------------------------- #
# The order-free folds against the same folds over the sorted items.
# --------------------------------------------------------------------- #
def sorted_project(view, index, beta):
    counts = {}
    for state, count in view.items():
        counts[state[index]] = counts.get(state[index], 0) + count
    return Neighborhood(counts, beta, total=view.degree)


def sorted_project_token(view, beta):
    counts = {}
    for state, count in view.items():
        counts[state[0][0]] = counts.get(state[0][0], 0) + count
    return Neighborhood(counts, beta, total=view.degree)


def sorted_restrict_to_phase0(view, beta):
    counts = {s: c for s, c in view.items() if not broadcast_sim.is_phase_state(s)}
    return Neighborhood(counts, beta, total=view.degree)


def sorted_phases_seen(view):
    phases = {broadcast_sim.phase_of(s) for s, _ in view.items()}
    return 0 in phases, 1 in phases, 2 in phases


def sorted_old_view(view, beta):
    counts = {}
    for state, count in view.items():
        phase = absence_sim.phase_of(state)
        if phase == 0:
            counts[state] = counts.get(state, 0) + count
        elif phase == 1:
            counts[state[2]] = counts.get(state[2], 0) + count
    return Neighborhood(counts, beta, total=view.degree)


def sorted_partner(view):
    non_waiting = [(s, c) for s, c in view.items() if rendezvous_sim.status_of(s) != "waiting"]
    if not non_waiting:
        return "ALL_WAITING"
    if len(non_waiting) == 1 and non_waiting[0][1] == 1:
        return non_waiting[0][0]
    return None


def all_views(states, beta):
    """Every view of degree 0-3 over ``states``, built in scrambled order."""
    rng = random.Random(len(states) * 10 + beta)
    for degree in range(4):
        for multiset in itertools.combinations_with_replacement(states, degree):
            counts = {}
            for state in multiset:
                counts[state] = counts.get(state, 0) + 1
            pairs = list(counts.items())
            rng.shuffle(pairs)
            yield Neighborhood(dict(pairs), beta, total=degree)


PRODUCT_STATES = [(a, b) for a in ("a", "ab", 1) for b in (12, "b", (1, 2))]
TOKEN_STATES = [((t, q), q0) for t in ("L", ("L", 1), "#rv") for q in ("x", "xy") for q0 in ("x",)]
BROADCAST_STATES = [
    "q", "qr", 1, 12,
    broadcast_sim.make_phase_state(1, "q", "qr"),
    broadcast_sim.make_phase_state(2, "qr", "q"),
    broadcast_sim.make_phase_state(1, 12, 1),
]
ABSENCE_STATES = [
    "q", "qr", 1,
    absence_sim.phase1_state("qr", "q", absence_sim.ROOT),
    absence_sim.phase1_state("q", "q", 1),
    absence_sim.phase1_state(1, 12, 2),
    absence_sim.phase2_state("q", frozenset({"q", "qr"})),
]
RENDEZVOUS_STATES = [
    "q", "qr", 1,
    rendezvous_sim.searching("q"),
    rendezvous_sim.answering("qr"),
    rendezvous_sim.confirming("q", "qr"),
    rendezvous_sim.searching(12),
]


def same_view(view, expected):
    return view == expected and view.items() == expected.items()


class TestFoldsAgreeWithTheSortedFolds:
    @pytest.mark.parametrize("beta", [1, 2])
    def test_product_projection(self, beta):
        for view in all_views(PRODUCT_STATES, beta):
            for index in (0, 1):
                assert same_view(
                    boolean._project(view, index, beta), sorted_project(view, index, beta)
                ), view

    @pytest.mark.parametrize("beta", [1, 2])
    def test_token_projection(self, beta):
        for view in all_views(TOKEN_STATES, beta):
            assert same_view(
                nl_automaton._project_token(view, beta), sorted_project_token(view, beta)
            ), view

    @pytest.mark.parametrize("beta", [1, 2])
    def test_broadcast_restriction_and_phase_scan(self, beta):
        for view in all_views(BROADCAST_STATES, beta):
            assert same_view(
                broadcast_sim._restrict_to_phase0(view, beta),
                sorted_restrict_to_phase0(view, beta),
            ), view
            assert broadcast_sim._phases_seen(view) == sorted_phases_seen(view), view

    @pytest.mark.parametrize("beta", [1, 2])
    def test_absence_restriction(self, beta):
        for view in all_views(ABSENCE_STATES, beta):
            assert same_view(
                absence_sim._old_view(view, beta), sorted_old_view(view, beta)
            ), view

    @pytest.mark.parametrize("beta", [1, 2])
    def test_rendezvous_non_waiting_filter(self, beta):
        for view in all_views(RENDEZVOUS_STATES, beta):
            assert rendezvous_sim._partner(view) == sorted_partner(view), view
