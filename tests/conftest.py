"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core import Alphabet, cycle_graph, line_graph, star_graph
from repro.workloads.catalog import RECIPE_MACHINES


@pytest.fixture(autouse=True)
def _fresh_recipe_machines():
    """Start every test with the machines a fresh process would build.

    The catalog shares one machine (and so one compiled δ table) per
    scenario recipe per process; emptying the memo keeps a test from seeing
    the tables, or a patched ``delta``, another test left behind.
    """
    RECIPE_MACHINES.clear()


@pytest.fixture
def ab() -> Alphabet:
    """The two-letter alphabet used by the majority experiments."""
    return Alphabet.of("a", "b")


@pytest.fixture
def abc() -> Alphabet:
    return Alphabet.of("a", "b", "c")


@pytest.fixture
def small_cycle(ab):
    return cycle_graph(ab, ["a", "a", "b", "b", "a"])


@pytest.fixture
def small_line(ab):
    return line_graph(ab, ["a", "b", "a", "b"])


@pytest.fixture
def small_star(ab):
    return star_graph(ab, "a", ["b", "b", "a"])
