"""Differential matrix for the lockstep per-node batch engine.

The contract under test is the same one ``tests/test_vector_batch.py``
enforces for the count-level engine, now for workloads whose per-run engine
is the *compiled per-node* backend (non-clique graphs): for every eligible
workload and every ``run_many`` argument combination, the batch path in
:mod:`repro.core.vector_pernode` must produce a
:class:`~repro.core.batch.BatchResult` **byte-identical** to the sequential
per-run loop (``Workload.run_many_sequential``, the differential oracle) —
same verdicts, same step counts, same full
:class:`~repro.core.results.RunResult` objects (final configuration and
``stabilised_at`` included), same quorum truncation and ``stopped_early``
flag.

The matrix spans the non-clique graph families (cycle, line, star, grid,
ring-of-cliques), flooding and pseudo-random transition tables, batch sizes
``B ∈ {1, 8, 64}``, quorum early-stop and ``max_steps`` exhaustion; row
``j`` must also be the same at every small batch size the shipped specs
produce, and equal to the per-node reference run of its seed.  Instances whose rows reach a configuration with
no node enabled hold the rule that finishes such rows without drawing.

Marked ``batch`` (see ``pytest.ini``): the matrix runs in tier-1 and is also
exercised explicitly by the CI backends job.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.constructions import exists_label_machine
from repro.core.backends import PER_NODE_BACKEND
from repro.core.batch import collect_batch, derive_seed, quorum_target
from repro.core.compile import compile_machine
from repro.core.graphs import (
    cycle_graph,
    grid_graph,
    line_graph,
    ring_of_cliques,
    star_graph,
)
from repro.core.labels import Alphabet
from repro.core.machine import DistributedMachine
from repro.core.results import Verdict
from repro.core.scheduler import RandomExclusiveSchedule
from repro.core.vector_batch import VECTOR_BATCH, resolve_batch_backend
from repro.core.vector_pernode import VECTOR_PERNODE
from repro.obs.metrics import disable_metrics, enable_metrics
from repro.workloads import (
    CompiledMachineWorkload,
    EngineOptions,
    InstanceSpec,
    MachineWorkload,
    build_workload,
)
from repro.workloads.catalog import local_majority_machine

pytestmark = pytest.mark.batch

AB = Alphabet.of("a", "b")

NON_CLIQUE_FAMILIES = ("cycle", "line", "star", "grid", "ring-of-cliques")

BATCH_SIZES = (1, 8, 64)


# --------------------------------------------------------------------- #
# Instance generators
# --------------------------------------------------------------------- #
def family_graph(family: str, rng: random.Random):
    """A small random instance of one of the non-clique families.

    Sizes start above the degenerate clique cases (a 3-cycle is K3, a 2-line
    and a 1-leaf star are K2) so the per-run backend is always the compiled
    per-node one, never the count backend.
    """
    if family == "cycle":
        n = rng.randint(4, 9)
        return cycle_graph(AB, [rng.choice("ab") for _ in range(n)])
    if family == "line":
        n = rng.randint(3, 9)
        return line_graph(AB, [rng.choice("ab") for _ in range(n)])
    if family == "star":
        leaves = rng.randint(2, 6)
        return star_graph(
            AB, rng.choice("ab"), [rng.choice("ab") for _ in range(leaves)]
        )
    if family == "grid":
        rows, cols = rng.randint(2, 3), rng.randint(2, 4)
        labels = [rng.choice("ab") for _ in range(rows * cols)]
        return grid_graph(AB, rows, cols, labels)
    if family == "ring-of-cliques":
        sizes = [rng.randint(2, 4) for _ in range(rng.randint(2, 3))]
        labels = [rng.choice("ab") for _ in range(sum(sizes))]
        return ring_of_cliques(AB, sizes, labels)
    raise AssertionError(f"unknown family {family!r}")


def random_table_machine(master_seed: int) -> DistributedMachine:
    """A machine with a pseudo-random (but deterministic) transition table.

    The successor of ``(state, view)`` is drawn from a ``random.Random``
    keyed by the machine seed and the capped view, so delta is a genuine
    function and the sequential and lockstep engines observe identical
    dynamics — including runs that never stabilise and exhaust ``max_steps``.
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


def flooding_workload(family: str, case: int, **engine) -> MachineWorkload:
    """∃a flooding detector on a random instance of the family."""
    rng = random.Random(11_000 + 13 * case + NON_CLIQUE_FAMILIES.index(family))
    return MachineWorkload(
        machine=exists_label_machine(AB, "a"),
        graph=family_graph(family, rng),
        options=EngineOptions(max_steps=6_000, stability_window=60, **engine),
    )


def random_table_workload(family: str, case: int, **engine) -> MachineWorkload:
    """A pseudo-random machine on a random instance of the family.

    The tight ``max_steps`` makes exhaustion a routine outcome, so the
    matrix covers the UNDECIDED-at-the-bound path as a matter of course.
    """
    rng = random.Random(23_000 + 17 * case + NON_CLIQUE_FAMILIES.index(family))
    return MachineWorkload(
        machine=random_table_machine(31_000 + case),
        graph=family_graph(family, rng),
        options=EngineOptions(max_steps=400, stability_window=25, **engine),
    )


def assert_identical(workload, runs, base_seed=0, **kwargs):
    """The core assertion: lockstep batch == sequential oracle, byte for byte,
    and every row is the per-node reference run of its seed."""
    assert resolve_batch_backend(workload) is VECTOR_PERNODE
    batched = workload.run_many(
        runs=runs, base_seed=base_seed, keep_results=True, **kwargs
    )
    oracle = workload.run_many_sequential(
        runs=runs, base_seed=base_seed, keep_results=True, **kwargs
    )
    assert batched == oracle
    options = workload.options
    for j, row in enumerate(batched.results):
        assert row == PER_NODE_BACKEND.run(
            workload.machine,
            workload.graph,
            RandomExclusiveSchedule(seed=derive_seed(base_seed, j)),
            max_steps=options.max_steps,
            stability_window=options.stability_window,
        ), f"row {j} differs from the reference run"
    return batched


def flooding_on(labels: str, graph=line_graph, **options) -> MachineWorkload:
    """∃a flooding on a fixed instance (see :data:`DEAD_ROW_CASES`)."""
    return MachineWorkload(
        machine=exists_label_machine(AB, "a"),
        graph=graph(AB, list(labels)),
        options=EngineOptions(**options),
    )


def with_counters(run):
    """``(run(), counters)`` with the metrics registry live during the call."""
    registry = enable_metrics(reset=True)
    try:
        return run(), registry.snapshot().counters
    finally:
        disable_metrics()


SKIPPED = "engine.silent_steps_skipped{engine=vector-pernode}"

#: Rows that reach a configuration with no node enabled, which the row loop
#: finishes without drawing.  Flooding on all-``b`` labels is dead
#: (rejecting) from step 0; with an ``a`` it dies after the last flip,
#: part-way through the streak.  ``test_max_steps_exhaustion`` holds rows
#: dead from step 0 without a consensus, the quorum tests rows that die
#: before the fold stops.
DEAD_ROW_CASES = {
    "dead-at-start-with-consensus": lambda: flooding_on(
        "bbbbb", cycle_graph, max_steps=6_000, stability_window=60
    ),
    "dies-mid-streak": lambda: flooding_on(
        "abbbbb", max_steps=6_000, stability_window=60
    ),
    "window-equals-budget-dead-at-start": lambda: flooding_on(
        "bbbbb", cycle_graph, max_steps=60, stability_window=60
    ),
    "window-above-budget-dead-at-start": lambda: flooding_on(
        "bbbbb", cycle_graph, max_steps=50, stability_window=80
    ),
    "window-above-budget": lambda: flooding_on(
        "abbbbb", max_steps=50, stability_window=80
    ),
    "star": lambda: flooding_on(
        "bbabbb",
        lambda alphabet, labels: star_graph(alphabet, labels[0], labels[1:]),
        max_steps=6_000,
        stability_window=60,
    ),
}


# --------------------------------------------------------------------- #
# Eligibility: the ladder's third rung
# --------------------------------------------------------------------- #
class TestEligibility:
    @pytest.mark.parametrize("family", NON_CLIQUE_FAMILIES)
    def test_non_clique_machine_workloads_resolve_to_pernode(self, family):
        workload = flooding_workload(family, case=0)
        assert resolve_batch_backend(workload) is VECTOR_PERNODE

    def test_shipped_compiled_workload_resolves_to_pernode(self):
        # Only registry-built workloads ship (the δ re-binding loader needs
        # a scenario recipe); the shipped stand-in must stay batch-eligible.
        workload = build_workload(
            InstanceSpec("exists-label", {"a": 1, "b": 5, "graph": "cycle"})
        )
        shipped = workload.shippable()
        assert isinstance(shipped, CompiledMachineWorkload)
        assert resolve_batch_backend(shipped) is VECTOR_PERNODE

    def test_clique_stays_on_count_level_rung(self):
        # The count-level engine outranks this one on the ladder: implicit
        # cliques resolve to the count backend per run, so the per-node
        # lockstep engine must not claim them.
        from repro.core.vector_batch import VECTOR_BATCH

        workload = build_workload(
            InstanceSpec("exists-label", {"a": 1, "b": 4, "graph": "clique"})
        )
        assert resolve_batch_backend(workload) is VECTOR_BATCH
        assert workload.row_plan() == ("vector-batch", None)

    def test_subclass_keeps_sequential_path(self):
        # Exact-type rule: a subclass may override run(); never claim it.
        class CustomWorkload(MachineWorkload):
            pass

        base = flooding_workload("cycle", case=2)
        custom = CustomWorkload(machine=base.machine, graph=base.graph)
        assert resolve_batch_backend(custom) is None

    def test_no_rung_needs_numpy(self):
        # With numpy unimportable, a clique batch still lands on the
        # count-level rung and a cycle batch on the per-node rung, and both
        # stay bit-identical to the sequential loop.
        script = textwrap.dedent(
            """
            import sys

            sys.modules["numpy"] = None
            from repro.core.vector_batch import VECTOR_BATCH, resolve_batch_backend
            from repro.core.vector_pernode import VECTOR_PERNODE
            from repro.workloads import InstanceSpec, build_workload

            for name, params, rung in (
                ("clique-majority", {"a": 6, "b": 3}, VECTOR_BATCH),
                ("exists-label", {"a": 1, "b": 4, "graph": "cycle"}, VECTOR_PERNODE),
            ):
                workload = build_workload(InstanceSpec(name, params))
                assert resolve_batch_backend(workload) is rung, name
                kwargs = dict(runs=6, base_seed=3, keep_results=True)
                assert workload.run_many(**kwargs) == workload.run_many_sequential(
                    **kwargs
                ), name
            print("ok")
            """
        )
        src = Path(__file__).resolve().parents[1] / "src"
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "ok"

    def test_run_rows_rejects_ineligible_workload(self):
        base = flooding_workload("cycle", case=4)
        traced = base.with_options(record_trace=True)
        with pytest.raises(ValueError, match="not batch-vectorizable"):
            VECTOR_PERNODE.run_rows(traced, [0, 1])


# --------------------------------------------------------------------- #
# The differential matrix
# --------------------------------------------------------------------- #
class TestDifferentialMatrix:
    @pytest.mark.parametrize("runs", BATCH_SIZES)
    @pytest.mark.parametrize("family", NON_CLIQUE_FAMILIES)
    def test_flooding_detector(self, family, runs):
        assert_identical(flooding_workload(family, case=runs), runs=runs)

    @pytest.mark.parametrize("runs", BATCH_SIZES)
    @pytest.mark.parametrize("family", NON_CLIQUE_FAMILIES)
    def test_random_transition_tables(self, family, runs):
        assert_identical(
            random_table_workload(family, case=runs), runs=runs, base_seed=7
        )

    @pytest.mark.parametrize("family", ("cycle", "line", "star"))
    def test_registry_and_shipped_forms(self, family):
        # The registry families with non-clique graphs, plus their shipped
        # (pre-compiled, picklable) stand-ins: all three forms of the same
        # instance — live sequential, live lockstep, shipped lockstep —
        # agree byte for byte.  Ad-hoc workloads (spec=None) never ship, so
        # grid/ring-of-cliques are covered by the live-matrix tests only.
        workload = build_workload(
            InstanceSpec("exists-label", {"a": 1, "b": 5, "graph": family})
        )
        batched = assert_identical(workload, runs=16, base_seed=3)
        shipped = workload.shippable()
        assert isinstance(shipped, CompiledMachineWorkload)
        assert resolve_batch_backend(shipped) is VECTOR_PERNODE
        assert (
            shipped.run_many(runs=16, base_seed=3, keep_results=True) == batched
        )
        assert (
            shipped.run_many_sequential(runs=16, base_seed=3, keep_results=True)
            == batched
        )

    def test_single_runs_match_run(self):
        # Engine-level identity: row j of run_rows IS run(derive_seed(s, j)).
        workload = random_table_workload("grid", case=9)
        seeds = [derive_seed(42, j) for j in range(12)]
        rows = VECTOR_PERNODE.run_rows(workload, seeds)
        for seed, row in zip(seeds, rows):
            assert row == workload.run(seed)

    @pytest.mark.parametrize("family", ("grid", "cycle", "ring-of-cliques"))
    @pytest.mark.parametrize("make", (flooding_workload, random_table_workload))
    def test_rows_are_batch_size_invariant(self, family, make):
        # Row j is the same whether it runs alone or with 1..15 other rows
        # sharing the memo tables (the small B of the shipped specs).
        workload = make(family, case=5)
        seeds = [derive_seed(19, j) for j in range(16)]
        full = VECTOR_PERNODE.run_rows(workload, seeds)
        for size in (1, 2, 3, 5, 16):
            assert VECTOR_PERNODE.run_rows(workload, seeds[:size]) == full[:size]


# --------------------------------------------------------------------- #
# Quorum truncation and exhaustion edge cases
# --------------------------------------------------------------------- #
class TestEdgeCases:
    @pytest.mark.parametrize("quorum,min_runs", [(0.25, 2), (0.5, 1), (1.0, 1)])
    def test_quorum_truncation_is_byte_identical(self, quorum, min_runs):
        workload = flooding_workload("cycle", case=7)
        batched = assert_identical(
            workload, runs=40, base_seed=5, quorum=quorum, min_runs=min_runs
        )
        if quorum < 1.0:
            assert batched.stopped_early
            assert batched.runs_executed < 40

    @pytest.mark.parametrize("quorum,min_runs", [(0.05, 1), (0.25, 2), (0.5, 4)])
    @pytest.mark.parametrize("rung", ["vector-pernode", "vector-batch"])
    def test_quorum_abandons_rows_past_the_bound(self, rung, quorum, min_runs):
        # Rows run in fold order, so both engines stop exactly where
        # collect_batch does: every row before the stop index is simulated,
        # every row from it on is None and counted as quorum-abandoned.
        if rung == "vector-pernode":
            backend, workload = VECTOR_PERNODE, flooding_workload("star", case=8)
        else:
            backend = VECTOR_BATCH
            workload = build_workload(
                InstanceSpec("population-parity", {"a": 3, "b": 2})
            )
        assert resolve_batch_backend(workload) is backend
        runs = 32
        seeds = [derive_seed(0, j) for j in range(runs)]
        solo = [workload.run(seed) for seed in seeds]
        stop = collect_batch(
            ((r.verdict, r.steps, r) for r in solo),
            runs=runs,
            base_seed=0,
            quorum=quorum,
            min_runs=min_runs,
        ).runs_executed
        assert stop < runs, "the quorum never stopped the fold"
        registry = enable_metrics(reset=True)
        try:
            rows = backend.run_rows(
                workload,
                seeds,
                early_stop=(quorum_target(runs, quorum), min_runs, runs),
            )
            counters = registry.snapshot().counters
        finally:
            disable_metrics()
        assert rows[:stop] == solo[:stop]
        assert rows[stop:] == [None] * (runs - stop)
        assert counters["batch.rows_retired{reason=quorum-abandoned}"] == runs - stop
        assert counters[f"engine.runs{{engine={rung}}}"] == stop
        if rung == "vector-pernode":
            # Flooding rows die after their last flip, before the fold stops.
            assert counters.get(SKIPPED)

    @pytest.mark.parametrize("runs", BATCH_SIZES)
    @pytest.mark.parametrize("case", DEAD_ROW_CASES)
    def test_dead_rows(self, case, runs):
        _, counters = with_counters(
            lambda: assert_identical(DEAD_ROW_CASES[case](), runs=runs, base_seed=17)
        )
        assert counters.get(SKIPPED), "no row was finished without drawing"

    def test_dead_rows_keep_memo_traffic(self):
        # Pinned: finishing dead rows arithmetically resolves nothing, so
        # the compiled table sees the lookups of the fully stepped rows.
        workload = flooding_on("abbbbb", max_steps=6_000, stability_window=60)
        seeds = [derive_seed(0, j) for j in range(8)]
        rows, counters = with_counters(lambda: VECTOR_PERNODE.run_rows(workload, seeds))
        assert [r.stabilised_at for r in rows] == [115, 90, 79, 91, 93, 106, 82, 92]
        stats = compile_machine(workload.machine).stats()
        assert (stats["table_entries"], stats["hits"], stats["misses"]) == (8, 94, 8)
        assert counters["engine.steps{engine=vector-pernode}"] == 748
        assert counters[SKIPPED] == 380

    def test_max_steps_exhaustion(self):
        # Contiguous label blocks on a cycle freeze local majority at once:
        # no consensus is ever reached and every row must exhaust the step
        # budget with an UNDECIDED verdict — identically on both paths,
        # and without drawing a step, since the rows are dead from step 0.
        n = 12
        labels = ["a"] * (n // 2) + ["b"] * (n - n // 2)
        workload = MachineWorkload(
            machine=local_majority_machine(AB, n),
            graph=cycle_graph(AB, labels),
            options=EngineOptions(max_steps=120, stability_window=40),
        )
        batched, counters = with_counters(
            lambda: assert_identical(workload, runs=16, base_seed=9)
        )
        assert all(v is Verdict.UNDECIDED for v in batched.verdicts)
        assert all(s == 120 for s in batched.steps)
        # Both the batched and the sequential path skip every step.
        assert counters[SKIPPED] == 2 * 16 * 120

    def test_exhaustion_mixed_with_stabilisation(self):
        # A tight budget on the flooding detector splits a batch between
        # stabilised and exhausted rows; both retirements must interleave
        # correctly with the shared streak driver.
        workload = flooding_workload("line", case=10)
        tight = workload.with_options(max_steps=90, stability_window=60)
        batched = assert_identical(tight, runs=32, base_seed=13)
        assert len(set(batched.verdicts)) >= 1  # sanity: batch executed
