"""Differential matrix for the vectorized multi-seed batch engine.

Every test here enforces the engine's core contract: for every eligible
workload and every ``run_many`` argument combination, the count-level batch
path produces a :class:`~repro.core.batch.BatchResult` **byte-identical** to
the sequential per-run loop (``Workload.run_many_sequential``, the
differential oracle) — same verdicts, same step counts, same full
:class:`~repro.core.results.RunResult` objects when kept, same quorum
truncation and ``stopped_early`` flag.

Marked ``batch`` (see ``pytest.ini``): the matrix runs in tier-1 and is also
exercised explicitly by the CI backends job.
"""

from __future__ import annotations

import random
import warnings

import pytest

from repro.core import vector_batch
from repro.core.backends import COUNT_BACKEND
from repro.core.batch import derive_seed
from repro.core.compile import compile_machine
from repro.core.labels import Alphabet, LabelCount
from repro.core.machine import Neighborhood
from repro.core.results import Verdict
from repro.core.scheduler import (
    RandomExclusiveSchedule,
    SelectionMode,
    SynchronousSchedule,
)
from repro.core.vector_batch import VECTOR_BATCH, resolve_batch_backend
from repro.core.verification import decide_pseudo_stochastic
from repro.obs.metrics import disable_metrics, enable_metrics
from repro.population import PopulationProtocol
from repro.workloads import (
    EngineOptions,
    InstanceSpec,
    PopulationWorkload,
    SpecValidationWarning,
    build_workload,
    list_scenarios,
)

pytestmark = pytest.mark.batch

AB = Alphabet.of("a", "b")

#: The eligible differential matrix: every workload kind whose per-run engine
#: is count-level, with a spread of margins, verdict outcomes and step scales.
ELIGIBLE = [
    ("clique-majority", {"a": 6, "b": 3}, {}),
    ("clique-majority", {"a": 20, "b": 14}, {}),
    ("clique-majority", {"a": 3, "b": 9}, {}),
    ("clique-majority", {"a": 5, "b": 4}, {}),  # margin 1: race can flip
    ("exists-label", {"a": 1, "b": 4, "graph": "clique"}, {}),
    ("exists-label", {"a": 0, "b": 5, "graph": "clique"}, {}),
    ("threshold-broadcast", {"a": 2, "b": 2, "k": 2, "graph": "clique"}, {}),
    (
        "rendezvous-parity",
        {"a": 3, "b": 2, "graph": "clique"},
        {"stability_window": 2000, "max_steps": 60_000},
    ),
    ("population-majority", {"a": 6, "b": 3}, {"max_steps": 10_000}),
    ("population-threshold", {"a": 3, "b": 4, "k": 3}, {}),
    ("population-threshold", {"a": 4, "b": 3, "k": 3}, {}),
    ("population-parity", {"a": 3, "b": 2}, {}),
]


def _workload(name, params, engine):
    return build_workload(InstanceSpec(name, dict(params), EngineOptions(**engine)))


def ids(matrix):
    return [f"{name}[{params}]" for name, params, _ in matrix]


def _assert_rung_is_the_single_run_engine(workload):
    """``run_many``'s rung is the row engine one ``run`` counts its run
    under (``engine.runs{engine=...}``); there is none when that engine is
    not a row engine or ``run`` raises.  Returns the rung."""
    registry = enable_metrics(reset=True)
    try:
        workload.run(3)
    except Exception:  # noqa: BLE001 - the batch must not claim such a run
        engines = None
    else:
        engines = {
            key[len("engine.runs{engine="):-1]
            for key, value in registry.snapshot().counters.items()
            if key.startswith("engine.runs{") and value
        }
    finally:
        disable_metrics()
    rung = resolve_batch_backend(workload)
    if engines in ({"vector-batch"}, {"vector-pernode"}):
        assert rung is not None and {rung.name} == engines, type(workload)
    else:
        assert rung is None, (type(workload), engines)
    return rung


class TestEligibility:
    @pytest.mark.parametrize("name,params,engine", ELIGIBLE, ids=ids(ELIGIBLE))
    def test_eligible_resolves_to_vector_batch(self, name, params, engine):
        workload = _workload(name, params, engine)
        assert _assert_rung_is_the_single_run_engine(workload) is VECTOR_BATCH

    @pytest.mark.parametrize(
        "name,params,engine",
        [
            # Trace recording and explicit per-run backends keep their path.
            ("clique-majority", {"a": 6, "b": 3}, {"backend": "per-node"}),
            ("exists-label", {"a": 1, "b": 4, "graph": "clique"}, {"record_trace": True}),
            ("exists-label", {"a": 1, "b": 4, "graph": "cycle"}, {"record_trace": True}),
            # The agents method has per-agent (not count-level) dynamics.
            ("population-majority", {"a": 6, "b": 3}, {"backend": "agents"}),
            # Synchronous schedules take the deterministic-replication path.
            ("clique-majority", {"a": 6, "b": 3}, {"schedule": "synchronous"}),
        ],
    )
    def test_ineligible_falls_back(self, name, params, engine):
        workload = _workload(name, params, engine)
        if workload.deterministic:  # replicated before any rung is asked
            assert resolve_batch_backend(workload) is None
        else:
            assert _assert_rung_is_the_single_run_engine(workload) is None

    @pytest.mark.parametrize(
        "name,params,engine",
        [
            # Non-clique graphs land on the per-node lockstep rung, one rung
            # below the count engine (a 5-node cycle for absence-probe;
            # 3-node cycles are cliques and stay on the count engine).
            ("exists-label", {"a": 1, "b": 4, "graph": "cycle"}, {}),
            ("rendezvous-parity", {"a": 3, "b": 2}, {"stability_window": 2000}),
            ("absence-probe", {"a": 1, "b": 4}, {}),
        ],
    )
    def test_non_clique_resolves_to_pernode_rung(self, name, params, engine):
        from repro.core.vector_pernode import VECTOR_PERNODE

        workload = _workload(name, params, engine)
        assert _assert_rung_is_the_single_run_engine(workload) is VECTOR_PERNODE

    @pytest.mark.parametrize("record_trace", [False, True])
    @pytest.mark.parametrize(
        "backend", ["auto", "per-node", "compiled", "count", "agents", "counts"]
    )
    @pytest.mark.parametrize("scenario", [s.name for s in list_scenarios()])
    def test_every_default_instance(self, scenario, backend, record_trace):
        """The rung of every scenario's default instance, and of its shipped
        stand-in, is the engine of its single run, under every backend name."""
        options = EngineOptions(backend=backend, record_trace=record_trace)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", SpecValidationWarning)
                workload = build_workload(InstanceSpec(scenario, {}, options))
        except ValueError:
            pytest.skip("build_workload refuses this combination")
        _assert_rung_is_the_single_run_engine(workload)
        shipped = workload.shippable()
        if shipped is not None:
            _assert_rung_is_the_single_run_engine(shipped)


class TestDifferentialMatrix:
    @pytest.mark.parametrize("name,params,engine", ELIGIBLE, ids=ids(ELIGIBLE))
    def test_run_many_bit_identical(self, name, params, engine):
        workload = _workload(name, params, engine)
        vectorized = workload.run_many(runs=7, base_seed=11, keep_results=True)
        sequential = workload.run_many_sequential(runs=7, base_seed=11, keep_results=True)
        assert vectorized == sequential

    @pytest.mark.parametrize("name,params,engine", ELIGIBLE[:4] + ELIGIBLE[-3:])
    def test_quorum_truncation_identical(self, name, params, engine):
        workload = _workload(name, params, engine)
        for quorum, min_runs in ((0.5, 1), (0.25, 3), (1.0, 1)):
            vectorized = workload.run_many(
                runs=9, base_seed=4, quorum=quorum, min_runs=min_runs
            )
            sequential = workload.run_many_sequential(
                runs=9, base_seed=4, quorum=quorum, min_runs=min_runs
            )
            assert vectorized == sequential

    def test_run_rows_matches_per_run_calls(self):
        workload = _workload("clique-majority", {"a": 8, "b": 5}, {})
        seeds = [derive_seed(3, j) for j in range(6)] + [123456789]
        assert VECTOR_BATCH.run_rows(workload, seeds) == [
            workload.run(seed) for seed in seeds
        ]

    @pytest.mark.parametrize(
        "name,params",
        [("clique-majority", {"a": 8, "b": 5}), ("population-parity", {"a": 3, "b": 2})],
    )
    def test_row_independent_of_batch_size(self, name, params):
        # Row j is the same whether it runs alone or with other rows sharing
        # the successor graph (the small B of the shipped specs included).
        workload = _workload(name, params, {})
        seeds = [derive_seed(9, j) for j in range(16)]
        full = VECTOR_BATCH.run_rows(workload, seeds)
        for size in (1, 2, 3, 5, 16):
            assert VECTOR_BATCH.run_rows(workload, seeds[:size]) == full[:size]
        assert full == [workload.run(seed) for seed in seeds]


class TestEdgeCases:
    def test_single_run_batch(self):
        workload = _workload("clique-majority", {"a": 6, "b": 3}, {})
        vectorized = workload.run_many(runs=1, base_seed=2, keep_results=True)
        sequential = workload.run_many_sequential(runs=1, base_seed=2, keep_results=True)
        assert vectorized == sequential
        assert vectorized.runs_executed == 1

    def test_all_rows_early_quorum(self):
        """A tiny quorum target stops both paths after the first decided run."""
        workload = _workload("clique-majority", {"a": 9, "b": 4}, {})
        vectorized = workload.run_many(runs=20, base_seed=0, quorum=0.05)
        sequential = workload.run_many_sequential(runs=20, base_seed=0, quorum=0.05)
        assert vectorized == sequential
        assert vectorized.stopped_early
        assert vectorized.runs_executed == 1

    def test_zero_successful_runs(self):
        """A budget far too small to absorb the minority decides nothing."""
        workload = _workload("clique-majority", {"a": 30, "b": 25}, {"max_steps": 20})
        vectorized = workload.run_many(runs=6, base_seed=1, quorum=0.5, keep_results=True)
        sequential = workload.run_many_sequential(
            runs=6, base_seed=1, quorum=0.5, keep_results=True
        )
        assert vectorized == sequential
        assert vectorized.decided_runs == 0
        assert vectorized.consensus is Verdict.UNDECIDED
        assert not vectorized.stopped_early

    def test_population_fixed_point_without_consensus(self):
        """The scalar engine reports (UNDECIDED, max_steps) here; so must we."""
        inert = PopulationProtocol(
            alphabet=AB,
            init=lambda label: label,
            delta=lambda p, q: (p, q),
            name="inert",
        )
        count = LabelCount.from_mapping(AB, {"a": 2, "b": 2})
        workload = PopulationWorkload(
            protocol=inert, count=count, options=EngineOptions(max_steps=500)
        )
        assert resolve_batch_backend(workload) is VECTOR_BATCH
        vectorized = workload.run_many(runs=4, base_seed=7, keep_results=True)
        sequential = workload.run_many_sequential(runs=4, base_seed=7, keep_results=True)
        assert vectorized == sequential
        assert vectorized.verdicts == [Verdict.UNDECIDED] * 4
        assert vectorized.steps == [500] * 4

    def test_population_fixed_point_with_consensus(self):
        inert = PopulationProtocol(
            alphabet=AB,
            init=lambda label: "done",
            delta=lambda p, q: (p, q),
            accepting={"done"},
            name="inert-accepting",
        )
        count = LabelCount.from_mapping(AB, {"a": 2, "b": 2})
        workload = PopulationWorkload(
            protocol=inert, count=count, options=EngineOptions(max_steps=500)
        )
        vectorized = workload.run_many(runs=4, base_seed=7, keep_results=True)
        sequential = workload.run_many_sequential(runs=4, base_seed=7, keep_results=True)
        assert vectorized == sequential
        assert vectorized.verdicts == [Verdict.ACCEPT] * 4

    def test_synchronous_replication_parity(self):
        """The deterministic shortcut stays in charge for synchronous specs,
        and its replicated batch equals actually running every seed."""
        workload = _workload(
            "clique-majority", {"a": 6, "b": 3}, {"schedule": "synchronous"}
        )
        assert workload.deterministic
        replicated = workload.run_many(runs=5, base_seed=3, keep_results=True)
        sequential = workload.run_many_sequential(runs=5, base_seed=3, keep_results=True)
        assert replicated == sequential
        assert not replicated.stopped_early

    def test_max_steps_exhaustion_identical(self):
        """Rows that run out of budget mid-flight retire identically."""
        workload = _workload(
            "clique-majority", {"a": 20, "b": 18}, {"max_steps": 40, "stability_window": 30}
        )
        vectorized = workload.run_many(runs=6, base_seed=5, keep_results=True)
        sequential = workload.run_many_sequential(runs=6, base_seed=5, keep_results=True)
        assert vectorized == sequential

    @pytest.mark.parametrize(
        "name,params",
        [("clique-majority", {"a": 8, "b": 5}), ("population-threshold", {"a": 3, "b": 4, "k": 3})],
    )
    def test_memo_cap_is_invisible_in_results(self, name, params):
        """A tiny cap re-analyses count vectors per visit but changes nothing."""
        capped = _workload(name, params, {"memo_cap": 1})
        assert resolve_batch_backend(capped) is VECTOR_BATCH
        vectorized = capped.run_many(runs=5, base_seed=3, keep_results=True)
        sequential = _workload(name, params, {}).run_many_sequential(
            runs=5, base_seed=3, keep_results=True
        )
        assert vectorized == sequential

    @pytest.mark.parametrize(
        "name,params",
        [
            ("clique-majority", {"a": 7, "b": 4}),  # β = n: the table stays empty
            ("threshold-broadcast", {"a": 2, "b": 3, "k": 2, "graph": "clique"}),
        ],
    )
    def test_memo_cap_bounds_the_node_cache_and_compiled_table(self, name, params):
        """``memo_cap`` bounds the successor graph and the compiled table the
        count rows write to."""
        workload = _workload(name, params, {"memo_cap": 4})
        engine = workload.rows()
        engine.run([random.Random(derive_seed(0, j)) for j in range(5)])
        assert len(engine._nodes) <= 4
        assert engine.compiled.table_size <= 4
        uncapped = _workload(name, params, {})
        reference = uncapped.rows()
        reference.run([random.Random(derive_seed(0, j)) for j in range(5)])
        assert len(reference._nodes) > 4  # the cap genuinely bit
        if reference.compiled.beta < reference.n - 1:
            assert reference.compiled.table_size > 4

    @pytest.mark.parametrize(
        "name,params",
        [("clique-majority", {"a": 8, "b": 5}), ("population-threshold", {"a": 3, "b": 4, "k": 3})],
    )
    def test_single_runs_honour_memo_cap(self, name, params):
        """A single run takes ``memo_cap`` like a batch does, invisibly."""
        registry = enable_metrics(reset=True)
        try:
            capped = [_workload(name, params, {"memo_cap": 1}).run(seed) for seed in range(4)]
            counters = registry.snapshot().counters
        finally:
            disable_metrics()
        assert counters["memo.evictions{table=batch-node}"] > 0
        assert capped == [_workload(name, params, {}).run(seed) for seed in range(4)]

    def test_one_row_call_bounds_its_node_cache(self, monkeypatch):
        """Without a cap a lone row keeps at most ``ONE_ROW_NODE_CAP`` count
        vectors (a drifting large run would keep its whole trajectory), and
        the bound never changes the row."""
        workload = _workload("population-majority", {"a": 60, "b": 40}, {"max_steps": 5_000})
        rows = [random.Random(derive_seed(0, j)) for j in range(2)]
        reference = workload.rows().run(rows)[0]
        monkeypatch.setattr(vector_batch, "ONE_ROW_NODE_CAP", 8)
        engine = workload.rows()
        assert engine.run([random.Random(derive_seed(0, 0))]) == [reference]
        assert len(engine._nodes) == 8

    def test_unkept_results_skip_configuration_materialisation(self):
        """With keep_results=False all B results stay resident until folded,
        so the O(n) per-row state tuples are only built on request — and the
        folded BatchResult is identical either way."""
        workload = _workload("clique-majority", {"a": 7, "b": 4}, {})
        engine = workload.rows()
        light = engine.run(
            [random.Random(derive_seed(0, j)) for j in range(4)],
            materialise_configurations=False,
        )
        assert all(result.final_configuration == () for result in light)
        assert workload.run_many(runs=4, base_seed=0) == workload.run_many_sequential(
            runs=4, base_seed=0
        )

    def test_uncapped_views_read_the_table_without_writing(self):
        """β ≥ n-1 views biject with count vectors (the node cache already
        dedupes them), so rows never write them to the compiled table; they
        are written only when the cap binds, where rows share entries.
        Synchronous clique rows share this same gate."""
        full_view = _workload("clique-majority", {"a": 7, "b": 4}, {})
        engine = full_view.rows()
        assert engine.compiled.beta >= engine.n - 1
        engine.run([random.Random(derive_seed(0, j)) for j in range(3)])
        assert engine.compiled.table_size == 0
        assert engine.compiled.misses > 0
        capped_view = _workload("exists-label", {"a": 1, "b": 4, "graph": "clique"}, {})
        engine = capped_view.rows()
        assert engine.compiled.beta < engine.n - 1
        engine.run([random.Random(derive_seed(0, j)) for j in range(3)])
        assert engine.compiled.table_size > 0
        assert engine.compiled.hits > 0  # capped views genuinely share entries


class TestCompiledTableSharing:
    """Count rows resolve δ through the compiled table the exact decision
    fills, so on a clique the decision has explored they evaluate no δ."""

    INSTANCES = [
        ("exists-label", {"a": 1, "b": 4, "graph": "clique"}),  # β = 1 < n - 1
        ("threshold-broadcast", {"a": 2, "b": 2, "k": 2, "graph": "clique"}),  # β = 1
        ("clique-majority", {"a": 4, "b": 3}),  # β = n: uncapped views
    ]
    OPTIONS = {"max_steps": 3_000, "stability_window": 200}

    @staticmethod
    def _decide(workload):
        # The synchronous decision covers the views of the synchronous run,
        # which the exclusive exploration need not reach.
        for mode in (SelectionMode.EXCLUSIVE, SelectionMode.SYNCHRONOUS):
            decide_pseudo_stochastic(workload.machine, workload.graph, mode)

    def _runs(self, workload) -> list:
        machine, graph, options = workload.machine, workload.graph, self.OPTIONS
        results = [
            COUNT_BACKEND.run(machine, graph, RandomExclusiveSchedule(seed=seed), **options)
            for seed in range(4)
        ]
        results.append(COUNT_BACKEND.run(machine, graph, SynchronousSchedule(), **options))
        results.append(workload.run_many(runs=5, base_seed=2, keep_results=True))
        results.append(
            workload.run_many_sequential(runs=5, base_seed=2, keep_results=True)
        )
        return results

    @pytest.mark.parametrize("name,params", INSTANCES)
    def test_decided_clique_runs_without_delta(self, name, params):
        workload = _workload(name, params, self.OPTIONS)
        self._decide(workload)
        compiled = compile_machine(workload.machine)
        entries, hits = compiled.table_size, compiled.hits
        calls = []
        delta = workload.machine.delta
        workload.machine.delta = lambda state, view: calls.append(state) or delta(
            state, view
        )
        self._runs(workload)
        assert calls == []
        assert compiled.table_size == entries
        assert compiled.hits > hits

    @pytest.mark.parametrize("name,params", INSTANCES)
    def test_movers_follow_the_state_repr_order(self, name, params):
        """A node's movers are the moving states in sorted ``repr`` order (it
        fixes which state a draw picks), each with δ of its view: the global
        counts minus the node."""
        workload = _workload(name, params, self.OPTIONS)
        engine = workload.rows()
        engine.run([random.Random(derive_seed(0, j)) for j in range(3)])
        machine, decode = workload.machine, engine.compiled.state_of
        for node in engine._nodes.values():
            counts = {decode(q): c for q, c in node.counts.items()}
            expected = []
            for state in sorted(counts, key=repr):
                others = dict(counts)
                others[state] -= 1
                view = Neighborhood(others, machine.beta, total=engine.n - 1)
                if machine.step(state, view) != state:
                    expected.append((state, machine.step(state, view)))
            assert [(decode(q), decode(r)) for q, r in node.movers] == expected

    @pytest.mark.parametrize("name,params", INSTANCES)
    def test_results_independent_of_the_table(self, name, params):
        """Cold table, decision-warmed table and a one-entry cap agree."""
        cold = self._runs(_workload(name, params, self.OPTIONS))
        warmed = _workload(name, params, self.OPTIONS)
        self._decide(warmed)
        assert self._runs(warmed) == cold
        capped = _workload(name, params, {**self.OPTIONS, "memo_cap": 1})
        compiled = compile_machine(capped.machine, memo_cap=1)
        assert self._runs(capped) == cold
        assert compiled.table_size <= 1
