"""Tests for the differential fuzz oracle, shrinker and replay."""

from __future__ import annotations

import json

import pytest

from repro.core.backends import PerNodeBackend
from repro.core.machine import DistributedMachine
from repro.obs import disable_metrics, enable_metrics
from repro.fuzz import (
    EngineRung,
    OracleConfig,
    check_triple,
    fuzz_run,
    render_json,
    run_replay,
    shrink_triple,
    write_replay,
)

EXISTS_TRIPLE = {
    "machine": {"kind": "exists-label", "label": "a"},
    "graph": {
        "kind": "explicit",
        "labels": ["b", "a", "b", "b"],
        "edges": [[0, 1], [1, 2], [2, 3], [3, 0]],
    },
    "property": {"kind": "exists", "label": "a"},
}


def _mutated(machine: DistributedMachine) -> DistributedMachine:
    """``machine`` with transitions *into* accepting states suppressed."""

    def broken_delta(state, neighborhood):
        result = machine.delta(state, neighborhood)
        if machine.is_accepting(result) and not machine.is_accepting(state):
            return state
        return result

    return DistributedMachine(
        alphabet=machine.alphabet,
        beta=machine.beta,
        init=machine.init,
        delta=broken_delta,
        accepting=machine.is_accepting,
        rejecting=machine.is_rejecting,
        name=f"{machine.name}-mutated",
    )


class MutatedTableBackend(PerNodeBackend):
    """A deliberately broken engine: runs a mutated transition table."""

    name = "mutated-compiled"

    def run(self, machine, graph, schedule, **kwargs):
        return super().run(_mutated(machine), graph, schedule, **kwargs)


BROKEN_RUNGS = (
    EngineRung("mutated-compiled", MutatedTableBackend(), bit_identical=True),
)


class TestOracle:
    def test_clean_triple_produces_no_findings(self):
        outcome = check_triple(EXISTS_TRIPLE, OracleConfig(run_seed=11))
        assert outcome.findings == []
        assert outcome.counters["checked:bit-identity:compiled"] == 1
        assert outcome.counters["checked:property-vs-decide"] == 1
        assert outcome.counters["checked:batch-lockstep"] == 1

    def test_wrong_property_is_flagged_against_exact_decide(self):
        lying = dict(EXISTS_TRIPLE, property={"kind": "exists", "label": "b"})
        lying["graph"] = {
            "kind": "explicit",
            "labels": ["a", "a", "a"],
            "edges": [[0, 1], [1, 2]],
        }
        outcome = check_triple(lying, OracleConfig(run_seed=11))
        assert any(f.check == "property-vs-decide" for f in outcome.findings)

    def test_compiled_rung_runs_the_pernode_row_loop(self):
        """The ``bit-identity:compiled`` check holds the per-node row loop
        (the engine every seeded single run takes) to the reference."""

        def engine_runs(rungs):
            registry = enable_metrics(reset=True)
            try:
                outcome = check_triple(EXISTS_TRIPLE, OracleConfig(run_seed=11), rungs)
                counters = registry.snapshot().counters
            finally:
                disable_metrics()
            runs = {
                key: value
                for key, value in counters.items()
                if key.startswith("engine.runs")
            }
            return outcome, runs

        outcome, with_rung = engine_runs(None)
        _, without_rung = engine_runs(())
        assert outcome.counters["checked:bit-identity:compiled"] == 1
        assert outcome.findings == []
        # The compiled rung adds exactly one run, counted under the row engine.
        added = {
            key: with_rung[key] - without_rung.get(key, 0)
            for key in with_rung
            if with_rung[key] != without_rung.get(key, 0)
        }
        assert added == {"engine.runs{engine=vector-pernode}": 1}

    def test_broken_engine_is_caught_by_bit_identity(self):
        outcome = check_triple(
            EXISTS_TRIPLE, OracleConfig(run_seed=11), rungs=BROKEN_RUNGS
        )
        assert [f.check for f in outcome.findings] == [
            "bit-identity:mutated-compiled"
        ]


@pytest.mark.fuzz
class TestFuzzCampaign:
    def test_small_campaign_is_clean_and_deterministic(self):
        # The tier-1 smoke budget; CI runs the full --budget 200 via the CLI.
        first = fuzz_run(budget=12, seed=0)
        assert first.clean, render_json(first)
        second = fuzz_run(budget=12, seed=0)
        assert render_json(first) == render_json(second)

    def test_broken_engine_is_caught_shrunk_and_replayable(self, tmp_path):
        # The acceptance-criterion path: a deliberately broken engine
        # (mutated transition table) must be caught, shrunk, and the
        # emitted replay must reproduce the failure verbatim.
        report = fuzz_run(budget=12, seed=0, rungs=BROKEN_RUNGS)
        assert not report.clean
        document = report.findings[0]
        finding = document["finding"]
        assert finding["check"] == "bit-identity:mutated-compiled"
        assert finding["shrunk"]
        # Shrunk to the floor: the paper-convention minimum of 3 nodes.
        assert len(finding["triple"]["graph"]["labels"]) == 3

        path = write_replay(tmp_path / "replay.json", document)
        reloaded = json.loads(path.read_text())
        # Replaying against the broken engine reproduces the finding...
        replayed = run_replay(reloaded, rungs=BROKEN_RUNGS)
        assert [f.check for f in replayed] == ["bit-identity:mutated-compiled"]
        # ...and against the real engine ladder it passes clean.
        assert run_replay(reloaded) == []


class TestShrinker:
    def test_shrinks_to_minimal_graph_and_machine(self):
        config = OracleConfig(run_seed=11)

        def still_fails(candidate):
            rerun = check_triple(candidate, config, rungs=BROKEN_RUNGS)
            return any(
                f.check == "bit-identity:mutated-compiled" for f in rerun.findings
            )

        shrunk, attempts = shrink_triple(EXISTS_TRIPLE, still_fails)
        assert attempts > 0
        assert len(shrunk["graph"]["labels"]) == 3
        # The property is irrelevant to a bit-identity failure and gets dropped.
        assert shrunk["property"] is None

    def test_shrinking_is_deterministic(self):
        config = OracleConfig(run_seed=11)

        def still_fails(candidate):
            rerun = check_triple(candidate, config, rungs=BROKEN_RUNGS)
            return bool(rerun.findings)

        first, _ = shrink_triple(EXISTS_TRIPLE, still_fails)
        second, _ = shrink_triple(EXISTS_TRIPLE, still_fails)
        assert first == second


class TestKnownDivergences:
    def test_broadcast_compiler_wave_recirculation_witness(self):
        # The Lemma 4.7 three-phase compilation once diverged from the atomic
        # weak-broadcast semantics on this 4-cycle: a phase-0 node joined a
        # phase-1 neighbour's wave while another neighbour was still in
        # phase 2, so the wave wrapped around and the lone initiator
        # self-counted.  With the alpha-synchroniser guard on rule 3 both
        # decisions reject.
        from repro.constructions.threshold_daf import (
            threshold_broadcast_machine,
            threshold_daf_machine,
        )
        from repro.core.graphs import cycle_graph
        from repro.core.results import Verdict
        from repro.core.verification import decide_pseudo_stochastic
        from repro.fuzz import ALPHABET

        graph = cycle_graph(ALPHABET, ["b", "a", "b", "b"])
        atomic = threshold_broadcast_machine(ALPHABET, "a", 2)
        compiled = threshold_daf_machine(ALPHABET, "a", 2)
        assert atomic.decide_pseudo_stochastic(graph) is Verdict.REJECT
        compiled_verdict = decide_pseudo_stochastic(
            compiled, graph, max_configurations=200_000
        ).verdict
        assert compiled_verdict is Verdict.REJECT
