"""The differential oracle: one fuzz triple through every eligible engine rung.

For each sampled ``(machine, graph, property)`` triple the oracle

1. runs the exact decision procedure
   (:func:`repro.core.verification.decide_pseudo_stochastic`) within a
   configuration budget — the ground truth every engine answers to;
2. checks the declared property (when the triple carries one) against the
   exact verdict;
3. runs the per-node reference backend — the bit-identity baseline — and
   every further engine rung that supports the instance: the compiled
   backend (whose seeded run is a batch of one on the per-node row
   engine) must reproduce the reference :class:`RunResult` **byte for
   byte** (same seed, same schedule stream), the count backend is
   distribution-exact only and is checked at verdict level against the
   exact decision;
4. checks batch-size invariance (check id ``batch-lockstep``):
   ``run_many`` (B rows in one batch-engine call when eligible) must equal
   ``run_many_sequential`` (B single runs, each a batch of one) on
   verdicts and step counts.

Disagreements come back as :class:`Finding` values carrying the full triple
descriptor, ready for the shrinker (:mod:`repro.fuzz.shrink`) and the replay
format (:mod:`repro.fuzz.replay`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.backends import (
    COMPILED_BACKEND,
    COUNT_BACKEND,
    PER_NODE_BACKEND,
    SimulationBackend,
)
from repro.core.results import RunResult, Verdict
from repro.core.scheduler import RandomExclusiveSchedule
from repro.core.verification import StateSpaceTooLarge, decide_pseudo_stochastic
from repro.fuzz.descriptors import build_triple
from repro.workloads.machine import MachineWorkload
from repro.workloads.spec import EngineOptions

_DECIDED = (Verdict.ACCEPT, Verdict.REJECT)


@dataclass(frozen=True)
class OracleConfig:
    """Bounds for one oracle invocation (serialised into replay documents)."""

    run_seed: int = 0
    max_steps: int = 6_000
    stability_window: int = 256
    batch_runs: int = 3
    max_configurations: int = 20_000
    nl_max_configurations: int = 2_000

    def to_dict(self) -> dict:
        """The JSON form stored in replay documents."""
        return {
            "run_seed": self.run_seed,
            "max_steps": self.max_steps,
            "stability_window": self.stability_window,
            "batch_runs": self.batch_runs,
            "max_configurations": self.max_configurations,
            "nl_max_configurations": self.nl_max_configurations,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "OracleConfig":
        """Rebuild a config from its :meth:`to_dict` form."""
        return cls(**{k: int(v) for k, v in data.items()})


@dataclass(frozen=True)
class EngineRung:
    """One engine to cross-check against the per-node reference.

    ``bit_identical`` rungs must reproduce the reference
    :class:`RunResult` exactly (the CONTRIBUTING bit-identity rule);
    non-bit-identical rungs (different RNG consumption, e.g. the count
    backend's geometric silent-step skipping) are held to verdict agreement
    with the exact decision instead.
    """

    name: str
    backend: SimulationBackend
    bit_identical: bool


def default_rungs() -> tuple[EngineRung, ...]:
    """The production engine ladder above the per-node reference."""
    return (
        EngineRung("compiled", COMPILED_BACKEND, bit_identical=True),
        EngineRung("count", COUNT_BACKEND, bit_identical=False),
    )


@dataclass
class Finding:
    """One oracle disagreement, carrying everything needed to replay it."""

    check: str
    detail: str
    triple: dict
    shrunk: bool = False
    shrink_attempts: int = 0

    def to_dict(self) -> dict:
        """The JSON form embedded in fuzz reports and replay documents."""
        return {
            "check": self.check,
            "detail": self.detail,
            "triple": self.triple,
            "shrunk": self.shrunk,
            "shrink_attempts": self.shrink_attempts,
        }


@dataclass
class OracleOutcome:
    """Findings plus the per-check bookkeeping counters of one triple."""

    findings: list[Finding] = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    def bump(self, counter: str, by: int = 1) -> None:
        """Increment a bookkeeping counter."""
        self.counters[counter] = self.counters.get(counter, 0) + by


def _run(backend, machine, graph, config: OracleConfig) -> RunResult:
    """One seeded run on ``backend`` — every rung gets the same seed."""
    return backend.run(
        machine,
        graph,
        RandomExclusiveSchedule(seed=config.run_seed),
        max_steps=config.max_steps,
        stability_window=config.stability_window,
        record_trace=False,
    )


def _describe(result: RunResult) -> str:
    return (
        f"verdict={result.verdict.name} steps={result.steps} "
        f"stabilised_at={result.stabilised_at} "
        f"final={result.final_configuration!r}"
    )


def check_triple(
    triple: dict,
    config: OracleConfig | None = None,
    rungs: tuple[EngineRung, ...] | None = None,
) -> OracleOutcome:
    """Run every applicable differential check on one triple descriptor."""
    config = config or OracleConfig()
    rungs = default_rungs() if rungs is None else rungs
    machine, graph, prop = build_triple(triple)
    outcome = OracleOutcome()

    def finding(check: str, detail: str) -> None:
        outcome.findings.append(Finding(check=check, detail=detail, triple=triple))

    # 1. The exact decision (the verdict ground truth), within budget.
    decide_cap = (
        config.nl_max_configurations
        if triple["machine"].get("kind") == "nl-exists"
        else config.max_configurations
    )
    try:
        exact = decide_pseudo_stochastic(
            machine, graph, max_configurations=decide_cap
        ).verdict
        outcome.bump(f"exact-{exact.name.lower()}")
    except StateSpaceTooLarge:
        exact = None
        outcome.bump("exact-skipped")

    # 2. Declared property vs exact verdict.
    if prop is not None and exact in _DECIDED:
        outcome.bump("checked:property-vs-decide")
        expected = prop.evaluate(graph.label_count())
        if exact.as_bool() != expected:
            finding(
                "property-vs-decide",
                f"property {prop.name!r} evaluates to {expected} on "
                f"{graph.label_count().as_dict()} but the exact decision "
                f"is {exact.name}",
            )

    # 3. The reference run, then each rung against it.
    reference = _run(PER_NODE_BACKEND, machine, graph, config)
    outcome.bump("runs:reference")

    if exact in _DECIDED and reference.verdict in _DECIDED:
        outcome.bump("checked:reference-vs-decide")
        if reference.verdict is not exact:
            finding(
                "reference-vs-decide",
                f"reference run stabilised on {reference.verdict.name} "
                f"but the exact decision is {exact.name} "
                f"({_describe(reference)})",
            )

    for rung in rungs:
        probe_schedule = RandomExclusiveSchedule(seed=config.run_seed)
        if not rung.backend.supports(machine, graph, probe_schedule, False):
            outcome.bump(f"unsupported:{rung.name}")
            continue
        result = _run(rung.backend, machine, graph, config)
        outcome.bump(f"runs:{rung.name}")
        if rung.bit_identical:
            outcome.bump(f"checked:bit-identity:{rung.name}")
            if result != reference:
                finding(
                    f"bit-identity:{rung.name}",
                    f"{rung.name} diverged from the reference: "
                    f"{_describe(result)} vs {_describe(reference)}",
                )
        elif exact in _DECIDED and result.verdict in _DECIDED:
            check = f"verdict:{rung.name}"
            outcome.bump(f"checked:{check}")
            if result.verdict is not exact:
                finding(
                    check,
                    f"{rung.name} run stabilised on {result.verdict.name} "
                    f"but the exact decision is {exact.name} "
                    f"({_describe(result)})",
                )

    # 4. Batch-size invariance: one B-row batch vs B single runs.
    workload = MachineWorkload(
        machine=machine,
        graph=graph,
        options=EngineOptions(
            max_steps=config.max_steps, stability_window=config.stability_window
        ),
    )
    batch = workload.run_many(config.batch_runs, base_seed=config.run_seed)
    sequential = workload.run_many_sequential(
        config.batch_runs, base_seed=config.run_seed
    )
    outcome.bump("checked:batch-lockstep")
    if batch.verdicts != sequential.verdicts or batch.steps != sequential.steps:
        finding(
            "batch-lockstep",
            f"run_many diverged from run_many_sequential: "
            f"verdicts {[v.name for v in batch.verdicts]} vs "
            f"{[v.name for v in sequential.verdicts]}, steps "
            f"{batch.steps} vs {sequential.steps}",
        )

    return outcome


def with_run_seed(config: OracleConfig, run_seed: int) -> OracleConfig:
    """A copy of ``config`` with a per-case run seed."""
    return replace(config, run_seed=run_seed)
