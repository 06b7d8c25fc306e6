"""Auto-generated documentation: the files behind ``repro docs``.

The scenario registry (:mod:`repro.workloads.registry` /
:mod:`repro.workloads.catalog`) is the single source of truth for what this
repo can run — name, kind, parameter defaults, declared ground truth and the
documented footguns all live next to the builders.  This module renders that
registry into ``docs/scenarios.md`` so the prose catalog can never drift
from the code: ``python -m repro docs`` regenerates the file, and
``python -m repro docs --check`` (run by CI) fails when the committed file
differs from a fresh render.

The render is deliberately deterministic — scenarios sorted by name, no
timestamps — so the check is a plain byte comparison.  Beyond the static
metadata, each entry probes the *default instance*: which engine the
``"auto"`` backend resolves to, whether the vectorized batch engine covers
its ``run_many``, and the expected verdict of the default parameters.  Those
facts come from the same resolution code paths production runs use, so they
are documentation that cannot lie.

The same command (and the same ``--check`` gate) also renders
``docs/figure1.md`` from the Figure 1 table of :mod:`repro.analysis.figure1`
and re-renders the metric-catalog block of ``docs/observability.md`` from
:mod:`repro.obs.catalog`; :data:`GENERATED_FILES` lists all three.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

HEADER = """\
# Scenario catalog

> **AUTO-GENERATED** by `python -m repro docs` from the workloads registry
> (`repro.workloads.catalog`).  Do not edit by hand: CI regenerates this
> file and fails on drift.  Change the registry instead.

Every runnable scenario, one section each: the workload kind, the decision
rule the declared ground truth implements, the full parameter defaults, what
the engine ladders resolve to for the default instance, the documented
footguns, and a ready-to-run `InstanceSpec` JSON example (see
[spec-format.md](spec-format.md) for the schema and
[architecture.md](architecture.md) for the engines).
"""


def _default_instance_facts(scenario) -> dict:
    """Engine facts of the scenario's default instance, probed live."""
    from repro.core.backends import resolve_backend
    from repro.core.scheduler import RandomExclusiveSchedule
    from repro.core.vector_batch import resolve_batch_backend
    from repro.workloads.base import build_workload
    from repro.workloads.machine import MachineWorkload
    from repro.workloads.spec import InstanceSpec, SpecValidationWarning

    with warnings.catch_warnings():
        # A default-engine probe, not a run: the rendezvous stability-window
        # advisory is rendered as a footgun note instead of warned here.
        warnings.simplefilter("ignore", SpecValidationWarning)
        spec = InstanceSpec(scenario.name)
        workload = build_workload(spec)
    if isinstance(workload, MachineWorkload):
        backend = resolve_backend(
            "auto", workload.machine, workload.graph, RandomExclusiveSchedule(seed=0)
        ).name
    else:
        backend = "counts (population engine)"
    batch = resolve_batch_backend(workload)
    expected = workload.expected
    return {
        "auto_backend": backend,
        "batch_engine": batch.name if batch is not None else "per-run loop",
        "expected": {True: "accept", False: "reject", None: "undeclared"}[expected],
        "spec_json": json.dumps(spec.to_dict(), indent=2, sort_keys=False),
    }


def _scenario_section(scenario) -> str:
    facts = _default_instance_facts(scenario)
    lines = [
        f"## `{scenario.name}`",
        "",
        f"{scenario.description}.",
        "",
        f"- **Kind:** {scenario.kind}",
        f"- **Ground truth:** "
        f"{scenario.ground_truth or 'none declared (no expected verdict)'}",
        f"- **Default instance:** auto backend `{facts['auto_backend']}`, "
        f"`run_many` via `{facts['batch_engine']}`, "
        f"expected verdict `{facts['expected']}`",
        "",
        "| parameter | default |",
        "|---|---|",
    ]
    for key in sorted(scenario.defaults):
        lines.append(f"| `{key}` | `{scenario.defaults[key]!r}` |")
    if scenario.notes:
        lines.append("")
        lines.append("**Footguns:**")
        lines.append("")
        for note in scenario.notes:
            lines.append(f"- {note}")
    lines.append("")
    lines.append("```json")
    lines.append(facts["spec_json"])
    lines.append("```")
    return "\n".join(lines)


def render_scenarios_markdown() -> str:
    """The full ``docs/scenarios.md`` content, deterministically rendered."""
    from repro.workloads import KINDS, list_scenarios
    from repro.workloads.catalog import GRAPH_FAMILIES

    scenarios = list_scenarios()
    kinds = ", ".join(
        f"{kind} ({sum(1 for s in scenarios if s.kind == kind)})" for kind in KINDS
    )
    families = ", ".join(f"`{family}`" for family in GRAPH_FAMILIES)
    parts = [
        HEADER,
        f"**{len(scenarios)} scenarios** over the registry's workload kinds: "
        f"{kinds}.",
        "",
        f"Scenarios with a `graph` parameter accept any registered graph "
        f"family: {families}.  The random families are seeded via "
        f"`graph_seed`; `max_degree` and `graph_density` are the structural "
        f"knobs (see [fuzzing.md](fuzzing.md) for the generator grammar).",
        "",
    ]
    for scenario in scenarios:
        parts.append(_scenario_section(scenario))
        parts.append("")
    return "\n".join(parts).rstrip() + "\n"


# --------------------------------------------------------------------- #
# The metric-catalog block of docs/observability.md.  Unlike scenarios.md
# the file is mostly hand-written prose; only the section between the two
# markers is generated (from repro.obs.catalog, the same declarations the
# metric-catalog lint rule cross-checks call sites against).

METRIC_CATALOG_BEGIN = (
    "<!-- metric-catalog:begin — generated by `python -m repro docs` from "
    "repro.obs.catalog; edit the catalog, not this block -->"
)
METRIC_CATALOG_END = "<!-- metric-catalog:end -->"


def _splice_metric_catalog(text: str | None) -> str | None:
    """``text`` with the marker-delimited block re-rendered; None if unmarked."""
    from repro.obs.catalog import render_markdown

    if text is None:
        return None
    begin = text.find(METRIC_CATALOG_BEGIN)
    end = text.find(METRIC_CATALOG_END)
    if begin == -1 or end == -1 or end < begin:
        return None
    head = text[: begin + len(METRIC_CATALOG_BEGIN)]
    return head + "\n" + render_markdown() + text[end:]


def _figure1_markdown(_committed: str | None) -> str:
    from repro.analysis.figure1 import render_markdown

    return render_markdown()


#: Every file ``repro docs`` renders: its source, and its render from the
#: committed text (None when missing) to the fresh text — None when the
#: committed file lacks the markers that place its generated block.
GENERATED_FILES = {
    "scenarios.md": ("the workloads registry", lambda _committed: render_scenarios_markdown()),
    "figure1.md": ("the repro.analysis.figure1 table", _figure1_markdown),
    "observability.md": ("repro.obs.catalog", _splice_metric_catalog),
}


def sync_generated_markdown(
    directory: str | Path, check: bool = False
) -> tuple[list[Path], list[str]]:
    """Render every file of :data:`GENERATED_FILES` into ``directory``.

    With ``check`` nothing is written: a committed file that differs from
    its fresh render is a problem.  Returns the paths written (or found up
    to date) and human-readable problems: a stale or missing file, or an
    ``observability.md`` without its metric-catalog markers.
    """
    directory = Path(directory)
    if not check:
        directory.mkdir(parents=True, exist_ok=True)
    paths: list[Path] = []
    problems: list[str] = []
    for name, (source, render) in GENERATED_FILES.items():
        path = directory / name
        committed = path.read_text() if path.exists() else None
        fresh = render(committed)
        if fresh is None:
            problems.append(
                f"{path} is missing or lacks the metric-catalog markers "
                f"{METRIC_CATALOG_BEGIN!r} and {METRIC_CATALOG_END!r}"
            )
        elif check and committed is None:
            problems.append(f"{path} does not exist; run `python -m repro docs`")
        elif check and committed != fresh:
            problems.append(
                f"{path} is stale ({source} changed); "
                f"run `python -m repro docs` and commit the result"
            )
        else:
            if not check:
                path.write_text(fresh)
            paths.append(path)
    return paths, problems
