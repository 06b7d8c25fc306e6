"""The declared metric catalog: the single source of truth for metric names.

Every metric the codebase emits is declared here as a :class:`MetricSpec`,
grouped into the :data:`CATALOG` sections that render the
``docs/observability.md`` metric tables (via ``python -m repro docs``).  The
``metric-catalog`` lint rule cross-checks the declarations bidirectionally
against the ``counter()`` / ``gauge()`` / ``histogram()`` call sites it
harvests from ``src/``: an **undeclared-emitted** name fails lint at the
call site, a **declared-never-emitted** name fails lint at its declaration
line below.  Renaming a metric therefore forces this file, the emitting
code, and the docs table to move together — the docs can no longer drift.

The table cells are stored verbatim (including the ``\\|`` escapes markdown
tables need), so rendering is deterministic byte-for-byte and the docs
drift gate can compare exactly.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MetricSpec:
    """One row group of the metric catalog table.

    ``names`` are the declared metric names the group covers (most groups
    declare one; ``memo.hits`` / ``memo.misses`` share rows).  ``display``
    is the rendered Metric column cell; ``rows`` are ``(labels, meaning)``
    cell pairs — the first row carries ``display``, continuation rows render
    with an empty Metric cell, mirroring a rowspan.
    """

    names: tuple[str, ...]
    display: str
    rows: tuple[tuple[str, str], ...]
    kind: str = "counter"


@dataclass(frozen=True)
class CatalogSection:
    """One ``###`` subsection of the catalog: a table plus optional prose."""

    title: str
    specs: tuple[MetricSpec, ...]
    intro: str = ""
    outro: str = ""


CATALOG: tuple[CatalogSection, ...] = (
    CatalogSection(
        title="Engines",
        specs=(
            MetricSpec(
                names=("engine.runs",),
                display="`engine.runs`",
                rows=(
                    (
                        "`engine=per-node \\| vector-batch"
                        " \\| vector-pernode \\| population-agents`",
                        "completed runs per stepping loop (batch engines count "
                        "simulated rows, not quorum-abandoned ones); a single "
                        "compiled run is a one-row batch on `vector-pernode` "
                        "under every schedule, as is a count run on "
                        "`vector-batch`, and bumps that engine's "
                        "`engine.runs`, `engine.steps` and "
                        "`batch.rows_retired` once",
                    ),
                ),
            ),
            MetricSpec(
                names=("engine.steps",),
                display="`engine.steps`",
                rows=(
                    (
                        "`engine=...`",
                        "scheduler steps reported, skipped silent steps "
                        "included (batch engines: sum over rows)",
                    ),
                ),
            ),
            MetricSpec(
                names=("engine.silent_steps_skipped",),
                display="`engine.silent_steps_skipped`",
                rows=(
                    (
                        "`engine=vector-batch`",
                        "silent steps fast-forwarded geometrically instead of "
                        "simulated",
                    ),
                    (
                        "`engine=per-node`",
                        "steps of a dead configuration (no node enabled, no "
                        "consensus) that the reference loop skips to reach "
                        "`max_steps`",
                    ),
                    (
                        "`engine=vector-pernode`",
                        "steps after a seeded random-exclusive row's "
                        "configuration died (no node enabled), finished "
                        "arithmetically instead of drawn",
                    ),
                ),
            ),
        ),
    ),
    CatalogSection(
        title="Memo / view tables",
        specs=(
            MetricSpec(
                names=("memo.hits", "memo.misses"),
                display="`memo.hits` / `memo.misses`",
                rows=(
                    (
                        "`table=compiled`",
                        "compiled-machine transition-table lookups of every "
                        "engine, count rows included (mirrors "
                        "`CompiledMachine.stats()`)",
                    ),
                    (
                        "`table=batch-node`",
                        "the count-level batch engine's successor-graph node "
                        "cache",
                    ),
                ),
            ),
            MetricSpec(
                names=("memo.evictions",),
                display="`memo.evictions`",
                rows=(
                    (
                        "`table=compiled \\| batch-node \\| pernode-view`",
                        "entries refused because `memo_cap` was reached",
                    ),
                ),
            ),
        ),
        outro=(
            "`CompiledMachine.stats()` stays the per-machine view "
            "(`table_entries`,\n`hits`, `misses`, `hit_rate`); `hit_rate` is "
            "`None` when the table saw no\nlookups — never a "
            "`ZeroDivisionError`.  The registry aggregates the same\nflushes "
            "process-wide."
        ),
    ),
    CatalogSection(
        title="Batch dispatch and retirement",
        specs=(
            MetricSpec(
                names=("dispatch.rung",),
                display="`dispatch.rung`",
                rows=(
                    (
                        "`rung=replicate \\| vector-batch \\| vector-pernode "
                        "\\| sequential`",
                        "one increment per `run_many` dispatch decision (the "
                        "executor's chunk-batched path and per-task remainder "
                        "count here too)",
                    ),
                ),
            ),
            MetricSpec(
                names=("dispatch.runs",),
                display="`dispatch.runs`",
                rows=(("`rung=...`", "runs routed down that rung"),),
            ),
            MetricSpec(
                names=("dispatch.fallback",),
                display="`dispatch.fallback`",
                rows=(
                    (
                        "`reason=<kebab code>`",
                        "`resolve_batch_backend` fell through to the per-run "
                        "loop; the reason is the workload's `row_plan` code: "
                        "`record-trace`, `schedule-kind`, `resolution-error`, "
                        "`backend-<name>` (a per-run backend with no row "
                        "engine, e.g. `backend-per-node`), `method-kind`, "
                        "`population-too-small` or `workload-kind`",
                    ),
                ),
            ),
            MetricSpec(
                names=("batch.rows_retired",),
                display="`batch.rows_retired`",
                rows=(
                    (
                        "`reason=stabilised \\| fixed-point \\| exhausted \\| "
                        "quorum-abandoned`",
                        "why each batch row stopped, single runs on a row "
                        "engine included (one row each); on both batch rungs "
                        "`quorum-abandoned` counts rows that were never "
                        "simulated",
                    ),
                ),
            ),
            MetricSpec(
                names=("batch.quorum_stops",),
                display="`batch.quorum_stops`",
                rows=(("—", "batches truncated by a consensus quorum"),),
            ),
            MetricSpec(
                names=("batch.runs_skipped_by_quorum",),
                display="`batch.runs_skipped_by_quorum`",
                rows=(
                    ("—", "planned runs never executed because of a quorum stop"),
                ),
            ),
        ),
    ),
    CatalogSection(
        title="Executor fault tolerance",
        specs=(
            MetricSpec(
                names=("executor.retries",),
                display="`executor.retries`",
                rows=(
                    (
                        "`reason=failed \\| timeout \\| crashed`",
                        "in-session task re-runs by trigger",
                    ),
                ),
            ),
            MetricSpec(
                names=("executor.pool_respawns",),
                display="`executor.pool_respawns`",
                rows=(
                    (
                        "—",
                        "worker-pool replacements after a worker death broke "
                        "the pool",
                    ),
                ),
            ),
            MetricSpec(
                names=("executor.quarantined",),
                display="`executor.quarantined`",
                rows=(
                    (
                        "`reason=crash-loop`",
                        "tasks isolated as poison (they crash their worker "
                        "every attempt)",
                    ),
                ),
            ),
        ),
        intro=(
            "See [robustness.md](robustness.md) for the recovery semantics "
            "behind these."
        ),
    ),
)


def declared_specs() -> dict[str, MetricSpec]:
    """Map every declared metric name to its :class:`MetricSpec`."""
    specs: dict[str, MetricSpec] = {}
    for section in CATALOG:
        for spec in section.specs:
            for name in spec.names:
                specs[name] = spec
    return specs


def declared_names() -> frozenset[str]:
    """The set of every metric name the catalog declares."""
    return frozenset(declared_specs())


def render_markdown() -> str:
    """Render the ``## Metric catalog`` docs section from :data:`CATALOG`.

    The output is the generated block ``python -m repro docs`` splices into
    ``docs/observability.md`` between the catalog markers; the ``--check``
    drift gate byte-compares against this exact text.
    """
    lines: list[str] = [
        "## Metric catalog",
        "",
        "Metric keys are flat strings `name{label=value,...}` with labels sorted",
        "(`repro.obs.snapshot.metric_key`).  All of the following are counters.",
    ]
    for section in CATALOG:
        lines.extend(["", f"### {section.title}", ""])
        if section.intro:
            lines.extend([section.intro, ""])
        lines.append("| Metric | Labels | Meaning |")
        lines.append("|---|---|---|")
        for spec in section.specs:
            for index, (labels, meaning) in enumerate(spec.rows):
                metric_cell = spec.display if index == 0 else ""
                lines.append(f"| {metric_cell} | {labels} | {meaning} |")
        if section.outro:
            lines.extend(["", section.outro])
    return "\n".join(lines) + "\n"
