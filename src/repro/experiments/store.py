"""JSONL result store with content-hashed spec keys and resume support.

Each spec maps to one append-only JSONL file named
``<spec name>-<spec key>.jsonl`` (the key is the SHA-256 content hash of the
canonical spec, :meth:`~repro.experiments.spec.ExperimentSpec.key`), plus a
``.spec.json`` sidecar holding the spec itself so a store directory is
self-describing.  One line per executed task:

.. code-block:: json

    {"task_id": "exists-label:0:1", "point_index": 0, "scenario": "...",
     "params": {...}, "run_index": 1, "seed": 123, "status": "ok",
     "verdict": "accept", "steps": 431, "expected": true, "attempt": 1,
     "wall_time": 0.01}

``status`` is ``"ok"``, ``"failed"``, ``"timeout"``, ``"crashed"`` or
``"quarantined"`` (see ``docs/robustness.md`` for the taxonomy); only
``"ok"`` records count as completed, so every other outcome is retried on
resume.  Loading tolerates corruption: a truncated *final* line (the
signature of a sweep killed mid-write) is silently dropped, while an
undecodable *mid-file* line — torn by an external writer or disk fault — is
skipped with a :class:`RuntimeWarning` reporting how many lines were lost,
so one bad byte never hides the rest of the file.

Sidecar writes (``.spec.json``, ``.metrics.json``) are **atomic**: content
goes to a temp file in the same directory and is ``os.replace``-renamed over
the target, so a kill mid-write leaves the previous durable sidecar intact
instead of a half-written one that would zero accumulated telemetry on the
next merge.  The ``partial-write`` fault kind in
:mod:`repro.experiments.faults` tears exactly this temp-file stage to prove
the guarantee.
"""

from __future__ import annotations

import json
import os
import re
import warnings
from collections.abc import Iterable
from pathlib import Path

from repro.experiments.faults import InjectedFault, get_plan
from repro.experiments.spec import ExperimentSpec

_SAFE_NAME = re.compile(r"[^A-Za-z0-9._-]+")


def _slug(name: str) -> str:
    return _SAFE_NAME.sub("-", name).strip("-") or "spec"


def _atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (same-directory temp + rename).

    The durable file either keeps its previous content or holds the complete
    new content — never a torn mixture.  An active ``partial-write`` fault
    rule (:mod:`repro.experiments.faults`) tears the temp-file stage: half
    the payload is written, the temp file is removed and
    :class:`~repro.experiments.faults.InjectedFault` raised, which is
    exactly what a kill mid-write looks like to the durable file.
    """
    temp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    try:
        plan = get_plan()
        rule = plan.for_write(path.name) if plan is not None else None
        with temp.open("w", encoding="utf-8") as handle:
            if rule is not None:
                handle.write(text[: len(text) // 2])
                handle.flush()
                raise InjectedFault(f"injected partial-write ({path.name})")
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


class ResultStore:
    """A directory of per-spec JSONL result files.

    Opening a store touches nothing on disk, so read-only callers (``repro
    report``, ``repro stats``) leave no directory behind;
    :meth:`write_spec`, the first write of every sweep, creates it.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)

    # ------------------------------------------------------------------ #
    def results_path(self, spec: ExperimentSpec) -> Path:
        return self.root / f"{_slug(spec.name)}-{spec.key()}.jsonl"

    def spec_path(self, spec: ExperimentSpec) -> Path:
        return self.root / f"{_slug(spec.name)}-{spec.key()}.spec.json"

    def trace_path(self, spec: ExperimentSpec) -> Path:
        """The ``.trace.jsonl`` observability sidecar (see :mod:`repro.obs`).

        Named by stripping the results file's ``.jsonl`` suffix, so
        :func:`repro.obs.report.sidecar_paths` finds it from the results
        path alone.  The trace writer appends, so resumed sweeps extend the
        same sidecar rather than truncating the earlier chunks' spans.
        """
        return self.root / f"{_slug(spec.name)}-{spec.key()}.trace.jsonl"

    def metrics_path(self, spec: ExperimentSpec) -> Path:
        """The ``.metrics.json`` merged-snapshot sidecar for ``spec``."""
        return self.root / f"{_slug(spec.name)}-{spec.key()}.metrics.json"

    def write_spec(self, spec: ExperimentSpec) -> Path:
        """Persist the spec sidecar atomically (idempotent — hash matches).

        Creates the store directory on the first write.
        """
        path = self.spec_path(spec)
        if not path.exists():
            self.root.mkdir(parents=True, exist_ok=True)
            _atomic_write_text(path, spec.to_json() + "\n")
        return path

    # ------------------------------------------------------------------ #
    def append(self, spec: ExperimentSpec, records: Iterable[dict]) -> int:
        """Append records for ``spec``; returns the number written."""
        written = 0
        with self.results_path(spec).open("a", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
                written += 1
            handle.flush()
        return written

    def load(self, spec: ExperimentSpec) -> list[dict]:
        """All durable records for ``spec``, tolerant of corrupt lines.

        A truncated *final* line (interrupted writer) is dropped silently —
        the normal kill-mid-append signature.  Undecodable lines *before*
        the end are skipped with a single :class:`RuntimeWarning` reporting
        the dropped count, so mid-file corruption costs the torn records
        only, never everything after them.
        """
        path = self.results_path(spec)
        if not path.exists():
            return []
        with path.open("r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        while lines and not lines[-1].strip():
            lines.pop()
        records: list[dict] = []
        dropped = 0
        for index, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                if index == len(lines) - 1:
                    # A partial final line from an interrupted writer; every
                    # complete record before it is still valid.
                    break
                dropped += 1
        if dropped:
            warnings.warn(
                f"{path.name}: skipped {dropped} undecodable record "
                f"line{'s' if dropped != 1 else ''} (mid-file corruption); "
                f"kept {len(records)} valid records",
                RuntimeWarning,
                stacklevel=2,
            )
        return records

    # ------------------------------------------------------------------ #
    def write_metrics(self, spec: ExperimentSpec, snapshot) -> Path:
        """Merge ``snapshot`` into the durable sidecar and rewrite it atomically.

        Snapshot merge is associative and commutative, so a resumed sweep's
        chunk telemetry folds into the earlier chunks' totals — the sidecar
        always describes the whole results file, not just the last session.
        The replace-rename write means a kill mid-merge keeps the previous
        totals instead of zeroing them.  A durable sidecar that holds no
        snapshot (see :func:`repro.obs.snapshot.load_metrics`) is replaced by
        ``snapshot`` alone, with a :class:`RuntimeWarning` naming the file.
        """
        from repro.obs.snapshot import MetricsSnapshot, load_metrics

        path = self.metrics_path(spec)
        try:
            durable = load_metrics(path)
        except (ValueError, OSError) as exc:
            warnings.warn(
                f"{exc}; rewriting it from this session's metrics",
                RuntimeWarning,
                stacklevel=2,
            )
            durable = MetricsSnapshot()
        _atomic_write_text(
            path,
            json.dumps(durable.merge(snapshot).to_dict(), indent=2, sort_keys=True)
            + "\n",
        )
        return path

    def completed_ids(self, spec: ExperimentSpec) -> set[str]:
        """Task ids that have a durable successful record."""
        return {
            record["task_id"]
            for record in self.load(spec)
            if record.get("status") == "ok"
        }
