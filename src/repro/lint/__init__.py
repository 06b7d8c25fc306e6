"""repro-lint: the static invariant checker behind ``python -m repro lint``.

The package guards the repo's load-bearing contracts *statically* — before
any sweep runs — where the differential tests can only catch a hazard once
a seed happens to trip it:

* :mod:`repro.lint.framework` — the single-pass AST walker, pragma
  handling, and the :class:`LintReport` / ``--json`` schema;
* :mod:`repro.lint.determinism` — no ambient entropy in the engine layer;
* :mod:`repro.lint.iteration_order` — no unsorted set iteration feeding
  draws or serialised output;
* :mod:`repro.lint.picklability` — wire-format classes stay picklable;
* :mod:`repro.lint.exceptions` — broad excepts justify or re-raise,
  ``SIGALRM`` stays in ``_Alarm``;
* :mod:`repro.lint.metrics_catalog` — call sites match
  :mod:`repro.obs.catalog` bidirectionally;
* :mod:`repro.lint.docstrings` — pydocstyle-lite on the public surface.

See ``docs/static-analysis.md`` for the rule catalog, the pragma grammar,
and how to add a checker.
"""

from repro.lint.cli import default_checkers, run_lint
from repro.lint.framework import (
    Checker,
    FileContext,
    Finding,
    LintReport,
    Pragma,
    lint_paths,
    parse_pragmas,
)

__all__ = [
    "Checker",
    "FileContext",
    "Finding",
    "LintReport",
    "Pragma",
    "default_checkers",
    "lint_paths",
    "parse_pragmas",
    "run_lint",
]
