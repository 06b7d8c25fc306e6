"""Tier-1 enforcement of the public docstring contract.

Runs the pydocstyle-lite checker (:mod:`repro.lint.docstrings`) over the
public simulation surface — ``repro.workloads`` and ``repro.core`` among
its default roots — so a missing module/class/function docstring fails the
ordinary test suite, not just a separate CI step.  The checker itself
documents exactly which names are in scope (public only; strict method
coverage on the workloads package and the batch/streak engine modules).
"""

from __future__ import annotations

from pathlib import Path

from repro.lint.docstrings import DEFAULT_ROOTS, check_roots

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_public_surface_is_fully_documented():
    problems = check_roots(DEFAULT_ROOTS, base=REPO_ROOT)
    assert not problems, "\n".join(problems)
