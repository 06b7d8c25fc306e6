"""The ``docstrings`` rule: pydocstyle-lite, as a framework checker.

The rule runs as one more subscriber to the single lint pass;
:func:`check_roots` walks the same roots standalone for
``tests/test_docstrings.py``.  The policy:

* every module under the documented roots has a module docstring;
* every public class and public module-level function has a docstring;
* on the *strict* surface (``repro/workloads``, ``repro/obs``,
  ``repro/lint`` and the batch engine modules) every public method of a
  public class is documented too, except the trivial dunders whose
  behaviour the data model already defines.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable

from repro.lint.framework import Checker, FileContext, Finding

#: Roots the rule (and :func:`check_roots`) walks by
#: default — the public API, the engine layer, observability, and the lint
#: framework itself.
DEFAULT_ROOTS = (
    "src/repro/workloads",
    "src/repro/core",
    "src/repro/obs",
    "src/repro/lint",
    "src/repro/fuzz",
)

#: Path fragments whose public *methods* must be documented as well.
STRICT_FRAGMENTS = (
    "repro/workloads/",
    "repro/obs/",
    "repro/lint/",
    "repro/core/batch.py",
    "repro/core/vector_batch.py",
    "repro/core/vector_pernode.py",
    "repro/core/streaks.py",
)

#: Dunder methods whose behaviour is defined by the data model; requiring a
#: docstring on each would add noise, not information.
ALLOWED_UNDOCUMENTED_DUNDERS = {
    "__init__",
    "__post_init__",
    "__repr__",
    "__str__",
    "__eq__",
    "__ne__",
    "__hash__",
    "__iter__",
    "__len__",
    "__contains__",
    "__getitem__",
    "__enter__",
    "__exit__",
    "__getstate__",
    "__setstate__",
}


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _needs_docstring(name: str) -> bool:
    if name.startswith("__") and name.endswith("__"):
        return name not in ALLOWED_UNDOCUMENTED_DUNDERS
    return _is_public(name)


def module_problems(tree: ast.Module, strict: bool) -> list[tuple[int, str]]:
    """``(line, message)`` docstring violations for one parsed module.

    ``line`` is 1 for the module-docstring case; the shared core behind both
    the framework checker and :func:`check_roots`.
    """
    problems: list[tuple[int, str]] = []
    if ast.get_docstring(tree) is None:
        problems.append((1, "missing module docstring"))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _is_public(node.name) and ast.get_docstring(node) is None:
                problems.append(
                    (node.lineno, f"public function {node.name!r} missing docstring")
                )
        elif isinstance(node, ast.ClassDef) and _is_public(node.name):
            if ast.get_docstring(node) is None:
                problems.append(
                    (node.lineno, f"public class {node.name!r} missing docstring")
                )
            if not strict:
                continue
            for member in node.body:
                if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if _needs_docstring(member.name) and ast.get_docstring(member) is None:
                    problems.append(
                        (
                            member.lineno,
                            f"public method {node.name}.{member.name} "
                            f"missing docstring",
                        )
                    )
    return problems


def _is_strict(path_text: str) -> bool:
    return any(fragment in path_text for fragment in STRICT_FRAGMENTS)


class DocstringChecker(Checker):
    """Enforce docstrings on the public surface (pydocstyle-lite)."""

    rule = "docstrings"
    description = (
        "public modules, classes, functions (and, on the strict surface, "
        "methods) must carry docstrings"
    )
    node_types = (ast.Module,)

    #: ``DEFAULT_ROOTS`` reduced to path fragments, so the rule scopes the
    #: same files whether invoked via ``repro lint src/`` or :func:`check_roots`.
    _SCOPE_FRAGMENTS = tuple(
        root.split("src/", 1)[-1] + "/" for root in DEFAULT_ROOTS
    )

    def interested(self, rel: str) -> bool:
        """Only the documented roots (workloads, core, obs, lint)."""
        return any(fragment in rel for fragment in self._SCOPE_FRAGMENTS)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        """Check the whole module in one dispatch (the tree is the unit)."""
        assert isinstance(node, ast.Module)
        for line, message in module_problems(node, _is_strict(ctx.rel)):
            yield ctx.finding(self.rule, line, message)


# --------------------------------------------------------------------- #
# Standalone entry points over the default roots (used by the test suite).


def check_file(path: Path) -> list[str]:
    """Violation descriptions for one Python source file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    problems: list[str] = []
    for line, message in module_problems(tree, _is_strict(str(path))):
        if message == "missing module docstring":
            problems.append(f"{path}: {message}")
        else:
            problems.append(f"{path}:{line}: {message}")
    return problems


def check_roots(roots=DEFAULT_ROOTS, base: Path | None = None) -> list[str]:
    """Violations across every ``.py`` file under the given roots."""
    if base is None:
        base = Path(__file__).resolve().parents[3]
    problems: list[str] = []
    for root in roots:
        root_path = base / root
        if not root_path.exists():
            problems.append(f"{root_path}: root does not exist")
            continue
        for path in sorted(root_path.rglob("*.py")):
            problems.extend(check_file(path))
    return problems
