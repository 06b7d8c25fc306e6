"""The ``iteration-order`` rule: no unsorted set iteration near draws/output.

The classic bit-identity killer: iterating a ``set``/``frozenset`` yields
elements in hash order, which varies across processes (string hash
randomisation) and across Python versions — so a loop over a set that feeds
an RNG draw, a hash, or serialised output silently makes two "identical"
runs diverge.  The fix is always an interposed ``sorted(...)``.

Statically deciding whether a particular loop *feeds* a draw is undecidable,
so the checker uses a deliberately documented approximation:

* **what counts as a set** — set literals/comprehensions, ``set(...)`` /
  ``frozenset(...)`` calls, set-operator expressions (``| & - ^``) and set
  method results (``.union(...)`` etc.) over those, plus local names
  assigned from any of the above (tracked per function scope, first
  assignment wins until reassigned to a non-set);
* **what counts as a sink** — the enclosing scope also contains an RNG draw
  (a method call on a name containing ``rng``) or a serialisation call
  (``json``/``pickle`` ``dump(s)``, ``hashlib``, ``canonical_json``, a
  ``.write(...)``);
* **what silences it** — the iterated expression is wrapped in
  ``sorted(...)`` (directly, or one level inside ``enumerate``/``list``/
  ``tuple``), or a justified per-line pragma.

Scope-gating on sinks keeps the rule quiet on pure set algebra (building a
``frozenset`` of states is fine — *consuming* one in iteration order next to
a draw is not).  Like the determinism rule, only the engine-layer packages
are scanned.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.framework import Checker, FileContext, Finding
from repro.lint.determinism import SCOPE_FRAGMENTS

_SET_METHODS = {
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
    "copy",
}

_DRAW_METHODS = {
    "random",
    "randint",
    "randrange",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "uniform",
    "getrandbits",
}

_SERIALIZE_MODULES = {"json", "pickle", "marshal"}


def _is_set_expression(node: ast.AST, set_vars: set[str]) -> bool:
    """Whether ``node`` statically denotes a set/frozenset value."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_vars
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
            return True
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _SET_METHODS
            and _is_set_expression(node.func.value, set_vars)
        ):
            return True
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expression(node.left, set_vars) or _is_set_expression(
            node.right, set_vars
        )
    return False


def _unwrap_iter(node: ast.AST) -> tuple[ast.AST, bool]:
    """Peel one ``enumerate``/``list``/``tuple`` layer; detect ``sorted``.

    Returns ``(inner_expression, is_sorted)`` — ``is_sorted`` is True when a
    ``sorted(...)`` call interposes anywhere along the peel, which is the
    sanctioned determinising wrapper.
    """
    while (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("enumerate", "list", "tuple", "reversed", "sorted")
        and node.args
    ):
        if node.func.id == "sorted":
            return node, True
        node = node.args[0]
    return node, False


class _ScopeAnalysis:
    """Set-variable tracking plus sink detection for one function scope."""

    def __init__(self) -> None:
        self.set_vars: set[str] = set()
        self.has_sink = False
        self.sink_kind = ""

    def note_assignment(self, node: ast.Assign | ast.AnnAssign) -> None:
        """Track local names holding set values (reassignment clears)."""
        value = node.value
        if value is None:
            return
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if _is_set_expression(value, self.set_vars):
                self.set_vars.add(target.id)
            else:
                self.set_vars.discard(target.id)

    def note_call(self, node: ast.Call) -> None:
        """Record RNG-draw / serialisation sinks seen in this scope."""
        if self.has_sink:
            return
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "canonical_json":
                self.has_sink, self.sink_kind = True, "serialised output"
        elif isinstance(func, ast.Attribute):
            owner = func.value
            owner_name = owner.id if isinstance(owner, ast.Name) else ""
            if func.attr in _DRAW_METHODS and "rng" in owner_name.lower():
                self.has_sink, self.sink_kind = True, "an RNG draw"
            elif owner_name in _SERIALIZE_MODULES and func.attr in ("dump", "dumps"):
                self.has_sink, self.sink_kind = True, "serialised output"
            elif owner_name == "hashlib" or func.attr == "write":
                self.has_sink, self.sink_kind = True, "serialised output"


class IterationOrderChecker(Checker):
    """Flag unsorted set iteration in scopes that draw or serialise."""

    rule = "iteration-order"
    description = (
        "iterating a set in hash order next to an RNG draw or serialised "
        "output breaks bit-identity; interpose sorted(...)"
    )
    node_types = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)

    def interested(self, rel: str) -> bool:
        """Engine-layer packages only, like the determinism rule."""
        return any(fragment in rel for fragment in SCOPE_FRAGMENTS)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        """Analyse one scope (module or function) in statement order."""
        return self._analyse_scope(node, ctx)

    # ------------------------------------------------------------------ #
    def _analyse_scope(self, scope: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        analysis = _ScopeAnalysis()
        body = scope.body if not isinstance(scope, ast.Module) else scope.body
        # Pass 1 (sinks): the whole scope subtree, nested closures included —
        # a draw inside a local helper still consumes the loop's order.
        for node in self._scope_subtree(scope, include_nested=True):
            if isinstance(node, ast.Call):
                analysis.note_call(node)
        # Pass 2 (set vars + loops): statement order, this scope only.
        findings: list[Finding] = []
        for node in self._scope_subtree(scope, include_nested=False):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                analysis.note_assignment(node)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                findings.extend(self._check_iter(node.iter, node, analysis, ctx))
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for generator in node.generators:
                    findings.extend(
                        self._check_iter(generator.iter, node, analysis, ctx)
                    )
        del body
        return findings

    def _scope_subtree(self, scope: ast.AST, include_nested: bool):
        """Yield ``scope``'s subtree in source order, optionally skipping
        inner function bodies (pass 2 must see assignments before the loops
        that consume them)."""
        for child in ast.iter_child_nodes(scope):
            yield child
            if not include_nested and isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            yield from self._scope_subtree(child, include_nested)

    def _check_iter(
        self,
        iterable: ast.AST,
        anchor: ast.AST,
        analysis: _ScopeAnalysis,
        ctx: FileContext,
    ) -> Iterable[Finding]:
        inner, is_sorted = _unwrap_iter(iterable)
        if is_sorted or not _is_set_expression(inner, analysis.set_vars):
            return
        if not analysis.has_sink:
            return
        described = (
            f"set variable {inner.id!r}"
            if isinstance(inner, ast.Name)
            else "a set expression"
        )
        yield ctx.finding(
            self.rule,
            anchor,
            f"iteration over {described} in hash order while this scope feeds "
            f"{analysis.sink_kind}; interpose sorted(...) to fix the order",
        )
