"""The ``picklability`` rule: wire-format classes must stay picklable.

The sweep executor ships :class:`~repro.workloads.spec.InstanceSpec` /
``EngineOptions`` / ``RetryPolicy`` / ``FaultPlan`` / ``MetricsSnapshot``
instances across the process boundary, and ``Workload.shippable()`` promises
a picklable ``CompiledMachineWorkload``, so an
unpicklable attribute on any of them is a latent crash that only fires under
``--workers N`` — exactly the kind of hazard a static pass should catch at
lint time.  For each declared wire-format class the checker flags instance
attributes assigned from:

* a ``lambda`` expression (pickle refuses functions not importable by name);
* a function or class **defined locally** inside the assigning method — a
  closure or local class, equally unimportable;
* an ``open(...)`` / ``*.open(...)`` call — live OS handles never survive a
  round trip.

Both plain ``self.x = value`` and the frozen-dataclass idiom
``object.__setattr__(self, "x", value)`` are recognised.  Class-level
``name = lambda ...`` bindings are flagged too.  Finally, defining exactly
one of ``__getstate__`` / ``__setstate__`` is an error: an unpaired override
silently changes the wire format in one direction only.

The checker is name-based (any class *named* like a wire-format class, in
any scanned file) — cheap, and exactly what we want for a contract attached
to those specific types.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.framework import Checker, FileContext, Finding

#: The classes pickled across the process boundary.
WIRE_CLASSES = frozenset(
    {
        "InstanceSpec",
        "EngineOptions",
        "RetryPolicy",
        "FaultPlan",
        "MetricsSnapshot",
        "CompiledMachineWorkload",
    }
)


def _is_open_call(node: ast.AST) -> bool:
    """Whether ``node`` is an ``open(...)``-shaped call (a live OS handle)."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "open"
    return isinstance(func, ast.Attribute) and func.attr == "open"


class PicklabilityChecker(Checker):
    """Flag unpicklable attribute values on declared wire-format classes."""

    rule = "picklability"
    description = (
        "wire-format classes (InstanceSpec, EngineOptions, RetryPolicy, "
        "FaultPlan, MetricsSnapshot, CompiledMachineWorkload) must not hold "
        "lambdas, closures, local classes, or open handles, and must pair "
        "__getstate__/__setstate__"
    )
    node_types = (ast.ClassDef,)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        """Audit one class definition if its name is a wire-format class."""
        assert isinstance(node, ast.ClassDef)
        if node.name not in WIRE_CLASSES:
            return
        yield from self._check_state_pairing(node, ctx)
        for statement in node.body:
            if isinstance(statement, (ast.Assign, ast.AnnAssign)):
                yield from self._check_class_level(statement, node, ctx)
            elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_method(statement, node, ctx)

    # ------------------------------------------------------------------ #
    def _check_state_pairing(
        self, node: ast.ClassDef, ctx: FileContext
    ) -> Iterable[Finding]:
        methods = {
            stmt.name
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        has_get = "__getstate__" in methods
        has_set = "__setstate__" in methods
        if has_get != has_set:
            present, missing = (
                ("__getstate__", "__setstate__")
                if has_get
                else ("__setstate__", "__getstate__")
            )
            yield ctx.finding(
                self.rule,
                node,
                f"wire-format class {node.name} defines {present} without "
                f"{missing}; an unpaired override changes the wire format in "
                f"one direction only",
            )

    def _check_class_level(
        self, statement: ast.Assign | ast.AnnAssign, cls: ast.ClassDef, ctx: FileContext
    ) -> Iterable[Finding]:
        value = statement.value
        if isinstance(value, ast.Lambda):
            yield ctx.finding(
                self.rule,
                statement,
                f"class-level lambda on wire-format class {cls.name}; pickle "
                f"cannot import a lambda by name — use a module-level function",
            )

    def _check_method(
        self,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
        cls: ast.ClassDef,
        ctx: FileContext,
    ) -> Iterable[Finding]:
        # Names of functions/classes defined *inside* this method: assigning
        # one to an attribute stores a closure / local class on the instance.
        local_defs = {
            stmt.name
            for stmt in ast.walk(method)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and stmt is not method
        }
        for node in ast.walk(method):
            target_value: ast.AST | None = None
            if isinstance(node, ast.Assign):
                if any(self._is_self_attribute(t) for t in node.targets):
                    target_value = node.value
            elif isinstance(node, ast.AnnAssign):
                if node.value is not None and self._is_self_attribute(node.target):
                    target_value = node.value
            elif isinstance(node, ast.Call):
                target_value = self._object_setattr_value(node)
            if target_value is None:
                continue
            yield from self._check_value(target_value, node, cls, local_defs, ctx)

    @staticmethod
    def _is_self_attribute(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        )

    @staticmethod
    def _object_setattr_value(node: ast.Call) -> ast.AST | None:
        """The value argument of ``object.__setattr__(self, "x", value)``."""
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "__setattr__"
            and isinstance(func.value, ast.Name)
            and func.value.id == "object"
            and len(node.args) == 3
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id == "self"
        ):
            return node.args[2]
        return None

    def _check_value(
        self,
        value: ast.AST,
        anchor: ast.AST,
        cls: ast.ClassDef,
        local_defs: set[str],
        ctx: FileContext,
    ) -> Iterable[Finding]:
        if isinstance(value, ast.Lambda):
            yield ctx.finding(
                self.rule,
                anchor,
                f"lambda assigned to an instance attribute of wire-format "
                f"class {cls.name}; pickle cannot serialise it",
            )
        elif isinstance(value, ast.Name) and value.id in local_defs:
            yield ctx.finding(
                self.rule,
                anchor,
                f"locally-defined {value.id!r} assigned to an instance "
                f"attribute of wire-format class {cls.name}; a closure/local "
                f"class is not importable by name and cannot pickle",
            )
        elif _is_open_call(value):
            yield ctx.finding(
                self.rule,
                anchor,
                f"open() handle assigned to an instance attribute of "
                f"wire-format class {cls.name}; live OS handles never survive "
                f"a pickle round trip",
            )
