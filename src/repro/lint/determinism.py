"""The ``determinism`` rule: no ambient entropy inside the engine layer.

The repo's bit-identity contract (CONTRIBUTING.md) holds only if every draw
an engine makes flows from an injected ``random.Random(derive_seed(...))``
stream.  This checker statically bans the ambient entropy sources inside the
engine-layer packages (``core/``, ``workloads/``, ``population/`` and the
``constructions/`` / ``extensions/`` compilation pipelines):

* calls through the **global** :mod:`random` module (``random.random()``,
  ``random.randint``, ``random.shuffle``, ``random.seed``, ...) — these share
  one hidden process-wide stream any import can perturb;
* **seedless** ``random.Random()`` (and ``random.SystemRandom`` always) —
  seeded from OS entropy, unreplayable;
* ``numpy.random`` / ``np.random`` global-state access;
* wall-clock reads (any ``time.*`` call) — timing belongs in ``repro.obs``
  and the executor, which are deliberately outside this rule's scope;
* ``uuid.*`` and ``os.urandom`` — identity must come from content hashes
  (``derive_seed``, spec keys), never fresh entropy.

``random.Random(seed)`` *with* a seed argument is the sanctioned idiom and
passes, unless ``seed`` is a parameter of the enclosing function that
defaults to ``None``: such a default hands every caller that omits it an
OS-entropy stream.  :func:`repro.core.scheduler.resolve_rng` is the one
place allowed to make that call.  Imports of the banned names
(``from random import random``, ``from time import time``) are flagged at
the import so an aliased call cannot slip through unseen.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.framework import Checker, FileContext, Finding

#: Path fragments of the engine layer, where entropy must be injected.
SCOPE_FRAGMENTS = (
    "repro/core/",
    "repro/workloads/",
    "repro/population/",
    "repro/constructions/",
    "repro/extensions/",
    "repro/fuzz/",
)

#: Modules whose *direct function* use is banned in scope (module -> why).
_BANNED_MODULES = {
    "random": "the global random module shares hidden process-wide state",
    "time": "wall-clock reads are nondeterministic; timing belongs in repro.obs",
    "uuid": "uuid generation is fresh entropy; derive identity from content hashes",
}


def _attribute_chain(node: ast.AST) -> tuple[str, ...]:
    """The dotted-name parts of an attribute chain, outermost first.

    ``np.random.seed`` -> ``("np", "random", "seed")``; an empty tuple when
    the chain bottoms out in something other than a plain name.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


def _none_default_parameter(node: ast.Call, ctx: FileContext) -> bool:
    """Whether ``random.Random(p)`` seeds from a parameter ``p`` of the
    enclosing function that defaults to ``None`` (``resolve_rng`` exempt)."""
    args = node.args or [keyword.value for keyword in node.keywords]
    functions = [s for s in ctx.stack if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))]
    if len(args) != 1 or not isinstance(args[0], ast.Name) or not functions:
        return False
    spec = functions[-1].args
    positional = spec.posonlyargs + spec.args
    defaults = [None] * (len(positional) - len(spec.defaults)) + spec.defaults
    pairs = zip(positional + spec.kwonlyargs, defaults + spec.kw_defaults)
    return functions[-1].name != "resolve_rng" and any(
        arg.arg == args[0].id and isinstance(default, ast.Constant) and default.value is None
        for arg, default in pairs
    )


class DeterminismChecker(Checker):
    """Flag ambient entropy (global RNG, wall clock, uuid) in engine code."""

    rule = "determinism"
    description = (
        "engine-layer code must draw entropy only from injected "
        "derive_seed streams, never global random/time/uuid state"
    )
    node_types = (ast.Call, ast.ImportFrom)

    def interested(self, rel: str) -> bool:
        """Only the engine-layer packages are in scope (see module doc)."""
        return any(fragment in rel for fragment in SCOPE_FRAGMENTS)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        """Dispatch to the call / import handler for ``node``."""
        if isinstance(node, ast.Call):
            return self._check_call(node, ctx)
        return self._check_import(node, ctx)

    # ------------------------------------------------------------------ #
    def _check_call(self, node: ast.Call, ctx: FileContext) -> Iterable[Finding]:
        chain = _attribute_chain(node.func)
        if len(chain) < 2:
            return
        head = chain[0]
        if head == "random" and len(chain) == 2:
            attr = chain[1]
            if attr == "Random":
                if not node.args and not node.keywords:
                    yield ctx.finding(
                        self.rule,
                        node,
                        "seedless random.Random() seeds from OS entropy; pass "
                        "a seed derived via derive_seed",
                    )
                elif _none_default_parameter(node, ctx):
                    yield ctx.finding(
                        self.rule,
                        node,
                        "random.Random(seed) where seed defaults to None seeds "
                        "from OS entropy when the caller omits it; give the "
                        "seed an int type",
                    )
            elif attr == "SystemRandom":
                yield ctx.finding(
                    self.rule,
                    node,
                    "random.SystemRandom draws OS entropy and can never replay; "
                    "use a seeded random.Random",
                )
            else:
                yield ctx.finding(
                    self.rule,
                    node,
                    f"global random.{attr}() mutates the hidden process-wide "
                    f"stream; draw from an injected seeded random.Random",
                )
        elif head in ("numpy", "np") and len(chain) >= 3 and chain[1] == "random":
            yield ctx.finding(
                self.rule,
                node,
                f"{'.'.join(chain)}() uses numpy's global RNG state; use a "
                f"per-run numpy Generator (or the injected random.Random)",
            )
        elif head == "time" and len(chain) == 2:
            yield ctx.finding(
                self.rule,
                node,
                f"wall-clock call time.{chain[1]}() inside the engine layer; "
                f"timing belongs in repro.obs / the executor",
            )
        elif head == "uuid" and len(chain) == 2:
            yield ctx.finding(
                self.rule,
                node,
                f"uuid.{chain[1]}() is fresh entropy; derive identity from "
                f"content hashes (spec keys, derive_seed)",
            )
        elif chain == ("os", "urandom"):
            yield ctx.finding(
                self.rule,
                node,
                "os.urandom() is raw OS entropy and can never replay",
            )

    def _check_import(
        self, node: ast.ImportFrom, ctx: FileContext
    ) -> Iterable[Finding]:
        if node.module in _BANNED_MODULES:
            why = _BANNED_MODULES[node.module]
            for alias in node.names:
                if node.module == "random" and alias.name in ("Random",):
                    continue  # the sanctioned injectable generator class
                yield ctx.finding(
                    self.rule,
                    node,
                    f"'from {node.module} import {alias.name}' aliases a banned "
                    f"entropy source into scope ({why})",
                )
        elif node.module == "os":
            for alias in node.names:
                if alias.name == "urandom":
                    yield ctx.finding(
                        self.rule,
                        node,
                        "'from os import urandom' aliases raw OS entropy into "
                        "scope",
                    )
