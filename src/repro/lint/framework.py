"""The single-pass AST lint framework behind ``python -m repro lint``.

Every file is parsed **once** and walked **once**: the runner maintains one
enclosing-scope stack (module / class / function nodes) and dispatches each
AST node to every registered :class:`Checker` that subscribed to its type, so
adding a checker costs no extra parse or traversal.  Checkers are stateless
between runs but may accumulate *project-wide* state across files (the
metric-catalog checker cross-references call sites against declarations) and
flush it in :meth:`Checker.finish`.

Findings are suppressed per line with a pragma comment::

    risky_thing()  # repro-lint: disable=determinism - seeded upstream by derive_seed

The pragma grammar is ``# repro-lint: disable=<rule>[,<rule>...] - <reason>``;
the justification text after `` - `` is **mandatory** (a bare suppression is
itself reported under the ``pragma`` rule) and naming an unknown rule is an
error, so a typo can never silently disable a checker.  Comments are read
with :mod:`tokenize`, never by substring-matching source lines, so pragma
syntax inside string literals is inert.

The framework never imports the code it scans — a syntax-error-free tree is
the only requirement.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

#: The rule id findings about malformed pragmas are reported under.  It is a
#: real rule (shown by ``--json`` in the rule listing) but has no checker —
#: the runner itself owns pragma hygiene.
PRAGMA_RULE = "pragma"

_PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*disable=(?P<rules>[A-Za-z0-9_,-]+)"
    r"(?:\s+-\s+(?P<reason>\S.*))?\s*$"
)


@dataclass(frozen=True)
class Finding:
    """One lint violation: a rule id anchored to a ``file:line``."""

    rule: str
    path: str
    line: int
    message: str

    @property
    def location(self) -> str:
        """The clickable ``path:line`` anchor of this finding."""
        return f"{self.path}:{self.line}"

    def to_dict(self) -> dict:
        """The JSON wire form used by ``python -m repro lint --json``."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }


@dataclass(frozen=True)
class Pragma:
    """A parsed ``# repro-lint: disable=...`` comment on one source line."""

    line: int
    rules: tuple[str, ...]
    reason: str | None


@dataclass
class FileContext:
    """Everything a checker may consult about the file being walked.

    ``stack`` is the live enclosing-node stack (the module node at the
    bottom, then classes/functions outward-in); the runner pushes and pops
    around child traversal, so during a ``visit`` call it describes exactly
    the scopes the visited node sits in.  ``comments`` maps line numbers to
    raw comment text (from :mod:`tokenize`) — the exception-hygiene checker
    reads its ``noqa`` justifications from here.
    """

    path: Path
    rel: str
    tree: ast.Module
    source: str
    comments: dict[int, str] = field(default_factory=dict)
    pragmas: dict[int, Pragma] = field(default_factory=dict)
    stack: list[ast.AST] = field(default_factory=list)

    def finding(self, rule: str, node: ast.AST | int, message: str) -> Finding:
        """A :class:`Finding` for ``rule`` anchored at ``node`` (or a line)."""
        line = node if isinstance(node, int) else getattr(node, "lineno", 1)
        return Finding(rule=rule, path=self.rel, line=line, message=message)

    def in_class(self, name: str) -> bool:
        """Whether the current stack includes a class definition ``name``."""
        return any(
            isinstance(scope, ast.ClassDef) and scope.name == name
            for scope in self.stack
        )


class Checker:
    """Base class for one lint rule family.

    Subclasses set ``rule`` (the id pragmas and reports use) and
    ``description``, override ``node_types`` with the AST classes they want
    dispatched, and implement :meth:`visit`.  File-scoped rules return
    findings from ``visit``/``finish_file``; project-scoped rules accumulate
    and flush from :meth:`finish` after every file was walked.
    """

    rule: str = "abstract"
    description: str = ""
    #: AST node classes this checker wants :meth:`visit` called for.
    node_types: tuple[type, ...] = ()

    def interested(self, rel: str) -> bool:
        """Whether this checker applies to the file at repo-relative ``rel``."""
        return True

    def start_file(self, ctx: FileContext) -> Iterable[Finding]:
        """Hook before the walk of one file; may yield findings."""
        return ()

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        """Inspect one dispatched node; may yield findings."""
        return ()

    def finish_file(self, ctx: FileContext) -> Iterable[Finding]:
        """Hook after the walk of one file; may yield findings."""
        return ()

    def finish(self) -> Iterable[Finding]:
        """Project-wide phase after every file (cross-file rules)."""
        return ()


def _scan_comments(source: str) -> dict[int, str]:
    """Map line number -> comment text, via :mod:`tokenize` (string-safe)."""
    comments: dict[int, str] = {}
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                comments[token.start[0]] = token.string
    except (tokenize.TokenError, IndentationError):  # pragma: no cover - defensive
        pass
    return comments


def parse_pragmas(
    comments: dict[int, str], known_rules: set[str], rel: str
) -> tuple[dict[int, Pragma], list[Finding]]:
    """Extract ``repro-lint`` pragmas and validate them against known rules.

    Returns the per-line pragma map plus the pragma-hygiene findings: an
    unknown rule name and a missing justification are both errors — a
    suppression must say *what* it silences and *why*.
    """
    pragmas: dict[int, Pragma] = {}
    problems: list[Finding] = []
    for line, text in comments.items():
        if "repro-lint" not in text:
            continue
        match = _PRAGMA_RE.search(text)
        if match is None:
            problems.append(
                Finding(
                    PRAGMA_RULE,
                    rel,
                    line,
                    "malformed repro-lint pragma; expected "
                    "'# repro-lint: disable=<rule> - <justification>'",
                )
            )
            continue
        rules = tuple(r.strip() for r in match.group("rules").split(",") if r.strip())
        reason = match.group("reason")
        unknown = [r for r in rules if r not in known_rules]
        for rule in unknown:
            problems.append(
                Finding(
                    PRAGMA_RULE,
                    rel,
                    line,
                    f"pragma disables unknown rule {rule!r} "
                    f"(known: {', '.join(sorted(known_rules))})",
                )
            )
        if not reason or not reason.strip():
            problems.append(
                Finding(
                    PRAGMA_RULE,
                    rel,
                    line,
                    "pragma suppression requires a justification: "
                    "'# repro-lint: disable=<rule> - <why this is safe>'",
                )
            )
            continue
        if not unknown:
            pragmas[line] = Pragma(line=line, rules=rules, reason=reason.strip())
    return pragmas, problems


@dataclass
class LintReport:
    """The outcome of one lint run: findings, plus coverage accounting."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    suppressed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """Whether the run produced no findings and no parse errors."""
        return not self.findings and not self.errors

    def to_dict(self) -> dict:
        """The stable ``--json`` schema (pinned by ``tests/test_lint.py``)."""
        return {
            "version": 1,
            "files_scanned": self.files_scanned,
            "suppressed": self.suppressed,
            "errors": list(self.errors),
            "findings": [finding.to_dict() for finding in self.findings],
        }


class _Walker:
    """One traversal of one tree, dispatching to every interested checker."""

    _SCOPE_TYPES = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    def __init__(self, checkers: Sequence[Checker], ctx: FileContext) -> None:
        self.ctx = ctx
        self.findings: list[Finding] = []
        # One dispatch list per concrete node type actually seen, resolved
        # lazily — the common case is a handful of subscribed types.
        self._checkers = checkers
        self._dispatch: dict[type, list[Checker]] = {}

    def _handlers(self, node_type: type) -> list[Checker]:
        handlers = self._dispatch.get(node_type)
        if handlers is None:
            handlers = [
                checker
                for checker in self._checkers
                if any(issubclass(node_type, t) for t in checker.node_types)
            ]
            self._dispatch[node_type] = handlers
        return handlers

    def walk(self, node: ast.AST) -> None:
        """Visit ``node`` (dispatching) and recurse with scope tracking."""
        for checker in self._handlers(type(node)):
            self.findings.extend(checker.visit(node, self.ctx))
        scoped = isinstance(node, self._SCOPE_TYPES)
        if scoped:
            self.ctx.stack.append(node)
        for child in ast.iter_child_nodes(node):
            self.walk(child)
        if scoped:
            self.ctx.stack.pop()


def _collect_files(paths: Sequence[str | Path]) -> list[Path]:
    files: list[Path] = []
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    return files


def _relative(path: Path, base: Path | None) -> str:
    resolved = path.resolve()
    if base is not None:
        try:
            return resolved.relative_to(base.resolve()).as_posix()
        except ValueError:
            pass
    return path.as_posix()


def lint_paths(
    paths: Sequence[str | Path],
    checkers: Sequence[Checker],
    base: Path | None = None,
) -> LintReport:
    """Run ``checkers`` over every ``.py`` file under ``paths``, single-pass.

    ``base`` (default: the current working directory) anchors the
    repo-relative display paths findings carry.  Findings suppressed by a
    valid same-line pragma are counted, not reported; pragma-hygiene
    problems (unknown rule, missing justification) are findings themselves.
    Unparseable files are reported in ``errors`` rather than raising — a
    syntax error should fail the lint run, not crash it.
    """
    base = base if base is not None else Path.cwd()
    known_rules = {checker.rule for checker in checkers} | {PRAGMA_RULE}
    report = LintReport()
    all_pragmas: dict[str, dict[int, Pragma]] = {}
    for path in _collect_files(paths):
        rel = _relative(path, base)
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (OSError, SyntaxError, ValueError) as exc:
            report.errors.append(f"{rel}: {exc}")
            continue
        report.files_scanned += 1
        comments = _scan_comments(source)
        pragmas, pragma_findings = parse_pragmas(comments, known_rules, rel)
        all_pragmas[rel] = pragmas
        ctx = FileContext(
            path=path,
            rel=rel,
            tree=tree,
            source=source,
            comments=comments,
            pragmas=pragmas,
        )
        active = [checker for checker in checkers if checker.interested(rel)]
        raw: list[Finding] = list(pragma_findings)
        for checker in active:
            raw.extend(checker.start_file(ctx))
        walker = _Walker(active, ctx)
        walker.walk(tree)
        raw.extend(walker.findings)
        for checker in active:
            raw.extend(checker.finish_file(ctx))
        for finding in raw:
            pragma = pragmas.get(finding.line)
            if pragma is not None and finding.rule in pragma.rules:
                report.suppressed += 1
            else:
                report.findings.append(finding)
    for checker in checkers:
        # Project-wide findings anchor in whichever file carries the
        # declaration or call site; the retained per-file pragma maps make
        # same-line suppression work for them exactly like file-local ones.
        for finding in checker.finish():
            pragma = all_pragmas.get(finding.path, {}).get(finding.line)
            if pragma is not None and finding.rule in pragma.rules:
                report.suppressed += 1
            else:
                report.findings.append(finding)
    report.findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return report
