"""Tests for the repro-lint framework and its six checkers.

Three layers, mirroring the acceptance criteria:

* **framework semantics** — pragma suppression (unknown rule names error,
  justification text is mandatory), the stable ``--json`` schema, and the
  0/1 exit-code contract;
* **per-checker fixtures** — one known-bad / known-good snippet pair per
  rule, written into scope-matching paths under ``tmp_path`` (the scoped
  rules key on path fragments like ``repro/core/``), asserting the correct
  rule id *and* ``file:line`` anchor;
* **the real tree** — ``python -m repro lint src`` must be clean, which is
  the invariant CI enforces.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from repro.lint import default_checkers, lint_paths, run_lint
from repro.lint.framework import PRAGMA_RULE

REPO_ROOT = Path(__file__).resolve().parent.parent

MODULE_DOC = '"""Fixture module."""\n'


def write_fixture(tmp_path: Path, rel: str, body: str) -> Path:
    """Write ``body`` (docstring prepended) at ``tmp_path/rel``; return the dir."""
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(MODULE_DOC + body)
    return path


def lint_fixture(tmp_path: Path):
    """Lint the fixture tree with the full default suite."""
    return lint_paths([tmp_path], default_checkers(), base=tmp_path)


def single_finding(report, rule: str):
    """Assert the report holds exactly one finding, of ``rule``; return it."""
    assert [f.rule for f in report.findings] == [rule], report.findings
    return report.findings[0]


# --------------------------------------------------------------------- #
# Framework semantics: pragmas, JSON schema, exit codes.


class TestPragmas:
    def test_valid_pragma_suppresses_and_counts(self, tmp_path):
        write_fixture(
            tmp_path,
            "src/repro/core/mod.py",
            "import random\n\n\n"
            "def draw():\n"
            '    """Draw."""\n'
            "    return random.random()  "
            "# repro-lint: disable=determinism - fixture: sanctioned here\n",
        )
        report = lint_fixture(tmp_path)
        assert report.findings == []
        assert report.suppressed == 1
        assert report.clean

    def test_unknown_rule_name_is_an_error(self, tmp_path):
        write_fixture(
            tmp_path,
            "src/repro/core/mod.py",
            "X = 1  # repro-lint: disable=no-such-rule - bogus\n",
        )
        finding = single_finding(lint_fixture(tmp_path), PRAGMA_RULE)
        assert "unknown rule 'no-such-rule'" in finding.message
        assert finding.line == 2

    def test_missing_justification_is_an_error_and_does_not_suppress(self, tmp_path):
        write_fixture(
            tmp_path,
            "src/repro/core/mod.py",
            "import random\n\n\n"
            "def draw():\n"
            '    """Draw."""\n'
            "    return random.random()  # repro-lint: disable=determinism\n",
        )
        report = lint_fixture(tmp_path)
        rules = sorted(f.rule for f in report.findings)
        assert rules == ["determinism", PRAGMA_RULE]
        assert report.suppressed == 0

    def test_pragma_only_silences_named_rules(self, tmp_path):
        write_fixture(
            tmp_path,
            "src/repro/core/mod.py",
            "import random\n\n\n"
            "def draw():\n"
            '    """Draw."""\n'
            "    return random.random()  "
            "# repro-lint: disable=iteration-order - wrong rule named\n",
        )
        finding = single_finding(lint_fixture(tmp_path), "determinism")
        assert finding.line == 7

    def test_pragma_inside_string_literal_is_inert(self, tmp_path):
        write_fixture(
            tmp_path,
            "src/repro/core/mod.py",
            'TEXT = "# repro-lint: disable=no-such-rule"\n',
        )
        assert lint_fixture(tmp_path).clean


class TestCliContract:
    def test_json_schema_and_exit_codes(self, tmp_path):
        write_fixture(
            tmp_path,
            "src/repro/core/mod.py",
            "import random\n\n\n"
            "def draw():\n"
            '    """Draw."""\n'
            "    return random.random()\n",
        )
        stream = io.StringIO()
        code = run_lint([str(tmp_path)], as_json=True, base=tmp_path, stream=stream)
        assert code == 1
        document = json.loads(stream.getvalue())
        assert set(document) == {
            "version",
            "files_scanned",
            "suppressed",
            "errors",
            "findings",
        }
        assert document["version"] == 1
        assert document["files_scanned"] == 1
        (finding,) = document["findings"]
        assert set(finding) == {"rule", "path", "line", "message"}
        assert finding["rule"] == "determinism"
        assert finding["path"] == "src/repro/core/mod.py"
        assert finding["line"] == 7

    def test_clean_tree_exits_zero(self, tmp_path):
        write_fixture(tmp_path, "src/repro/core/mod.py", "X = 1\n")
        stream = io.StringIO()
        assert run_lint([str(tmp_path)], base=tmp_path, stream=stream) == 0
        assert "0 finding(s)" in stream.getvalue()

    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        write_fixture(tmp_path, "src/repro/core/mod.py", "def broken(:\n")
        report = lint_fixture(tmp_path)
        assert report.findings == []
        assert len(report.errors) == 1
        assert not report.clean

    def test_repro_lint_subcommand_is_wired(self, tmp_path, capsys, monkeypatch):
        from repro.experiments.cli import main as cli_main

        write_fixture(tmp_path, "src/repro/core/mod.py", "X = 1\n")
        monkeypatch.chdir(tmp_path)
        assert cli_main(["lint", "src", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["files_scanned"] == 1


# --------------------------------------------------------------------- #
# One bad/good fixture pair per rule family (acceptance criterion: each
# seeded violation reports the correct rule id and file:line).


class TestDeterminism:
    def test_global_random_call_in_core_is_flagged(self, tmp_path):
        write_fixture(
            tmp_path,
            "src/repro/core/mod.py",
            "import random\n\n\n"
            "def draw():\n"
            '    """Draw."""\n'
            "    return random.random()\n",
        )
        finding = single_finding(lint_fixture(tmp_path), "determinism")
        assert finding.location == "src/repro/core/mod.py:7"

    def test_seedless_random_and_clock_and_uuid_are_flagged(self, tmp_path):
        write_fixture(
            tmp_path,
            "src/repro/workloads/mod.py",
            "import random\nimport time\nimport uuid\n\n\n"
            "def bad():\n"
            '    """Bad."""\n'
            "    rng = random.Random()\n"
            "    stamp = time.time()\n"
            "    ident = uuid.uuid4()\n"
            "    return rng, stamp, ident\n",
        )
        report = lint_fixture(tmp_path)
        assert [(f.rule, f.line) for f in report.findings] == [
            ("determinism", 9),
            ("determinism", 10),
            ("determinism", 11),
        ]

    def test_banned_from_import_is_flagged(self, tmp_path):
        write_fixture(
            tmp_path, "src/repro/core/mod.py", "from time import monotonic\n"
        )
        finding = single_finding(lint_fixture(tmp_path), "determinism")
        assert "from time import monotonic" in finding.message

    def test_seeded_random_is_sanctioned(self, tmp_path):
        write_fixture(
            tmp_path,
            "src/repro/core/mod.py",
            "import random\n\n\n"
            "def make(seed):\n"
            '    """Make."""\n'
            "    return random.Random(seed)\n",
        )
        assert lint_fixture(tmp_path).clean

    def test_seed_parameter_defaulting_to_none_is_flagged(self, tmp_path):
        write_fixture(
            tmp_path,
            "src/repro/core/mod.py",
            "import random\n\n\n"
            "def make(n, seed=None):\n"
            '    """Make."""\n'
            "    return random.Random(seed)\n\n\n"
            "def resolve_rng(rng, seed=None):\n"
            '    """The one sanctioned entropy fallback."""\n'
            "    return rng or random.Random(seed)\n",
        )
        finding = single_finding(lint_fixture(tmp_path), "determinism")
        assert finding.location == "src/repro/core/mod.py:7"
        assert "defaults to None" in finding.message

    def test_outside_engine_scope_is_ignored(self, tmp_path):
        write_fixture(
            tmp_path,
            "src/repro/experiments/mod.py",
            "import time\n\n\n"
            "def stamp():\n"
            '    """Stamp."""\n'
            "    return time.time()\n",
        )
        assert lint_fixture(tmp_path).clean


class TestIterationOrder:
    BAD = (
        "def pick(rng, nodes):\n"
        '    """Pick."""\n'
        "    reachable = set(nodes)\n"
        "    for node in reachable:\n"
        "        if rng.random() < 0.5:\n"
        "            return node\n"
        "    return None\n"
    )

    def test_unsorted_set_iteration_feeding_a_draw_is_flagged(self, tmp_path):
        write_fixture(tmp_path, "src/repro/core/mod.py", self.BAD)
        finding = single_finding(lint_fixture(tmp_path), "iteration-order")
        assert finding.location == "src/repro/core/mod.py:5"
        assert "'reachable'" in finding.message

    def test_sorted_interposition_passes(self, tmp_path):
        write_fixture(
            tmp_path,
            "src/repro/core/mod.py",
            self.BAD.replace("in reachable", "in sorted(reachable)"),
        )
        assert lint_fixture(tmp_path).clean

    def test_set_iteration_without_a_sink_passes(self, tmp_path):
        write_fixture(
            tmp_path,
            "src/repro/core/mod.py",
            "def union_all(groups):\n"
            '    """Union."""\n'
            "    merged = set()\n"
            "    for group in groups:\n"
            "        merged |= set(group)\n"
            "    total = 0\n"
            "    for element in merged:\n"
            "        total += element\n"
            "    return total\n",
        )
        assert lint_fixture(tmp_path).clean

    def test_comprehension_over_set_feeding_serialisation_is_flagged(self, tmp_path):
        write_fixture(
            tmp_path,
            "src/repro/core/mod.py",
            "import json\n\n\n"
            "def dump(handle, states):\n"
            '    """Dump."""\n'
            "    keys = frozenset(states)\n"
            "    payload = [k for k in keys]\n"
            "    json.dump(payload, handle)\n",
        )
        finding = single_finding(lint_fixture(tmp_path), "iteration-order")
        assert finding.line == 8


class TestPicklability:
    def test_lambda_attribute_on_wire_class_is_flagged(self, tmp_path):
        write_fixture(
            tmp_path,
            "src/repro/workloads/mod.py",
            "class InstanceSpec:\n"
            '    """Spec."""\n\n'
            "    def __init__(self):\n"
            "        self.predicate = lambda value: value > 0\n",
        )
        finding = single_finding(lint_fixture(tmp_path), "picklability")
        assert finding.location == "src/repro/workloads/mod.py:6"
        assert "lambda" in finding.message

    def test_local_closure_and_object_setattr_are_flagged(self, tmp_path):
        write_fixture(
            tmp_path,
            "src/repro/workloads/mod.py",
            "class FaultPlan:\n"
            '    """Plan."""\n\n'
            "    def __init__(self, handle_path):\n"
            "        def helper():\n"
            "            return 1\n\n"
            "        self.helper = helper\n"
            '        object.__setattr__(self, "handle", open(handle_path))\n',
        )
        report = lint_fixture(tmp_path)
        assert [(f.rule, f.line) for f in report.findings] == [
            ("picklability", 9),
            ("picklability", 10),
        ]

    def test_unpaired_getstate_is_flagged(self, tmp_path):
        write_fixture(
            tmp_path,
            "src/repro/workloads/mod.py",
            "class RetryPolicy:\n"
            '    """Policy."""\n\n'
            "    def __getstate__(self):\n"
            "        return {}\n",
        )
        finding = single_finding(lint_fixture(tmp_path), "picklability")
        assert "__setstate__" in finding.message

    def test_plain_attributes_and_other_classes_pass(self, tmp_path):
        write_fixture(
            tmp_path,
            "src/repro/workloads/mod.py",
            "class EngineOptions:\n"
            '    """Options."""\n\n'
            "    def __init__(self, backend):\n"
            "        self.backend = backend\n\n\n"
            "class NotWireFormat:\n"
            '    """Free to hold anything."""\n\n'
            "    def __init__(self):\n"
            "        self.fn = lambda: 1\n",
        )
        assert lint_fixture(tmp_path).clean


class TestExceptionHygiene:
    def test_unjustified_broad_except_is_flagged(self, tmp_path):
        write_fixture(
            tmp_path,
            "src/repro/core/mod.py",
            "def swallow(thunk):\n"
            '    """Swallow."""\n'
            "    try:\n"
            "        return thunk()\n"
            "    except Exception:\n"
            "        return None\n",
        )
        finding = single_finding(lint_fixture(tmp_path), "exception-hygiene")
        assert finding.location == "src/repro/core/mod.py:6"

    def test_bare_noqa_without_reason_is_flagged(self, tmp_path):
        write_fixture(
            tmp_path,
            "src/repro/core/mod.py",
            "def swallow(thunk):\n"
            '    """Swallow."""\n'
            "    try:\n"
            "        return thunk()\n"
            "    except Exception:  # noqa: BLE001\n"
            "        return None\n",
        )
        finding = single_finding(lint_fixture(tmp_path), "exception-hygiene")
        assert "no justification" in finding.message

    def test_justified_noqa_and_reraise_pass(self, tmp_path):
        write_fixture(
            tmp_path,
            "src/repro/core/mod.py",
            "def guarded(thunk):\n"
            '    """Guarded."""\n'
            "    try:\n"
            "        return thunk()\n"
            "    except Exception:  # noqa: BLE001 - fixture: failure means None\n"
            "        return None\n\n\n"
            "def passthrough(thunk):\n"
            '    """Passthrough."""\n'
            "    try:\n"
            "        return thunk()\n"
            "    except BaseException:\n"
            "        raise\n",
        )
        assert lint_fixture(tmp_path).clean

    def test_sigalrm_outside_alarm_class_is_flagged(self, tmp_path):
        write_fixture(
            tmp_path,
            "src/repro/core/mod.py",
            "import signal\n\n\n"
            "def arm(seconds):\n"
            '    """Arm."""\n'
            "    signal.alarm(seconds)\n",
        )
        finding = single_finding(lint_fixture(tmp_path), "exception-hygiene")
        assert "outside _Alarm" in finding.message
        assert finding.line == 7

    def test_sigalrm_inside_alarm_class_passes(self, tmp_path):
        write_fixture(
            tmp_path,
            "src/repro/core/mod.py",
            "import signal\n\n\n"
            "class _Alarm:\n"
            "    def arm(self, seconds):\n"
            "        signal.alarm(seconds)\n",
        )
        assert lint_fixture(tmp_path).clean


class TestMetricCatalog:
    CATALOG = (
        "from dataclasses import dataclass\n\n\n"
        "@dataclass(frozen=True)\n"
        "class MetricSpec:\n"
        '    """Spec."""\n\n'
        "    names: tuple\n"
        "    display: str\n"
        "    rows: tuple\n"
        '    kind: str = "counter"\n\n\n'
        "CATALOG = (\n"
        '    MetricSpec(names=("engine.runs",), display="", rows=()),\n'
        '    MetricSpec(names=("memo.hits", "memo.misses"), display="", rows=()),\n'
        ")\n"
    )

    def emitter(self, *names: str) -> str:
        lines = ["def flush(metrics):", '    """Flush."""']
        lines += [f'    metrics.counter("{name}").inc()' for name in names]
        return "\n".join(lines) + "\n"

    def test_matching_catalog_and_emissions_pass(self, tmp_path):
        write_fixture(tmp_path, "src/repro/obs/catalog.py", self.CATALOG)
        write_fixture(
            tmp_path,
            "src/repro/core/mod.py",
            self.emitter("engine.runs", "memo.hits", "memo.misses"),
        )
        assert lint_fixture(tmp_path).clean

    def test_undeclared_emission_is_flagged_at_the_call_site(self, tmp_path):
        write_fixture(tmp_path, "src/repro/obs/catalog.py", self.CATALOG)
        write_fixture(
            tmp_path,
            "src/repro/core/mod.py",
            self.emitter("engine.runs", "memo.hits", "memo.misses", "engine.bogus"),
        )
        finding = single_finding(lint_fixture(tmp_path), "metric-catalog")
        assert "'engine.bogus'" in finding.message
        assert finding.location == "src/repro/core/mod.py:7"

    def test_declared_never_emitted_is_flagged_at_the_declaration(self, tmp_path):
        write_fixture(tmp_path, "src/repro/obs/catalog.py", self.CATALOG)
        write_fixture(
            tmp_path,
            "src/repro/core/mod.py",
            self.emitter("engine.runs", "memo.hits"),
        )
        finding = single_finding(lint_fixture(tmp_path), "metric-catalog")
        assert "'memo.misses'" in finding.message
        assert finding.path == "src/repro/obs/catalog.py"

    def test_kind_mismatch_is_flagged(self, tmp_path):
        write_fixture(tmp_path, "src/repro/obs/catalog.py", self.CATALOG)
        write_fixture(
            tmp_path,
            "src/repro/core/mod.py",
            "def flush(metrics):\n"
            '    """Flush."""\n'
            '    metrics.counter("memo.hits").inc()\n'
            '    metrics.counter("memo.misses").inc()\n'
            '    metrics.gauge("engine.runs").set(1)\n',
        )
        finding = single_finding(lint_fixture(tmp_path), "metric-catalog")
        assert "gauge" in finding.message and "counter" in finding.message

    def test_without_a_catalog_file_the_rule_stays_silent(self, tmp_path):
        write_fixture(
            tmp_path, "src/repro/core/mod.py", self.emitter("anything.at.all")
        )
        assert lint_fixture(tmp_path).clean


class TestDocstrings:
    def test_missing_module_docstring_is_flagged(self, tmp_path):
        path = tmp_path / "src/repro/workloads/mod.py"
        path.parent.mkdir(parents=True)
        path.write_text("X = 1\n")
        finding = single_finding(lint_fixture(tmp_path), "docstrings")
        assert finding.location == "src/repro/workloads/mod.py:1"

    def test_missing_public_method_docstring_on_strict_surface(self, tmp_path):
        write_fixture(
            tmp_path,
            "src/repro/workloads/mod.py",
            "class Thing:\n"
            '    """Thing."""\n\n'
            "    def method(self):\n"
            "        return 1\n",
        )
        finding = single_finding(lint_fixture(tmp_path), "docstrings")
        assert "Thing.method" in finding.message
        assert finding.line == 5

    def test_non_strict_surface_skips_methods(self, tmp_path):
        write_fixture(
            tmp_path,
            "src/repro/core/mod.py",
            "class Thing:\n"
            '    """Thing."""\n\n'
            "    def method(self):\n"
            "        return 1\n",
        )
        assert lint_fixture(tmp_path).clean


# --------------------------------------------------------------------- #
# The real tree: the CI invariant.


def test_src_tree_is_lint_clean():
    report = lint_paths(
        [REPO_ROOT / "src"], default_checkers(), base=REPO_ROOT
    )
    assert report.errors == []
    assert report.findings == [], [f.location for f in report.findings]


def test_every_suppression_in_src_is_justified():
    # parse_pragmas already rejects justification-free pragmas as findings;
    # a clean tree therefore implies every suppression carries a reason.
    # This test keeps the invariant visible even if the tree gains pragmas.
    report = lint_paths([REPO_ROOT / "src"], default_checkers(), base=REPO_ROOT)
    assert not any(f.rule == PRAGMA_RULE for f in report.findings)
