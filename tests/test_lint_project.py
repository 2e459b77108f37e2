"""Integration tests for the whole-program lint driver.

Covers the fixture corpus (golden findings), the JSON/SARIF renderers,
the CLI flags, and the self-check that the simulator tree lints clean
under every rule in the catalogue.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.flow.output import (
    SARIF_VERSION,
    findings_to_json,
    findings_to_sarif,
)
from repro.analysis.lint import (
    LintRule,
    ProjectRule,
    filter_rules,
    lint_file,
    lint_paths,
)
from repro.analysis.rules import all_rules

REPO_ROOT = Path(__file__).resolve().parents[1]
CORPUS = REPO_ROOT / "tests" / "fixtures" / "lint"
GOLDEN = CORPUS / "golden_findings.json"


def run_cli(*args, cwd=REPO_ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        cwd=str(cwd),
        env=env,
        capture_output=True,
        text=True,
    )


def normalize_e999(document):
    """Blank out the interpreter-version-dependent parts of E999.

    ``SyntaxError.msg`` and ``offset`` differ across CPython versions;
    everything else in the corpus output is byte-stable.
    """
    for finding in document["findings"]:
        if finding["code"] == "E999":
            finding["message"] = "syntax error: <normalized>"
            finding["column"] = 0
    return document


# ----------------------------------------------------------------------
# Fixture corpus and golden findings
# ----------------------------------------------------------------------


class TestCorpusGolden:
    def test_corpus_reproduces_golden_findings(self):
        proc = run_cli(
            "lint", "tests/fixtures/lint", "--format", "json"
        )
        assert proc.returncode == 1, proc.stderr
        got = normalize_e999(json.loads(proc.stdout))
        want = normalize_e999(json.loads(GOLDEN.read_text(encoding="utf-8")))
        # Byte-identical modulo the normalized E999 message/column.
        dump = lambda d: json.dumps(d, indent=2, sort_keys=True)  # noqa: E731
        assert dump(got) == dump(want)

    def test_corpus_covers_every_rule(self):
        want = {"E999"} | {r.code for r in all_rules()}
        got = {
            f["code"]
            for f in json.loads(GOLDEN.read_text(encoding="utf-8"))["findings"]
        }
        assert got == want

    def test_corpus_excluded_from_normal_test_tree_lint(self):
        # `lint tests` must skip the intentionally-broken corpus (the
        # `fixtures` directory is excluded relative to the lint root)...
        findings = lint_paths([str(REPO_ROOT / "tests")])
        corpus_hits = [f for f in findings if "fixtures" in f.path]
        assert corpus_hits == []
        # ...while naming the corpus directly lints it.
        direct = lint_paths([str(CORPUS)])
        assert direct


class TestOneForm:
    """Every rule has one form, and the one-file view is the
    whole-program pass over a one-file index."""

    @pytest.mark.parametrize(
        "fixture", sorted(CORPUS.glob("*.py")), ids=lambda p: p.name
    )
    def test_lint_file_is_lint_paths_over_one_file(self, fixture):
        assert lint_file(fixture) == lint_paths([str(fixture)])

    def test_each_rule_is_a_file_rule_or_a_project_rule(self):
        for rule in all_rules():
            is_project = isinstance(rule, ProjectRule)
            assert is_project == (rule.code >= "R006"), rule.code
            has_check = type(rule).check is not LintRule.check
            has_check_project = (
                is_project
                and type(rule).check_project is not ProjectRule.check_project
            )
            assert has_check != has_check_project, rule.code


class TestLazyLintImport:
    LINT_MODULES = (
        "repro.analysis.lint", "repro.analysis.rules", "repro.analysis.flow"
    )

    def _loaded_after(self, statement):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        code = (
            "import sys\n" + statement + "\n"
            "print(sorted(m for m in sys.modules"
            " if m.startswith(%r)))" % (self.LINT_MODULES,)
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=str(REPO_ROOT), env=env,
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip().splitlines()[-1]

    def test_import_repro_leaves_the_lint_pass_unloaded(self):
        assert self._loaded_after("import repro, repro.analysis") == "[]"

    def test_cli_lint_loads_it(self):
        loaded = self._loaded_after(
            "from repro.cli import main\n"
            "main(['lint', 'tests/fixtures/lint/r001_direct_random.py'])"
        )
        for module in self.LINT_MODULES:
            assert repr(module) in loaded


class TestSourceTreeClean:
    def test_lint_src_is_clean(self):
        findings = lint_paths([str(REPO_ROOT / "src")])
        assert findings == [], "\n".join(f.format() for f in findings)


# ----------------------------------------------------------------------
# Output formats
# ----------------------------------------------------------------------


SARIF_MINI_SCHEMA = {
    # Hand-reduced from the SARIF 2.1.0 schema: the required shape for
    # a valid static-analysis log that GitHub code scanning ingests.
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "version": {"const": "2.1.0"},
        "$schema": {"type": "string"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool", "results"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                        },
                                    },
                                },
                            },
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["message", "ruleId"],
                            "properties": {
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                },
                                "ruleId": {"type": "string"},
                                "ruleIndex": {
                                    "type": "integer",
                                    "minimum": 0,
                                },
                                "level": {
                                    "enum": [
                                        "none", "note", "warning", "error",
                                    ],
                                },
                                "locations": {"type": "array"},
                            },
                        },
                    },
                },
            },
        },
    },
}


class TestOutputFormats:
    def _corpus_findings(self):
        return lint_paths([str(CORPUS)])

    def test_json_document_is_deterministic(self):
        findings = self._corpus_findings()
        assert findings_to_json(findings) == findings_to_json(findings)
        doc = json.loads(findings_to_json(findings))
        assert doc["version"] == 1
        assert doc["count"] == len(findings) == len(doc["findings"])

    def test_e999_location_in_json(self):
        doc = json.loads(findings_to_json(self._corpus_findings()))
        e999 = [f for f in doc["findings"] if f["code"] == "E999"]
        assert len(e999) == 1
        assert e999[0]["path"].endswith("e999_syntax_error.py")
        assert e999[0]["line"] == 3
        assert e999[0]["column"] > 0

    def test_sarif_validates_against_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        meta = {r.code: (r.name, r.description) for r in all_rules()}
        doc = json.loads(findings_to_sarif(self._corpus_findings(), meta))
        jsonschema.validate(doc, SARIF_MINI_SCHEMA)
        assert doc["version"] == SARIF_VERSION

    def test_sarif_rule_indices_resolve(self):
        meta = {r.code: (r.name, r.description) for r in all_rules()}
        doc = json.loads(findings_to_sarif(self._corpus_findings(), meta))
        run = doc["runs"][0]
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rule_ids == sorted(rule_ids)
        assert "E999" in rule_ids  # resolvable even though not a rule
        for result in run["results"]:
            assert rule_ids[result["ruleIndex"]] == result["ruleId"]
            region = result["locations"][0]["physicalLocation"]["region"]
            assert region["startLine"] >= 1
            assert region["startColumn"] >= 1

    def test_sarif_uris_are_relative_forward_slash(self):
        meta = {r.code: (r.name, r.description) for r in all_rules()}
        proc = run_cli(
            "lint", "tests/fixtures/lint", "--format", "sarif"
        )
        doc = json.loads(proc.stdout)
        for result in doc["runs"][0]["results"]:
            loc = result["locations"][0]["physicalLocation"]
            uri = loc["artifactLocation"]["uri"]
            assert not uri.startswith("/") and "\\" not in uri
            assert loc["artifactLocation"]["uriBaseId"] == "SRCROOT"


# ----------------------------------------------------------------------
# Rule catalogue and CLI
# ----------------------------------------------------------------------


class TestRuleCatalogue:
    def test_all_rules_deterministic_order(self):
        codes = [r.code for r in all_rules()]
        assert codes == sorted(codes)
        assert codes == [r.code for r in all_rules()]
        assert codes == [
            "R001", "R002", "R006", "R007", "R008", "R009",
            "R010", "R012", "R013", "R014",
        ]

    def test_filter_rules_select_and_ignore(self):
        rules = all_rules()
        assert [r.code for r in filter_rules(rules, select=["R001"])] == ["R001"]
        assert "R009" not in {
            r.code for r in filter_rules(rules, ignore=["R009"])
        }
        # E999 is filterable output, not a rule.
        assert filter_rules(rules, select=["E999"]) == []
        with pytest.raises(ValueError):
            filter_rules(rules, select=["R999"])


class TestLintCli:
    def test_select_limits_codes(self):
        proc = run_cli(
            "lint", "tests/fixtures/lint",
            "--select", "R009", "--format", "json",
        )
        doc = json.loads(proc.stdout)
        assert doc["count"] > 0
        assert {f["code"] for f in doc["findings"]} == {"R009"}

    def test_ignore_drops_codes(self):
        proc = run_cli(
            "lint", "tests/fixtures/lint",
            "--ignore", "R009,R010", "--format", "json",
        )
        codes = {
            f["code"] for f in json.loads(proc.stdout)["findings"]
        }
        assert codes and not codes & {"R009", "R010"}

    def test_unknown_code_is_usage_error(self):
        proc = run_cli("lint", "src", "--select", "R999")
        assert proc.returncode == 2
        assert "unknown rule code" in proc.stdout

    def test_output_file_and_exit_code(self, tmp_path):
        out = tmp_path / "findings.json"
        proc = run_cli(
            "lint", "tests/fixtures/lint",
            "--format", "json", "--output", str(out),
        )
        assert proc.returncode == 1
        assert json.loads(out.read_text(encoding="utf-8"))["count"] > 0

    def test_lint_writes_nothing_to_the_working_directory(self, tmp_path):
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "a.py").write_text("import random\n", encoding="utf-8")
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        proc = run_cli("lint", str(tree), cwd=cwd)
        assert proc.returncode == 1, proc.stderr
        assert list(cwd.iterdir()) == []

    def test_cache_flag_is_a_usage_error(self):
        proc = run_cli("lint", "--cache", "x")
        assert proc.returncode == 2
        assert "unrecognized arguments: --cache" in proc.stderr
