"""Integration tests for the whole-program lint driver.

Covers the fixture corpus (golden findings), the content-hash cache,
the JSON/SARIF renderers, the CLI flags, and the self-check that the
simulator tree lints clean under R001-R014.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.analysis.flow.cache import SummaryCache, content_hash
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
    rules_signature,
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
            "lint", "tests/fixtures/lint", "--no-cache", "--format", "json"
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
            assert is_project == (rule.code >= "R005"), rule.code
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
            "main(['lint', 'tests/fixtures/lint/r001_direct_random.py',"
            " '--no-cache'])"
        )
        for module in self.LINT_MODULES:
            assert repr(module) in loaded


class TestSourceTreeClean:
    def test_lint_src_is_clean(self):
        findings = lint_paths([str(REPO_ROOT / "src")])
        assert findings == [], "\n".join(f.format() for f in findings)


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------


class TestSummaryCache:
    def _lint(self, cache_path):
        rules = all_rules()
        cache = SummaryCache(
            str(cache_path), signature=rules_signature(rules)
        )
        findings = lint_paths([str(REPO_ROOT / "src" / "repro")], rules, cache)
        return findings, cache

    def test_warm_cache_identical_findings_and_speedup(self, tmp_path):
        cache_path = tmp_path / "cache.json"
        t0 = time.perf_counter()  # lint: disable=R002
        cold, cold_cache = self._lint(cache_path)
        t1 = time.perf_counter()  # lint: disable=R002
        warm, warm_cache = self._lint(cache_path)
        t2 = time.perf_counter()  # lint: disable=R002
        assert warm == cold
        assert cold_cache.hits == 0
        assert warm_cache.misses == 0
        assert warm_cache.hits == cold_cache.misses > 0
        cold_s, warm_s = t1 - t0, t2 - t1
        assert cold_s >= 5 * warm_s, (
            f"warm re-lint not >=5x faster: cold={cold_s:.3f}s "
            f"warm={warm_s:.3f}s"
        )

    def test_edited_file_invalidates_only_itself(self, tmp_path):
        a = tmp_path / "a.py"
        b = tmp_path / "b.py"
        a.write_text("import random\n", encoding="utf-8")
        b.write_text("x = 1\n", encoding="utf-8")
        cache_path = tmp_path / "cache.json"
        rules = all_rules()
        sig = rules_signature(rules)

        cache = SummaryCache(str(cache_path), signature=sig)
        first = lint_paths([str(tmp_path)], rules, cache)
        assert [f.code for f in first] == ["R001"]

        a.write_text("import random\nimport random\n", encoding="utf-8")
        cache = SummaryCache(str(cache_path), signature=sig)
        second = lint_paths([str(tmp_path)], rules, cache)
        assert [f.code for f in second] == ["R001", "R001"]
        assert cache.hits == 1 and cache.misses == 1

    def test_signature_change_invalidates_store(self, tmp_path):
        a = tmp_path / "a.py"
        a.write_text("import random\n", encoding="utf-8")
        cache_path = tmp_path / "cache.json"
        rules = all_rules()
        cache = SummaryCache(str(cache_path), signature=rules_signature(rules))
        lint_paths([str(tmp_path)], rules, cache)

        stale = SummaryCache(str(cache_path), signature="other-signature")
        lint_paths([str(tmp_path)], rules, stale)
        assert stale.hits == 0

    def test_syntax_error_files_are_cached(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n", encoding="utf-8")
        cache_path = tmp_path / "cache.json"
        rules = all_rules()
        sig = rules_signature(rules)
        cold = lint_paths(
            [str(tmp_path)], rules, SummaryCache(str(cache_path), signature=sig)
        )
        warm_cache = SummaryCache(str(cache_path), signature=sig)
        warm = lint_paths([str(tmp_path)], rules, warm_cache)
        assert warm == cold
        assert [f.code for f in warm] == ["E999"]
        assert warm[0].line == 1 and warm[0].column > 0
        assert warm_cache.hits == 1

    def test_content_hash_is_sha256(self):
        assert content_hash(b"") == (
            "e3b0c44298fc1c149afbf4c8996fb924"
            "27ae41e4649b934ca495991b7852b855"
        )


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
            "lint", "tests/fixtures/lint", "--no-cache", "--format", "sarif"
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
            "R001", "R002", "R003", "R004", "R005", "R006",
            "R007", "R008", "R009", "R010", "R011", "R012",
            "R013", "R014",
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
            "lint", "tests/fixtures/lint", "--no-cache",
            "--select", "R009", "--format", "json",
        )
        doc = json.loads(proc.stdout)
        assert doc["count"] > 0
        assert {f["code"] for f in doc["findings"]} == {"R009"}

    def test_ignore_drops_codes(self):
        proc = run_cli(
            "lint", "tests/fixtures/lint", "--no-cache",
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
            "lint", "tests/fixtures/lint", "--no-cache",
            "--format", "json", "--output", str(out),
        )
        assert proc.returncode == 1
        assert json.loads(out.read_text(encoding="utf-8"))["count"] > 0
