"""Unit tests for the repro.analysis lint pass (file rules R001-R002).

Each rule gets a positive fixture (the violation is found, with the
right code and line), a negative fixture (idiomatic code stays clean),
and a pragma fixture (``# lint: disable=R00x`` suppresses it).
"""

from pathlib import Path

import pytest

from repro.analysis.lint import (
    Finding,
    format_findings,
    lint_file,
    lint_paths,
    run_lint,
)
from repro.analysis.rules import all_rules
from repro.analysis.rules.determinism import (
    DirectRandomRule,
    NondeterminismRule,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _lint(tmp_path, source, rules):
    path = tmp_path / "fixture.py"
    path.write_text(source)
    return lint_file(path, rules)


def _codes(findings):
    return [f.code for f in findings]


# ----------------------------------------------------------------------
# R001: no direct random
# ----------------------------------------------------------------------


class TestDirectRandom:
    RULES = [DirectRandomRule()]

    def test_import_random_flagged(self, tmp_path):
        findings = _lint(tmp_path, "import random\n", self.RULES)
        assert _codes(findings) == ["R001"]
        assert findings[0].line == 1

    def test_from_random_import_flagged(self, tmp_path):
        findings = _lint(
            tmp_path, "from random import randrange, shuffle\n", self.RULES
        )
        assert _codes(findings) == ["R001"]
        assert "randrange" in findings[0].message

    def test_attribute_calls_flagged_individually(self, tmp_path):
        src = "import random\n\nx = random.random()\nrandom.seed(3)\n"
        findings = _lint(tmp_path, src, self.RULES)
        # One for the import, one per drawing call.
        assert _codes(findings) == ["R001", "R001", "R001"]
        assert sorted(f.line for f in findings) == [1, 3, 4]

    def test_aliased_import_tracked(self, tmp_path):
        src = "import random as rnd\n\nx = rnd.randrange(4)\n"
        findings = _lint(tmp_path, src, self.RULES)
        assert _codes(findings) == ["R001", "R001"]

    def test_derive_rng_clean(self, tmp_path):
        src = (
            "from repro.core.rng import Rng, derive_rng\n"
            "\n"
            "rng = derive_rng(1, 'traffic', 3)\n"
            "x = rng.random()\n"
        )
        assert _lint(tmp_path, src, self.RULES) == []

    def test_pragma_suppresses(self, tmp_path):
        src = "import random  # lint: disable=R001\n"
        assert _lint(tmp_path, src, self.RULES) == []

    def test_bare_pragma_suppresses_all(self, tmp_path):
        src = "import random  # lint: disable\n"
        assert _lint(tmp_path, src, self.RULES) == []

    def test_rng_module_itself_exempt(self):
        rng_py = REPO_ROOT / "src" / "repro" / "core" / "rng.py"
        assert lint_file(rng_py, self.RULES) == []


# ----------------------------------------------------------------------
# R002: no nondeterminism
# ----------------------------------------------------------------------


class TestNondeterminism:
    RULES = [NondeterminismRule()]

    def test_wall_clock_flagged(self, tmp_path):
        src = "import time\n\nstart = time.time()\n"
        findings = _lint(tmp_path, src, self.RULES)
        assert _codes(findings) == ["R002"]
        assert findings[0].line == 3

    def test_datetime_now_flagged(self, tmp_path):
        src = "from datetime import datetime\n\nt = datetime.now()\n"
        assert _codes(_lint(tmp_path, src, self.RULES)) == ["R002"]

    def test_builtin_hash_flagged(self, tmp_path):
        findings = _lint(tmp_path, "h = hash('seed')\n", self.RULES)
        assert _codes(findings) == ["R002"]
        assert "salted" in findings[0].message

    def test_urandom_and_uuid4_flagged(self, tmp_path):
        src = "import os\nimport uuid\n\na = os.urandom(8)\nb = uuid.uuid4()\n"
        findings = _lint(tmp_path, src, self.RULES)
        assert _codes(findings) == ["R002", "R002"]

    def test_for_over_set_literal_flagged(self, tmp_path):
        src = "for x in {1, 2, 3}:\n    print(x)\n"
        findings = _lint(tmp_path, src, self.RULES)
        assert _codes(findings) == ["R002"]

    def test_for_over_set_named_variable_flagged(self, tmp_path):
        src = "seen = set()\nseen.add(1)\nfor x in seen:\n    print(x)\n"
        findings = _lint(tmp_path, src, self.RULES)
        assert _codes(findings) == ["R002"]
        assert findings[0].line == 3

    def test_list_over_set_flagged(self, tmp_path):
        src = "xs = list({3, 1, 2})\n"
        assert _codes(_lint(tmp_path, src, self.RULES)) == ["R002"]

    def test_sorted_set_clean(self, tmp_path):
        src = "seen = {3, 1}\nfor x in sorted(seen):\n    print(x)\n"
        assert _lint(tmp_path, src, self.RULES) == []

    def test_list_iteration_clean(self, tmp_path):
        src = "items = [3, 1]\nfor x in items:\n    print(x)\n"
        assert _lint(tmp_path, src, self.RULES) == []

    def test_pragma_suppresses(self, tmp_path):
        src = "seen = {1, 2}\nfor x in seen:  # lint: disable=R002\n    pass\n"
        assert _lint(tmp_path, src, self.RULES) == []


# ----------------------------------------------------------------------
# Runner behaviour
# ----------------------------------------------------------------------


class TestRunner:
    def test_finding_format(self):
        f = Finding(path="src/x.py", line=12, code="R001", message="bad")
        assert f.format() == "src/x.py:12: R001 bad"

    def test_format_findings_one_per_line(self):
        fs = [
            Finding(path="a.py", line=1, code="R001", message="m1"),
            Finding(path="b.py", line=2, code="R002", message="m2"),
        ]
        assert format_findings(fs) == "a.py:1: R001 m1\nb.py:2: R002 m2"

    def test_syntax_error_reported_as_e999(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def f(:\n")
        findings = lint_file(path, all_rules())
        assert _codes(findings) == ["E999"]

    def test_lint_paths_sorted_and_recursive(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "b.py").write_text("import random\n")
        (tmp_path / "a.py").write_text("x = hash('k')\n")
        findings = lint_paths([str(tmp_path)])
        assert [(Path(f.path).name, f.code) for f in findings] == [
            ("a.py", "R002"),
            ("b.py", "R001"),
        ]

    def test_run_lint_exit_codes(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\n")
        assert run_lint([str(dirty)]) == 1
        out = capsys.readouterr().out
        assert f"{dirty}:1: R001" in out
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert run_lint([str(clean)]) == 0

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            lint_paths(["definitely/not/a/path"])

    def test_repo_source_tree_is_clean(self):
        src = REPO_ROOT / "src"
        assert lint_paths([str(src)]) == []
