"""Unit tests for the stale-pragma rule R012
(:mod:`repro.analysis.rules.pragmas`): a ``lint: disable`` pragma is
judged against what the other rules fired on its line before
suppression, and only rules that ran can make it earn its keep.
"""

import ast
from pathlib import Path

import pytest

from repro.analysis.lint import FileContext, _parse_pragmas, run_lint
from repro.analysis.rules.pragmas import StalePragmaRule


# ----------------------------------------------------------------------
# R012 stale pragmas
# ----------------------------------------------------------------------


class TestStalePragma:
    def _findings(self, src, hits):
        ctx = FileContext(
            path=Path("mod.py"), display_path="mod.py", source=src,
            pragmas=_parse_pragmas(src), fired=set(hits),
        )
        return list(StalePragmaRule().check(ast.parse(src), ctx))

    def test_stale_listed_pragma(self):
        findings = self._findings("x = 1  # lint: disable=R001\n", hits=[])
        assert len(findings) == 1
        assert "stale pragma" in findings[0].message

    def test_used_pragma_is_clean(self):
        src = "import random  # lint: disable=R001\n"
        assert self._findings(src, hits=[(1, "R001")]) == []

    def test_partially_used_pragma_is_clean(self):
        # One of the listed codes fires: the pragma is earning its keep.
        src = "import random  # lint: disable=R001,R002\n"
        assert self._findings(src, hits=[(1, "R001")]) == []

    def test_stale_blanket_pragma(self):
        findings = self._findings("x = 1  # lint: disable\n", hits=[])
        assert len(findings) == 1
        assert "blanket" in findings[0].message

    def test_pragma_naming_r012_is_exempt(self):
        src = "x = 1  # lint: disable=R012\n"
        assert self._findings(src, hits=[]) == []

    @pytest.mark.parametrize(
        "line,options,stale",
        [
            ("import random  # lint: disable=R001", {"ignore": ["R001"]}, False),
            ("import random  # lint: disable=R001", {"select": ["R012"]}, False),
            ("x = 1  # lint: disable", {"ignore": ["R002"]}, False),
            ("x = 1  # lint: disable=R003", {}, True),
            ("x = 1  # lint: disable=R010", {}, True),
        ],
        ids=["rule-ignored", "rule-not-selected", "blanket-partial-run",
             "retired-code", "retired-r010"],
    )
    def test_only_rules_that_ran_are_judged(
        self, tmp_path, capsys, line, options, stale
    ):
        # A rule filtered out of the run might have fired, so its
        # pragma is not stale; a code outside the catalogue never fires.
        path = tmp_path / "mod.py"
        path.write_text(line + "\n", encoding="utf-8")
        assert run_lint([str(path)], **options) == int(stale)
        assert ("R012 stale pragma" in capsys.readouterr().out) == stale
