"""R012: ``lint: disable`` pragmas that suppress nothing.

A stale suppression hides a future regression at its line.  The rule
judges each pragma against what the other rules fired on the same
file before suppression, so it runs after them (the catalogue is in
code order and R012 is its last code).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Set

from ..lint import FileContext, Finding, LintRule


class StalePragmaRule(LintRule):
    """R012: a ``lint: disable`` pragma that suppresses nothing."""

    code = "R012"
    name = "stale-pragma"
    description = (
        "a `# lint: disable` pragma must suppress at least one finding; "
        "stale pragmas hide future regressions on their line"
    )
    #: A finding about a pragma is never hidden by that pragma.
    suppressible = False

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        by_line: Dict[int, Set[str]] = {}
        for line, code in ctx.fired:
            by_line.setdefault(line, set()).add(code)
        for line in sorted(ctx.pragmas):
            codes = ctx.pragmas[line]
            if "R012" in codes or codes & ctx.unrun_codes:
                # A pragma explicitly acknowledging this rule is the
                # sanctioned opt-out; reporting it would be circular.
                # A rule filtered out of this run might have fired.
                continue
            fired = by_line.get(line, set())
            if "*" in codes:
                if fired or ctx.unrun_codes:
                    continue
                yield Finding(ctx.display_path, line, self.code,
                              "blanket `# lint: disable` pragma suppresses "
                              "nothing: no rule fires on this line")
                continue
            if not codes & fired:
                listed = ", ".join(sorted(codes))
                yield Finding(ctx.display_path, line, self.code,
                              f"stale pragma: `# lint: disable={listed}` "
                              "suppresses nothing on this line")


__all__ = ["StalePragmaRule"]
