"""AST lint framework for simulator-specific rules.

Every rule (:class:`LintRule`) implements ``check(tree, ctx)``, a
generator over one parsed module; no rule needs more than the file it
is handed.  The rules run on a file in code order, so the stale-pragma
rule (R012), the last code, sees what the others fired there.

Findings are reported as ``path:line: code message`` — one per line,
sorted by ``(path, line, code)`` — or as deterministic JSON / SARIF
2.1.0 via ``--format`` (see :mod:`repro.analysis.output`).

Pragmas::

    bad_call()          # lint: disable=R001        suppress one code
    bad_call()          # lint: disable=R001,R002   suppress several
    bad_call()          # lint: disable             suppress all codes

A pragma applies to findings reported on its own physical line.
Pragmas are read from real comment tokens (``tokenize``), so
pragma-shaped text inside strings and docstrings is inert.  A pragma
that suppresses nothing is itself a finding (R012).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

#: Directories never linted when *recursed into* (build products,
#: caches, intentionally-broken fixture corpora).  The exclusion is
#: relative to the lint root, so ``lint tests`` skips
#: ``tests/fixtures/`` while ``lint tests/fixtures/lint`` lints it.
EXCLUDED_DIRS = {"__pycache__", ".git", "build", "dist", "fixtures"}
EXCLUDED_SUFFIXES = (".egg-info",)

_PRAGMA_RE = re.compile(r"#\s*lint:\s*disable(?:=([A-Za-z0-9_,\s]+))?")


@dataclass(frozen=True)
class Finding:
    """One lint violation at a specific source location."""

    path: str
    line: int
    code: str
    message: str
    column: int = 0

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


@dataclass
class FileContext:
    """Per-file information shared by the rules."""

    path: Path
    display_path: str
    source: str
    #: Line number -> set of disabled codes ("*" disables everything).
    pragmas: Dict[int, Set[str]] = field(default_factory=dict)
    #: Every (line, code) a rule fired on this file so far, before
    #: suppression; the stale-pragma rule reads it.
    fired: Set[Tuple[int, str]] = field(default_factory=set)
    #: Catalogue codes filtered out of this run.
    unrun_codes: FrozenSet[str] = frozenset()

    @property
    def is_rng_module(self) -> bool:
        """True for ``repro/core/rng.py``, the sanctioned ``random`` user."""
        parts = self.path.parts
        return len(parts) >= 3 and parts[-3:] == ("repro", "core", "rng.py")

    def suppressed(self, line: int, code: str) -> bool:
        disabled = self.pragmas.get(line)
        if disabled is None:
            return False
        return "*" in disabled or code in disabled


class LintRule:
    """Base class for lint rules.

    Subclasses set ``code`` (``"R00x"``), ``name``, and ``description``,
    and implement :meth:`check` over one parsed module.
    """

    code: str = "R000"
    name: str = "abstract-rule"
    description: str = ""
    #: Whether a ``lint: disable`` pragma hides this rule's findings.
    suppressible: bool = True

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=ctx.display_path,
            line=getattr(node, "lineno", 1),
            code=self.code,
            message=message,
        )


def _parse_pragmas(source: str) -> Dict[int, Set[str]]:
    """Pragma map from comment tokens; regex fallback on tokenize error.

    The tokenizer pass means docstrings *about* pragmas don't register
    as pragmas (a regex over raw lines can't tell the difference); the
    fallback keeps suppression working in files the tokenizer rejects,
    where reporting something is better than reporting noise.
    """
    pragmas: Dict[int, Set[str]] = {}

    def record(lineno: int, text: str) -> None:
        m = _PRAGMA_RE.search(text)
        if not m:
            return
        codes = m.group(1)
        if codes is None:
            pragmas[lineno] = {"*"}
        else:
            pragmas[lineno] = {c.strip() for c in codes.split(",") if c.strip()}

    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                record(tok.start[0], tok.string)
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pragmas.clear()
        for lineno, line in enumerate(source.splitlines(), start=1):
            record(lineno, line)
    return pragmas


def _iter_files(paths: Sequence[str]) -> Iterator[Path]:
    """The Python files under ``paths``; exclusions apply below each
    named root."""
    for raw in paths:
        root = Path(raw)
        if root.is_file():
            if root.suffix == ".py":
                yield root
            continue
        if not root.exists():
            raise FileNotFoundError(f"lint path does not exist: {raw}")
        for candidate in sorted(root.rglob("*.py")):
            rel_parts = candidate.relative_to(root).parts
            if any(part in EXCLUDED_DIRS for part in rel_parts):
                continue
            if any(part.endswith(EXCLUDED_SUFFIXES) for part in rel_parts):
                continue
            yield candidate


def lint_file(
    path: Path, rules: Optional[Sequence[LintRule]] = None
) -> List[Finding]:
    """Lint one file: :func:`lint_paths` over that file alone."""
    return lint_paths([str(path)], rules)


def _syntax_finding(display_path: str, exc: SyntaxError) -> Finding:
    return Finding(
        path=display_path,
        line=exc.lineno or 1,
        code="E999",
        message=f"syntax error: {exc.msg}",
        column=(exc.offset or 1) - 1,
    )


def _sort_key(f: Finding) -> Tuple[str, int, str, int, str]:
    return (f.path, f.line, f.code, f.column, f.message)


def lint_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[LintRule]] = None,
) -> List[Finding]:
    """Lint every Python file under ``paths`` with ``rules`` (default:
    the whole catalogue), run on each file in code order.

    Returns findings sorted by (path, line, code).
    """
    from .rules import all_rules

    catalogue = all_rules()
    if rules is None:
        rules = catalogue
    rules = sorted(rules, key=lambda r: r.code)
    unrun = frozenset(r.code for r in catalogue) - {r.code for r in rules}

    findings: List[Finding] = []
    for path in _iter_files(paths):
        display = str(path)
        source = path.read_bytes().decode("utf-8")
        try:
            tree = ast.parse(source, filename=display)
        except SyntaxError as exc:
            findings.append(_syntax_finding(display, exc))
            continue
        ctx = FileContext(
            path=path, display_path=display, source=source,
            pragmas=_parse_pragmas(source), unrun_codes=unrun,
        )
        for rule in rules:
            for finding in rule.check(tree, ctx):
                ctx.fired.add((finding.line, finding.code))
                if not (rule.suppressible
                        and ctx.suppressed(finding.line, finding.code)):
                    findings.append(finding)

    findings.sort(key=_sort_key)
    return findings


def format_findings(findings: Iterable[Finding]) -> str:
    return "\n".join(f.format() for f in findings)


def filter_rules(
    rules: Sequence[LintRule],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[LintRule]:
    """Apply ``--select``/``--ignore`` code filters to the catalogue.

    Raises :class:`ValueError` for codes that name no known rule
    (E999 is accepted: it is filterable output, not a rule).
    """
    known = {r.code for r in rules} | {"E999"}
    for code in list(select or []) + list(ignore or []):
        if code not in known:
            raise ValueError(f"unknown rule code: {code}")
    kept = list(rules)
    if select:
        kept = [r for r in kept if r.code in set(select)]
    if ignore:
        kept = [r for r in kept if r.code not in set(ignore)]
    return kept


def run_lint(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    output_format: str = "text",
    output_path: Optional[str] = None,
) -> int:
    """Lint ``paths``; return a process exit code.

    0 = clean, 1 = findings, 2 = usage error (unknown rule code or
    format).  ``--format json``/``sarif`` write a deterministic
    document to ``output_path`` (stdout when unset); the exit code
    still reflects the findings so CI fails on regressions.
    """
    from . import output as out_mod
    from .rules import all_rules

    try:
        active = filter_rules(all_rules(), select, ignore)
    except ValueError as exc:
        print(f"lint: {exc}")
        return 2
    if output_format not in ("text", "json", "sarif"):
        print(f"lint: unknown format: {output_format}")
        return 2

    findings = lint_paths(paths, active)
    dropped = set(ignore or ())
    if dropped:
        findings = [f for f in findings if f.code not in dropped]
    if select:
        wanted = set(select)
        findings = [f for f in findings if f.code in wanted]

    if output_format == "json":
        document = out_mod.findings_to_json(findings)
    elif output_format == "sarif":
        meta = {r.code: (r.name, r.description) for r in active}
        document = out_mod.findings_to_sarif(findings, meta)
    else:
        document = None

    if document is not None:
        if output_path:
            with open(output_path, "w", encoding="utf-8") as fh:
                fh.write(document)
        else:
            print(document, end="")
    else:
        if findings:
            print(format_findings(findings))
        n = len(findings)
        summary = "clean" if n == 0 else f"{n} finding{'s' if n != 1 else ''}"
        print(f"lint: {summary} ({', '.join(paths)})")
    return 1 if findings else 0
