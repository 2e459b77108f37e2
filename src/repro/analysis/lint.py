"""AST lint framework for simulator-specific rules.

Two kinds of rule share one catalogue, and every rule has exactly one
form:

* **File rules** (R001, R002, :class:`LintRule`) implement
  ``check(tree, ctx)`` — a generator over one parsed module.
* **Project rules** (R006-R014, :class:`ProjectRule`) implement
  ``check_project(index)`` against the whole-program
  :class:`~repro.analysis.flow.index.ProjectIndex` — cross-module class
  hierarchies, interprocedural purity, global RNG-stream uniqueness.

:func:`lint_file` is :func:`lint_paths` over a one-file index: a
project rule sees whatever the indexed files show it, so the
single-module view needs no second implementation.

Findings are reported as ``path:line: code message`` — one per line,
sorted by ``(path, line, code)`` — or as deterministic JSON / SARIF
2.1.0 via ``--format`` (see :mod:`repro.analysis.flow.output`).

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
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    TYPE_CHECKING,
    Tuple,
)

if TYPE_CHECKING:
    from .flow.index import ProjectIndex

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
    """Per-file information shared by the file rules."""

    path: Path
    display_path: str
    source: str
    #: Line number -> set of disabled codes ("*" disables everything).
    pragmas: Dict[int, Set[str]] = field(default_factory=dict)

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
    """Base class for lint rules, and the file-rule form.

    Subclasses set ``code`` (``"R00x"``), ``name``, and ``description``.
    A file rule implements :meth:`check` over one parsed module; a rule
    that needs the whole-program index subclasses :class:`ProjectRule`
    and implements ``check_project(index)`` instead.
    """

    code: str = "R000"
    name: str = "abstract-rule"
    description: str = ""

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=ctx.display_path,
            line=getattr(node, "lineno", 1),
            code=self.code,
            message=message,
        )


class ProjectRule(LintRule):
    """A rule over the whole-program index (R006-R014); it is never
    handed a single module, so it does not implement ``check``."""

    #: Final-phase rules (R012) run after every other rule and see the
    #: accumulated rule-hit map; their findings bypass pragma
    #: suppression (they reason about the pragmas themselves).
    runs_last: bool = False

    def check_project(self, index: "ProjectIndex") -> Iterator[Finding]:
        raise NotImplementedError

    def project_finding(self, path: str, line: int, message: str) -> Finding:
        return Finding(path=path, line=line, code=self.code, message=message)


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


def _iter_with_roots(paths: Sequence[str]) -> Iterator[Tuple[Path, Path]]:
    """``(lint_root, file)`` pairs; exclusions apply below the root."""
    for raw in paths:
        root = Path(raw)
        if root.is_file():
            if root.suffix == ".py":
                yield root.parent, root
            continue
        if not root.exists():
            raise FileNotFoundError(f"lint path does not exist: {raw}")
        for candidate in sorted(root.rglob("*.py")):
            rel_parts = candidate.relative_to(root).parts
            if any(part in EXCLUDED_DIRS for part in rel_parts):
                continue
            if any(part.endswith(EXCLUDED_SUFFIXES) for part in rel_parts):
                continue
            yield root, candidate


def lint_file(
    path: Path, rules: Optional[Sequence[LintRule]] = None
) -> List[Finding]:
    """Lint one file alone: :func:`lint_paths` over a one-file index.

    Project rules see only this module, so a contract whose other half
    lives elsewhere (a base class, an inherited ``commit``) is out of
    view — that is a property of the index, not a second rule form.
    """
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
    """Whole-program lint of every Python file under ``paths``.

    Per-file rules run on each module; project rules run once against
    the :class:`~repro.analysis.flow.index.ProjectIndex` built from the
    per-file summaries.  Returns findings sorted by (path, line, code).
    """
    from .flow.index import ProjectIndex
    from .flow.summary import FileSummary, summarize_module
    from .rules import all_rules

    catalogue = all_rules()
    if rules is None:
        rules = catalogue
    file_rules = [r for r in rules if not isinstance(r, ProjectRule)]
    project_rules = [
        r for r in rules if isinstance(r, ProjectRule) and not r.runs_last
    ]
    final_rules = [
        r for r in rules if isinstance(r, ProjectRule) and r.runs_last
    ]

    findings: List[Finding] = []
    summaries: List[FileSummary] = []
    #: display path -> every (line, code) any rule fired pre-suppression;
    #: the stale-pragma rule consumes this.
    rule_hits: Dict[str, Set[Tuple[int, str]]] = {}
    contexts: Dict[str, FileContext] = {}

    for root, path in _iter_with_roots(paths):
        display = str(path)
        source = path.read_bytes().decode("utf-8")
        hits: Set[Tuple[int, str]] = set()
        rule_hits[display] = hits
        try:
            tree = ast.parse(source, filename=display)
        except SyntaxError as exc:
            findings.append(_syntax_finding(display, exc))
            continue
        pragmas = _parse_pragmas(source)
        ctx = contexts[display] = FileContext(
            path=path, display_path=display, source=source, pragmas=pragmas
        )
        for rule in file_rules:
            for finding in rule.check(tree, ctx):
                hits.add((finding.line, finding.code))
                if not ctx.suppressed(finding.line, finding.code):
                    findings.append(finding)
        summaries.append(summarize_module(
            tree,
            display,
            pragmas={ln: sorted(codes) for ln, codes in pragmas.items()},
            root=str(root),
        ))

    index = ProjectIndex(summaries)
    index.rule_hits = rule_hits
    index.unrun_codes = {r.code for r in catalogue} - {r.code for r in rules}

    for rule in project_rules:
        for finding in rule.check_project(index):
            rule_hits.setdefault(finding.path, set()).add(
                (finding.line, finding.code)
            )
            owner = contexts.get(finding.path)
            if owner and owner.suppressed(finding.line, finding.code):
                continue
            findings.append(finding)
    for rule in final_rules:
        findings.extend(rule.check_project(index))

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
    from .flow import output as out_mod
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
