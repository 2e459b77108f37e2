"""Finding renderers.

Findings are duck-typed here (anything with ``path``, ``line``,
``column``, ``code``, ``message``) so this module stays importable
without :mod:`repro.analysis.lint` — the lint driver imports *us*.

JSON output is stable-sorted by ``(path, line, code)`` upstream and
serialized with sorted keys, so byte-identical inputs give
byte-identical documents.  SARIF output targets the 2.1.0 schema with
the minimal valid shape GitHub code scanning ingests: one run, one
tool driver with per-rule metadata, one result per finding with a
physical location using repo-relative forward-slash URIs.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Protocol, Sequence, Tuple


class FindingLike(Protocol):
    path: str
    line: int
    column: int
    code: str
    message: str


#: SARIF schema pin for the generated documents.
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
SARIF_VERSION = "2.1.0"

#: Reported in ``tool.driver``; version-bumped with the rule catalogue.
TOOL_NAME = "repro-lint"
TOOL_VERSION = "3.0.0"


def _uri(path: str) -> str:
    return path.replace("\\", "/")


def findings_to_json(findings: Sequence[FindingLike]) -> str:
    """Deterministic JSON document (inputs must already be sorted)."""
    payload = {
        "version": 1,
        "count": len(findings),
        "findings": [
            {
                "path": _uri(f.path),
                "line": f.line,
                "column": f.column,
                "code": f.code,
                "message": f.message,
            }
            for f in findings
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def findings_to_sarif(
    findings: Sequence[FindingLike],
    rule_meta: Dict[str, Tuple[str, str]],
) -> str:
    """SARIF 2.1.0 document.

    ``rule_meta`` maps rule codes to ``(name, short_description)``;
    codes that appear in findings but not in the map (E999) still get a
    rule entry so every result's ``ruleId``/``ruleIndex`` resolves.
    """
    codes = sorted(set(rule_meta) | {f.code for f in findings})
    rule_index = {code: i for i, code in enumerate(codes)}
    rules: List[Dict[str, Any]] = []
    for code in codes:
        name, desc = rule_meta.get(
            code, (code, "Syntax error" if code == "E999" else code)
        )
        rules.append({
            "id": code,
            "name": name,
            "shortDescription": {"text": desc},
            "defaultConfiguration": {
                "level": "error" if code.startswith("E") else "warning",
            },
        })
    results: List[Dict[str, Any]] = []
    for f in findings:
        results.append({
            "ruleId": f.code,
            "ruleIndex": rule_index[f.code],
            "level": "error" if f.code.startswith("E") else "warning",
            "message": {"text": f.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": _uri(f.path),
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {
                        "startLine": max(f.line, 1),
                        "startColumn": max(f.column, 1),
                    },
                },
            }],
        })
    doc = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": TOOL_NAME,
                    "version": TOOL_VERSION,
                    "informationUri":
                        "https://example.invalid/repro-lint",
                    "rules": rules,
                },
            },
            "originalUriBaseIds": {
                "SRCROOT": {"uri": "file:///"},
            },
            "results": results,
            "columnKind": "utf16CodeUnits",
        }],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
