"""Plain-text reporting for experiment results.

The benchmark harness regenerates every table and figure of the paper
as text: each figure becomes a table of the same series the paper
plots.  These helpers render aligned tables and load-latency curves so
benchmark output is directly comparable against the paper.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from .experiment import SweepResult


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned text table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} "
                "columns"
            )
        for c, cell in enumerate(row):
            widths[c] = max(widths[c], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell != cell:  # NaN
            return "-"
        if abs(cell) >= 1000:
            return f"{cell:.3g}"
        return f"{cell:.3f}".rstrip("0").rstrip(".")
    return str(cell)


def format_sweeps(
    sweeps: Sequence[SweepResult], title: Optional[str] = None
) -> str:
    """Render load-latency curves side by side (one figure's series).

    Saturated points are marked with a trailing ``*`` on the latency:
    their measured latency is unbounded in steady state and the value
    shown only reflects the finite measurement window, as in the
    paper's plots where curves end at saturation.
    """
    loads = sorted({round(l, 6) for s in sweeps for l in s.loads})
    headers = ["load"] + [s.label for s in sweeps]
    rows = []
    for load in loads:
        row: List[object] = [load]
        for s in sweeps:
            cell = "-"
            for r in s.results:
                if abs(r.offered_load - load) < 1e-9:
                    cell = f"{r.avg_latency:.1f}" + ("*" if r.saturated else "")
                    break
            row.append(cell)
        rows.append(row)
    return format_table(headers, rows, title=title)


def format_extras(
    sweep: SweepResult, title: Optional[str] = None
) -> str:
    """Per-load table of every ``RunResult.extra`` counter in a sweep.

    This includes the harness's own bookkeeping (``undelivered``,
    ``source_backlog``) and any ad-hoc ``stats.*`` counters a router
    recorded via :meth:`~repro.routers.base.RouterStats.bump` — the
    harness folds those into each result so they survive aggregation
    instead of dying with the router instance.  Counters absent at a
    load point render as ``-``.
    """
    names = sorted({name for r in sweep.results for name in r.extra})
    headers = ["counter"] + [
        f"{r.offered_load:.2f}" for r in sweep.results
    ]
    rows: List[Sequence[object]] = [
        [name] + [r.extra.get(name, float("nan")) for r in sweep.results]
        for name in names
    ]
    return format_table(headers, rows, title=title)


def format_saturation(
    sweeps: Sequence[SweepResult], title: Optional[str] = None
) -> str:
    """One-line-per-architecture saturation throughput summary."""
    rows = [
        (s.label, f"{s.saturation_throughput():.3f}")
        for s in sweeps
    ]
    return format_table(["architecture", "saturation throughput"], rows, title)
