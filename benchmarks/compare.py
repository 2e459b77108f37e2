"""Compare two revisions on the end-to-end benchmark, in alternating pairs.

    python benchmarks/compare.py <rev-a> <rev-b> --pairs N
        [--workload W]... [--seconds S] [--seed N] [--out BENCH_<n>.json]

``rev-a`` is the base (the parent), ``rev-b`` the change.  Each is
exported with ``git archive`` into a fresh directory, so no stale
bytecode or untracked file of the working tree reaches either side.
Each pair runs both sides' own ``benchmarks/e2e/run.py`` once, in
alternating order (a first on even pairs, b first on odd ones), so a
host that drifts between speed states spreads over both sides alike.

For every workload and end-to-end metric of ``BENCHMARK.json`` it
reports both sides' medians and quartiles, the pairs the change led,
and a verdict (:func:`verdict`) against the metric's ``bound`` (a
share of the base's median): *resolved* when the change is better in
at least nine pairs of ten and its median beats the base's by more
than the base's interquartile range, *regressed* when its median is
worse than the base's by more than the bound, *unresolved* when either
side's interquartile range is wider than the bound, else *within
bound*.  It also reports whether the
simulated result (the row's CRC32) and ``ops_failed`` differ between
the sides; a CRC change is reported, not failed on, since a change
may move the simulated numbers by design.

The record written with ``--out`` holds one measurement per workload
and metric (both sides' samples and the summary above) plus the two
revisions, the settings and the base tree's machine fingerprint.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]
E2E = ROOT / "benchmarks" / "e2e"

#: Pairs out of ten the change must lead for a resolved verdict.
LEAD_FRACTION = 0.9


def quartiles(samples: Sequence[float]) -> List[float]:
    """(Q1, median, Q3) of ``samples`` (inclusive method: a single
    sample is its own quartiles)."""
    if len(samples) == 1:
        return [samples[0]] * 3
    return statistics.quantiles(samples, n=4, method="inclusive")


def verdict(base: Sequence[float], change: Sequence[float],
            better: str, bound: float) -> Dict[str, Any]:
    """Summary of one metric over paired runs (``base[i]`` and
    ``change[i]`` ran in the same pair); ``better`` is "lower" or
    "higher", ``bound`` the tolerated loss as a share of the base's
    median.

    ``delta`` is the change's median minus the base's, ``gain`` the
    same signed so that positive is better, ``led`` the pairs the
    change was strictly better in.  The verdict is "resolved" when the
    change led at least :data:`LEAD_FRACTION` of the pairs and its
    gain exceeds the base's interquartile range; "regressed" when its
    loss exceeds ``bound`` times the base's median; "unresolved" when
    either side's interquartile range does (the runs spread too widely
    to tell); else "within bound".
    """
    if len(base) != len(change) or not base:
        raise ValueError(
            f"need equal, non-empty paired samples, got {len(base)} "
            f"and {len(change)}"
        )
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    sign = -1.0 if better == "lower" else 1.0
    q1, median_a, q3 = quartiles(base)
    cq1, median_b, cq3 = quartiles(change)
    iqr = q3 - q1
    gain = sign * (median_b - median_a)
    led = sum(sign * (b - a) > 0 for a, b in zip(base, change))
    trailed = sum(sign * (b - a) < 0 for a, b in zip(base, change))
    limit = bound * abs(median_a)
    if led >= math.ceil(LEAD_FRACTION * len(base)) and gain > iqr:
        outcome = "resolved"
    elif -gain > limit:
        outcome = "regressed"
    elif max(iqr, cq3 - cq1) > limit:
        outcome = "unresolved"
    else:
        outcome = "within bound"
    return {
        "base_median": median_a, "base_q1": q1, "base_q3": q3,
        "change_median": median_b, "change_q1": cq1, "change_q3": cq3,
        "delta": median_b - median_a,
        "ratio": median_b / median_a if median_a else float("nan"),
        "gain": gain, "base_iqr": iqr, "bound": bound,
        "pairs": len(base), "led": led, "trailed": trailed,
        "verdict": outcome,
    }


def export(rev: str, into: Path) -> str:
    """``git archive`` ``rev`` into the new directory ``into``; returns
    the commit it names."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    into.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {commit} failed")
    return commit


def run_side(tree: Path, workloads: List[str], seconds: float,
             seed: int) -> Dict[str, Any]:
    """One run of ``tree``'s own benchmark: its result document."""
    argv = [sys.executable, str(tree / "benchmarks" / "e2e" / "run.py"),
            "--seconds", str(seconds), "--seed", str(seed)]
    for name in workloads:
        argv += ["--workload", name]
    done = subprocess.run(argv, cwd=tree, stdout=subprocess.DEVNULL)
    if done.returncode != 0:
        raise RuntimeError(f"{tree.name}: run.py exited {done.returncode}")
    out = tree / "benchmarks" / "e2e" / "out" / "result.json"
    return json.loads(out.read_text())


def summarize(bench: Dict[str, Any], workloads: List[str],
              sides: Dict[str, List[Dict[str, Any]]]) -> List[Dict[str, Any]]:
    """One measurement record per workload x end-to-end metric."""
    records = []
    for name in workloads:
        runs_a = [doc["workloads"][name] for doc in sides["a"]]
        runs_b = [doc["workloads"][name] for doc in sides["b"]]
        crc_a = sorted({run["crc32"] for run in runs_a})
        crc_b = sorted({run["crc32"] for run in runs_b})
        failed = [sum(run["ops_failed"] for run in runs)
                  for runs in (runs_a, runs_b)]
        for metric in bench["end_to_end"]:
            key = metric["name"]
            a = [run["metrics"][key]["value"] for run in runs_a]
            b = [run["metrics"][key]["value"] for run in runs_b]
            record = {"workload": name, "metric": key,
                      "unit": metric["unit"], "better": metric["better"],
                      "base": a, "change": b}
            record.update(verdict(a, b, metric["better"], metric["bound"]))
            record.update({
                "crc32_base": crc_a, "crc32_change": crc_b,
                "crc32_differs": crc_a != crc_b,
                "ops_failed_base": failed[0], "ops_failed_change": failed[1],
            })
            records.append(record)
    return records


def table(records: List[Dict[str, Any]]) -> str:
    lines = [
        "| workload | metric | base median [Q1, Q3] | change median [Q1, Q3] "
        "| ratio | led | verdict |",
        "|---|---|---|---|---|---|---|",
    ]
    for r in records:
        lines.append(
            f"| {r['workload']} | {r['metric']} "
            f"| {r['base_median']:.4g} [{r['base_q1']:.4g}, "
            f"{r['base_q3']:.4g}] "
            f"| {r['change_median']:.4g} [{r['change_q1']:.4g}, "
            f"{r['change_q3']:.4g}] "
            f"| {r['ratio']:.3f} | {r['led']}/{r['pairs']} "
            f"| {r['verdict']} |"
        )
    seen = set()
    for r in records:
        if r["workload"] in seen:
            continue
        seen.add(r["workload"])
        crc = ("differs (reported, not failed)" if r["crc32_differs"]
               else "identical")
        lines.append(
            f"{r['workload']}: result CRC32 {crc}; ops_failed base "
            f"{r['ops_failed_base']}, change {r['ops_failed_change']}"
        )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="base revision (the parent)")
    parser.add_argument("change", help="revision to compare against it")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="compare only this workload (repeatable)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload and run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=Path, default=None,
                        help="write the measurement records here "
                             "(BENCH_<n>.json)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be >= 1, got {args.pairs}")
    # The benchmark's own definitions, read from this tree, untouched.
    sys.path[:0] = [str(E2E), str(ROOT / "src")]
    import run as e2e_run
    import workloads as e2e_workloads

    bench = e2e_run.load_benchmark()
    names = args.workload or list(e2e_workloads.SPECS)
    for name in names:
        if name not in e2e_workloads.SPECS:
            parser.error(f"unknown workload {name!r}; choose from "
                         f"{list(e2e_workloads.SPECS)}")
    seconds = (float(bench["run_seconds"]) if args.seconds is None
               else args.seconds)
    work = Path(tempfile.mkdtemp(prefix="compare-"))
    try:
        trees = {side: work / side for side in ("a", "b")}
        commits = {side: export(rev, trees[side])
                   for side, rev in (("a", args.base), ("b", args.change))}
        sides: Dict[str, List[Dict[str, Any]]] = {"a": [], "b": []}
        for pair in range(args.pairs):
            for side in ("ab" if pair % 2 == 0 else "ba"):
                sides[side].append(
                    run_side(trees[side], names, seconds, args.seed))
            print(f"compare: pair {pair + 1}/{args.pairs} done",
                  file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    records = summarize(bench, names, sides)
    print(table(records))
    if args.out is not None:
        args.out.write_text(json.dumps({
            "base": {"rev": args.base, "commit": commits["a"]},
            "change": {"rev": args.change, "commit": commits["b"]},
            "pairs": args.pairs, "seconds": seconds, "seed": args.seed,
            "lead_fraction": LEAD_FRACTION,
            "machine": sides["a"][0]["machine"],
            "measurements": records,
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
