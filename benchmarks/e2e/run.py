"""End-to-end benchmark of the simulator: host time per simulated result.

    python benchmarks/e2e/run.py [--seed N] [--workload NAME]...
                                 [--seconds S] [--trace [0|1]] [--selfcheck]

Runs the named workloads (default: all five of ``BENCHMARK.json``),
prints every metric as ``workload/metric value unit``, writes
``benchmarks/e2e/out/result.json`` and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  Exits non-zero
only on a harness error; a failed output check is counted in
``failed``, not fatal.  See README.md beside this file for the design.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
CHILD = HERE / "child.py"

sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import clock  # noqa: E402
import metrics  # noqa: E402

#: Timed reps a workload gets even when the host is too slow to fit
#: them into ``--seconds``.
MIN_REPS = 5
#: Cold-start probes per workload, one before every second round of
#: reps so they sample the same stretch of host time as the reps.
PROBES = 5


class HarnessError(RuntimeError):
    """The benchmark itself broke (as opposed to a failed output check)."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    return env


class Child:
    """One workload's long-lived worker process (see child.py)."""

    def __init__(self, name: str, seed: int, scale: float) -> None:
        self.name = name
        self.proc = subprocess.Popen(
            [sys.executable, str(CHILD), "--workload", name,
             "--seed", str(seed), "--scale", str(scale)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(),
        )

    def call(self, op: str) -> Dict[str, Any]:
        try:
            self.proc.stdin.write(json.dumps({"op": op}) + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        except BrokenPipeError:
            line = ""
        if not line:
            raise HarnessError(
                f"{self.name}: worker died during {op!r} "
                f"(exit status {self.proc.poll()})"
            )
        return json.loads(line)

    def reap(self) -> None:
        """Close the pipes and wait; kill a worker that will not leave."""
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def timed_command(argv: List[str]) -> Dict[str, Any]:
    """Cold interpreter from ``Popen`` to exit, in reference seconds.

    For commands that cannot sample themselves (the real CLI): the
    bursts run here while the command runs there, so the sampler is
    not inline -- they measure the host, not steal from the command.
    """
    env = child_env()
    env["PYTHONPATH"] = str(SRC)
    with calib.Sampler(inline=False) as sampler:
        status = subprocess.run(
            [sys.executable] + argv, env=env, stdout=subprocess.DEVNULL,
        ).returncode
    return {"ok": status == 0, "raw_s": sampler.raw_s, "cal_s": sampler.cal_s}


def setup_probe(name: str, seed: int, scale: float) -> Dict[str, Any]:
    """One cold start of a workload, ``Popen`` to exit (see child.probe).

    The probe samples the host on its own thread like a rep does; what
    it cannot cover -- interpreter start and exit, a tenth of the whole
    -- is scaled by the factor it measured for the rest.
    """
    start = clock.wall()
    done = subprocess.run(
        [sys.executable, str(CHILD), "--workload", name, "--seed", str(seed),
         "--scale", str(scale), "--probe"],
        env=child_env(), stdout=subprocess.PIPE, text=True,
    )
    raw_s = clock.wall() - start
    if done.returncode != 0:
        return {"ok": False}
    inner = json.loads(done.stdout)
    raw_s -= inner["burst_s"]
    factor = inner["cal_s"] / inner["raw_s"]
    return {
        "ok": True, "raw_s": raw_s,
        "cal_s": inner["cal_s"] + (raw_s - inner["raw_s"]) * factor,
    }


class WorkloadRun:
    """Everything recorded for one workload in one set."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.reps: List[Dict[str, Any]] = []
        self.probes: List[Dict[str, Any]] = []
        self.traced: Optional[Dict[str, Any]] = None
        self.twin: Optional[Dict[str, Any]] = None
        self.cli_import: Optional[Dict[str, Any]] = None
        self.cli_run: Optional[Dict[str, Any]] = None
        self.peak_rss_mb = 0.0
        #: One line per failed operation.
        self.failures: List[str] = []
        self.attempted = 0

    def record(self, kind: str, reply: Dict[str, Any]) -> None:
        """Count one operation; note why it failed, if it did."""
        self.attempted += 1
        reasons = []
        if not reply["ok"]:
            reasons.append(reply.get("error", "non-zero exit").strip()
                           .splitlines()[-1])
        else:
            reasons.extend(reply.get("failures", ()))
            finished = self.finished_reps()
            if finished and "crc" in reply and (
                reply["crc"] != finished[0]["crc"]
            ):
                reasons.append("row differs from the first rep's")
        for reason in reasons:
            self.failures.append(f"{kind}: {reason}")

    def finished_reps(self) -> List[Dict[str, Any]]:
        """Reps that ran to a persisted row: a failed output check is
        counted against the run, but the rep's time is still a time."""
        return [rep for rep in self.reps if rep["ok"]]


def run_set(names: List[str], seed: int, seconds: float, scale: float,
            trace: bool) -> Dict[str, WorkloadRun]:
    """One full set: interleaved reps and probes, then the traced pass.

    Rep *i* of every workload runs before rep *i+1* of any, one child
    active at a time, so each workload's reps span the whole set.
    """
    runs = {name: WorkloadRun(name) for name in names}
    children: Dict[str, Child] = {}
    try:
        for name in names:
            children[name] = Child(name, seed, scale)
        for name in names:  # untimed warm-up: imports, caches, allocator
            children[name].call("rep")
        deadline = clock.wall() + seconds * len(names)
        rounds = 0
        while rounds < MIN_REPS or clock.wall() < deadline:
            if rounds % 2 == 0 and rounds // 2 < PROBES:
                for name in names:
                    probe = setup_probe(name, seed, scale)
                    runs[name].record("setup probe", probe)
                    runs[name].probes.append(probe)
            for name in names:
                rep = children[name].call("rep")
                runs[name].record(f"rep {rounds}", rep)
                runs[name].reps.append(rep)
            rounds += 1
        if trace:
            for name in names:
                traced_pass(runs[name], children[name])
        for name in names:
            runs[name].peak_rss_mb = children[name].call("quit")["peak_rss_mb"]
    finally:
        for child in children.values():
            child.reap()
    return runs


def traced_pass(run: WorkloadRun, child: Child) -> None:
    """One traced rep; plus the serial twin and the CLI where they apply."""
    run.traced = child.call("trace")
    run.record("traced rep", run.traced)
    run.cli_import = timed_command(["-c", "import repro.cli"])
    if not run.traced["ok"]:
        return
    if run.traced["has_twin"]:
        run.twin = child.call("twin")
        run.record("serial twin", run.twin)
    if run.traced["cli_args"] is not None:
        run.cli_run = timed_command(
            ["-m", "repro.cli"] + run.traced["cli_args"]
        )
        run.record("cli run", run.cli_run)


def workload_metrics(run: WorkloadRun) -> Dict[str, float]:
    """Every metric this run can report, by BENCHMARK.json name."""
    reps = run.finished_reps()
    probes = [p["cal_s"] for p in run.probes if p["ok"]]
    if not reps or not probes:
        raise HarnessError(
            f"{run.name}: no rep or no set-up probe finished: "
            + "; ".join(run.failures)
        )
    out = metrics.end_to_end(reps, probes, run.peak_rss_mb)
    out.update(metrics.host_diagnostics(reps))
    if run.traced is not None:
        if not run.traced["ok"]:
            raise HarnessError(
                f"{run.name}: the traced rep raised:\n{run.traced['error']}"
            )
        twin_ok = run.twin is not None and run.twin["ok"]
        out.update(metrics.per_layer(
            run.traced,
            untraced_wall_s=out["wall_s"],
            shard_vs_serial=(
                out["wall_s"] / run.twin["cal_wall_s"] if twin_ok else 0.0
            ),
            cli_import_s=run.cli_import["cal_s"],
            cli_run_wall_s=run.cli_run["cal_s"] if run.cli_run else 0.0,
        ))
    return out


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def load_benchmark() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def fingerprint() -> Dict[str, Any]:
    """What machine and interpreter produced the numbers."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "cal_ref_s": calib.CAL_REF_S,
    }


def summarize(bench: Dict[str, Any], runs: Dict[str, WorkloadRun],
              args: argparse.Namespace) -> Dict[str, Any]:
    """The result document: metrics, rep detail and the fingerprint."""
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    workloads = {}
    for name, run in runs.items():
        values = workload_metrics(run)
        unknown = sorted(set(values) - set(units))
        if unknown:
            raise HarnessError(f"metrics not in BENCHMARK.json: {unknown}")
        reps = run.finished_reps()
        workloads[name] = {
            "metrics": {
                metric: {"value": values[metric], "unit": units[metric]}
                for metric in units if metric in values
            },
            "wall_s_reps": {
                "n": len(reps),
                "min": min(r["cal_wall_s"] for r in reps),
                "median": statistics.median(r["cal_wall_s"] for r in reps),
                "max": max(r["cal_wall_s"] for r in reps),
            },
            "ops": run.attempted,
            "ops_failed": len(run.failures),
            "failures": run.failures,
            "crc32": reps[0]["crc"],
            "reps": [
                {key: rep[key] for key in (
                    "raw_wall_s", "cal_wall_s", "raw_cpu_s", "cal_cpu_s",
                    "bursts")}
                for rep in reps
            ],
            "probes": run.probes,
        }
    cal_factors = [
        w["metrics"]["host.cal_factor"]["value"] for w in workloads.values()
    ]
    machine = fingerprint()
    machine["cal_factor"] = statistics.median(cal_factors)
    return {
        "seed": args.seed,
        "seconds": args.seconds,
        # 1.0 is the benchmark; anything else is a self-test smoke run
        # whose numbers mean nothing.
        "scale": args.scale,
        "traced": args.trace,
        "machine": machine,
        "model_validation": "shape-only, see EXPERIMENTS.md",
        "workloads": workloads,
    }


def print_metrics(result: Dict[str, Any]) -> None:
    for name, workload in result["workloads"].items():
        for metric, entry in workload["metrics"].items():
            print(f"{name}/{metric} {entry['value']:.10g} {entry['unit']}")
        reps = workload["wall_s_reps"]
        print(f"{name}/wall_s reps: n={reps['n']} min={reps['min']:.4f} "
              f"median={reps['median']:.4f} max={reps['max']:.4f} s")
        print(f"{name}/ops {workload['ops']} count")
        print(f"{name}/ops_failed {workload['ops_failed']} count")
        for failure in workload["failures"]:
            print(f"{name}: FAILED {failure}")


def final_line(bench: Dict[str, Any], result: Dict[str, Any],
               trace: bool) -> str:
    """The driver's contract: one JSON object, last on stdout.

    End-to-end metrics untraced, per-layer metrics traced; names carry
    a ``workload/`` prefix only when several workloads ran.
    """
    wanted = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    workloads = result["workloads"]
    out = {}
    for name, workload in workloads.items():
        prefix = f"{name}/" if len(workloads) > 1 else ""
        for metric in wanted:
            out[prefix + metric] = workload["metrics"][metric]
    attempted = sum(w["ops"] for w in workloads.values())
    failed = sum(w["ops_failed"] for w in workloads.values())
    return json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": out,
    })


# ----------------------------------------------------------------------
# --selfcheck
# ----------------------------------------------------------------------


def selfcheck(bench: Dict[str, Any], args: argparse.Namespace,
              names: List[str]) -> Dict[str, Any]:
    """Two full sets back to back, compared metric by metric."""
    sets = []
    for label in "AB":
        runs = run_set(names, args.seed, args.seconds, args.scale, args.trace)
        sets.append(summarize(bench, runs, args))
        print(f"selfcheck: set {label} done", file=sys.stderr)
    rows = []
    for name in names:
        a, b = (s["workloads"][name] for s in sets)
        for metric in bench["end_to_end"]:
            va, vb = (w["metrics"][metric["name"]]["value"] for w in (a, b))
            rows.append({
                "workload": name, "metric": metric["name"],
                "a": va, "b": vb, "rel_diff": (vb - va) / va,
                "bound": metric["bound"],
                "pass": abs(vb - va) / va <= metric["bound"],
            })
        # What was simulated must not depend on when the set ran.
        counted = [
            metric for metric, entry in a["metrics"].items()
            if metric.startswith(("sim.", "engine.")) and entry["unit"] != "s"
        ]
        rows.append({
            "workload": name, "metric": "sim.*/engine.* counts",
            "a": float(a["crc32"]), "b": float(b["crc32"]), "rel_diff": 0.0,
            "bound": 0.0,
            "pass": a["crc32"] == b["crc32"] and all(
                a["metrics"][m] == b["metrics"][m] for m in counted
            ),
        })
    return {
        "sets": sets,
        "rows": rows,
        "ops_failed": [
            sum(w["ops_failed"] for w in s["workloads"].values())
            for s in sets
        ],
    }


def selfcheck_table(check: Dict[str, Any]) -> str:
    lines = [
        "| workload | metric | set A | set B | rel. diff | bound | |",
        "|---|---|---|---|---|---|---|",
    ]
    for row in check["rows"]:
        lines.append(
            f"| {row['workload']} | {row['metric']} | {row['a']:.6g} "
            f"| {row['b']:.6g} | {row['rel_diff']:+.3f} | {row['bound']:.2f} "
            f"| {'PASS' if row['pass'] else 'FAIL'} |"
        )
    lines += ["", "| workload | host.cal_factor A | B | host.rep_spread A | B "
              "| reps A | B |", "|---|---|---|---|---|---|---|"]
    set_a, set_b = check["sets"]
    for name in set_a["workloads"]:
        cells = []
        for metric in ("host.cal_factor", "host.rep_spread", "host.reps"):
            for one in (set_a, set_b):
                value = one["workloads"][name]["metrics"][metric]["value"]
                cells.append(f"{value:.3g}")
        lines.append(f"| {name} | " + " | ".join(cells) + " |")
    lines += ["", f"ops_failed: set A {check['ops_failed'][0]}, "
              f"set B {check['ops_failed'][1]}"]
    return "\n".join(lines)


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
    )
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add the traced pass and per-layer metrics")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run two sets and report how well they agree")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the workloads (self-tests only)")
    args = parser.parse_args(argv)
    args.trace = bool(args.trace)
    if not (SRC / "repro" / "__init__.py").exists():
        print(f"run.py: no simulator at {SRC}", file=sys.stderr)
        return 2
    bench = load_benchmark()
    known = [w["name"] for w in bench["workloads"]]
    names = args.workload or known
    for name in names:
        if name not in known:
            parser.error(f"unknown workload {name!r}; choose from {known}")
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    OUT_DIR.mkdir(exist_ok=True)
    try:
        if args.selfcheck:
            check = selfcheck(bench, args, names)
            (OUT_DIR / "selfcheck.json").write_text(
                json.dumps(check, indent=1))
            print(selfcheck_table(check))
            return 0
        runs = run_set(names, args.seed, args.seconds, args.scale, args.trace)
        result = summarize(bench, runs, args)
    except HarnessError as exc:
        print(f"run.py: harness error: {exc}", file=sys.stderr)
        return 1
    (OUT_DIR / "result.json").write_text(json.dumps(result, indent=1))
    print_metrics(result)
    print(final_line(bench, result, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
