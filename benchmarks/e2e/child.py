"""Long-lived worker of one workload, driven over stdin/stdout.

``run.py`` starts one of these per workload (so peak RSS and warm
caches are per workload) and sends one JSON command per line; the
child answers each with one JSON line:

``{"op": "rep"}``    one timed rep under the calibration sampler
``{"op": "trace"}``  one rep with the tracing wrappers installed
``{"op": "twin"}``   the workload's byte-identical twin (if it has one)
``{"op": "quit"}``   report peak RSS and exit

With ``--probe`` the process instead builds the workload's simulation
once, runs no cycle, and exits: the cold-start that ``setup_s`` times.

Shard workers are spawned processes that re-import this module as
``__mp_main__``; it must stay free of import-time side effects.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
import traceback
import zlib
from pathlib import Path
from typing import Any, Dict

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"


def _add_paths() -> None:
    for path in (str(HERE), str(HERE.parents[1] / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def row_of(result: Any) -> Dict[str, Any]:
    """The persisted row plus sorted extras, NaN-normalised to None."""
    from repro.harness.persistence import result_to_dict

    row = result_to_dict(result)
    row["extra"] = {
        name: (value if math.isfinite(value) else None)
        for name, value in sorted(row["extra"].items())
    }
    return row


def crc_of(row: Dict[str, Any]) -> int:
    return zlib.crc32(json.dumps(row, sort_keys=True).encode())


class Worker:
    """Runs reps of one workload at one seed."""

    def __init__(self, name: str, seed: int, scale: float) -> None:
        import workloads

        self.spec = workloads.SPECS[name]
        self.seed = seed
        self.scale = scale
        OUT_DIR.mkdir(exist_ok=True)
        self.row_path = OUT_DIR / f"row-{name}.json"

    def one_rep(self, span=None):
        """Build, run, summarize, persist: one sweep point, start to row."""
        from repro.core.flit import reset_packet_ids
        from repro.harness import persistence
        from repro.harness.experiment import SweepResult

        import workloads

        reset_packet_ids()
        sim = self.spec.build(self.seed, self.scale, span or workloads.no_span)
        try:
            result = self.spec.run(sim, self.scale)
        finally:
            close = getattr(sim, "close", None)
            if close is not None:
                close()
        persistence.save_sweeps(
            self.row_path,
            [SweepResult(label=self.spec.name, results=[result])],
            metadata={"seed": self.seed, "scale": self.scale},
        )
        return sim, result

    def describe(self, sim: Any, result: Any) -> Dict[str, Any]:
        """What the parent needs of a finished run (outside the clock)."""
        row = row_of(result)
        topology = getattr(sim, "topology", None)
        return {
            "row": row,
            "crc": crc_of(row),
            "cycles": result.cycles,
            "flits": self.spec.flits(sim, result),
            "failures": self.spec.check(result),
            "switches": (
                0 if topology is None else len(list(topology.switch_ids()))
            ),
            "hosts": 0 if topology is None else topology.num_hosts,
        }

    def timed(self, body) -> Dict[str, Any]:
        """``body(sampler)`` -> (sim, result) under the sampler; the
        run's description plus its timings."""
        import calib
        import clock

        gc.collect()
        cpu0 = clock.cpu_total()
        with calib.Sampler() as sampler:
            sim, result = body(sampler)
        # The bursts' CPU is the sampler's, not the rep's.
        cpu = clock.cpu_total() - cpu0 - sum(s[2] for s in sampler.samples)
        reply = self.describe(sim, result)
        reply.update(
            raw_wall_s=sampler.raw_s,
            cal_wall_s=sampler.cal_s,
            raw_cpu_s=cpu,
            cal_cpu_s=cpu * sampler.factor,
            bursts=len(sampler.samples),
        )
        return reply

    def op_rep(self) -> Dict[str, Any]:
        return self.timed(lambda sampler: self.one_rep())

    def op_twin(self) -> Dict[str, Any]:
        def body(sampler):
            from repro.core.flit import reset_packet_ids

            reset_packet_ids()
            sim = self.spec.twin(self.seed)
            return sim, self.spec.run(sim, self.scale)

        return self.timed(body)

    def op_trace(self) -> Dict[str, Any]:
        """One rep with the wrappers on, timed on the sampler's body
        clock so the bursts land in no span or leaf."""
        import clock
        import trace

        traced: Dict[str, Any] = {}

        def body(sampler):
            tracer = trace.Tracer(now=sampler.body_clock)
            reaped0 = clock.cpu_reaped()
            tracer.install()
            try:
                with tracer.span("rep") as rep:
                    outcome = self.one_rep(span=tracer.span)
            finally:
                tracer.remove()
            traced.update(
                rep_s=rep.duration,
                leaves=tracer.leaf_totals(0),
                spans=tracer.span_totals(0),
                child_cpu_s=clock.cpu_reaped() - reaped0,
                worker_rss_mb=clock.reaped_peak_rss_mb(),
                trace=tracer.as_dict(),
            )
            return outcome

        reply = self.timed(body)
        path = OUT_DIR / f"trace-{self.spec.name}.json"
        path.write_text(json.dumps(traced.pop("trace")))
        reply.update(
            traced,
            has_twin=self.spec.twin is not None,
            cli_args=(
                None if self.spec.cli_args is None
                else self.spec.cli_args(self.seed, self.scale)
            ),
        )
        return reply

    def serve(self) -> None:
        import clock

        ops = {"rep": self.op_rep, "trace": self.op_trace,
               "twin": self.op_twin}
        try:
            for line in sys.stdin:
                op = json.loads(line)["op"]
                if op == "quit":
                    reply = {"ok": True, "peak_rss_mb": clock.peak_rss_mb()}
                else:
                    try:
                        reply = ops[op]()
                        reply["ok"] = True
                    except Exception:
                        # A failed rep is counted, not fatal: the
                        # parent records the traceback and goes on.
                        reply = {"ok": False,
                                 "error": traceback.format_exc()}
                print(json.dumps(reply), flush=True)
                if op == "quit":
                    break
        finally:
            self.row_path.unlink(missing_ok=True)


def probe(name: str, seed: int, scale: float) -> None:
    """Cold start: import, build the simulation once, run no cycle.

    Samples the host itself while it does, as a rep does, and reports
    the sampled part; the parent times the whole process and scales
    the unsampled rest (interpreter start and exit) by the same factor.
    """
    import calib

    with calib.Sampler() as sampler:
        import workloads

        sim = workloads.SPECS[name].build(seed, scale, workloads.no_span)
        close = getattr(sim, "close", None)
        if close is not None:
            close()
    print(json.dumps({
        "raw_s": sampler.raw_s, "cal_s": sampler.cal_s,
        "burst_s": sum(end - start for start, end, _ in sampler.samples),
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    _add_paths()
    if args.probe:
        probe(args.workload, args.seed, args.scale)
    else:
        Worker(args.workload, args.seed, args.scale).serve()
    return 0


if __name__ == "__main__":
    sys.exit(main())
