#!/usr/bin/env python3
"""Closed-loop decode traffic: step time vs all-reduce message size.

Tensor-parallel transformer decode is a *dependency-driven* workload:
every layer runs an attention all-reduce then an MLP all-reduce, and a
rank only enters the next phase once the previous one has delivered —
so the interesting metric is not latency at a fixed offered load but
the *decode step time* that emerges from the fabric.  This example
sweeps the all-reduce message size on a 2-level folded Clos, runs the
DAG to completion (idle spans fast-forwarded), and persists the
raw results as JSON via ``repro.harness.persistence`` (then reloads
them, proving the round trip) so the sweep can be re-plotted without
re-simulating.

Run:
    python examples/decode_sweep.py [results.json]
"""

import sys

from repro import FoldedClos, NetworkConfig, NetworkSimulation
from repro.harness.experiment import SweepResult
from repro.harness.persistence import load_sweeps, save_sweeps
from repro.harness.report import format_table
from repro.workloads import transformer_decode

RADIX = 8
LEVELS = 2
LAYERS = 2
STEPS = 2
GAP = 8  # compute cycles between collective phases
SIZES = (1, 2, 4, 8)  # all-reduce chunk size in flits


def main() -> None:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "decode_sweep.json"
    topo = FoldedClos(RADIX, LEVELS)
    ranks = topo.num_hosts
    print(f"decode workload: {ranks} ranks on a {LEVELS}-level "
          f"radix-{RADIX} Clos ({topo.num_switches} switches), "
          f"{STEPS} steps x {LAYERS} layers x 2 all-reduces")

    sweep = SweepResult(label=f"decode-clos{RADIX}x{LEVELS}")
    for size in SIZES:
        cfg = NetworkConfig(radix=RADIX, levels=LEVELS, num_vcs=2, seed=7)
        sim = NetworkSimulation(
            cfg,
            workload=transformer_decode(
                ranks, layers=LAYERS, steps=STEPS, size=size, gap=GAP,
            ),
        )
        result = sim.run_workload()
        # The sweep axis is message size, not offered load; stash it
        # in the extras so the JSON stays self-describing.
        result.extra["message_size"] = float(size)
        sweep.results.append(result)

    save_sweeps(out_path, [sweep], metadata={
        "workload": "transformer-decode",
        "radix": RADIX, "levels": LEVELS,
        "layers": LAYERS, "steps": STEPS, "gap": GAP,
    })
    reloaded = load_sweeps(out_path)[0]
    assert [r.extra for r in reloaded.results] == \
        [r.extra for r in sweep.results], "persistence round trip drifted"
    print(f"persisted {len(sweep.results)} runs to {out_path} "
          "(reloaded byte-equivalent)\n")

    rows = []
    for r in reloaded.results:
        step = r.extra["stats.workload.step_mean"]
        rows.append([
            f"{int(r.extra['message_size'])}",
            f"{int(r.extra['stats.workload.makespan'])}",
            f"{step:.0f}",
            f"{r.extra['stats.workload.step_max']:.0f}",
            f"{r.extra['stats.workload.skew_max']:.0f}",
            f"{r.avg_latency:.1f}",
        ])
    print(format_table(
        ["size (flits)", "makespan", "step mean", "step max",
         "skew max", "msg latency"],
        rows,
    ))
    print("\nStep time grows with message size long before any "
          "open-loop sweep would call the fabric saturated — the "
          "dependency chain serializes the collectives.")


if __name__ == "__main__":
    main()
