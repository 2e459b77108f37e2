"""Figure 13: latency vs offered load for the fully buffered crossbar.

Regenerates the three curves (low-radix centralized router, high-radix
distributed baseline with CVA, fully buffered crossbar) on uniform
random single-flit traffic.

Paper claims checked:
* the fully buffered crossbar maintains low latency at low load and
  saturates near 100% of capacity (head-of-line blocking eliminated,
  input and output arbitration decoupled);
* both other organizations saturate far below it.
"""

from common import (
    BASE_CONFIG,
    LOADS,
    LOW_RADIX,
    SAT_SETTINGS,
    SETTINGS,
    save_table,
)

from repro.harness.experiment import run_load_sweep, saturation_throughput
from repro.harness.report import format_sweeps
from repro.routers.baseline import BaselineRouter
from repro.routers.buffered import BufferedCrossbarRouter
from repro.routers.distributed import DistributedRouter

LOW_CONFIG = BASE_CONFIG.with_(
    radix=LOW_RADIX, subswitch_size=4, local_group_size=4
)


def test_fig13_fully_buffered():
    sweeps = [
        run_load_sweep(BaselineRouter, LOW_CONFIG, LOADS,
                       label="low-radix", settings=SETTINGS),
        run_load_sweep(DistributedRouter, BASE_CONFIG, LOADS,
                       label="baseline", settings=SETTINGS),
        run_load_sweep(BufferedCrossbarRouter, BASE_CONFIG, LOADS,
                       label="fully-buffered", settings=SETTINGS),
    ]
    sats = {
        "baseline": saturation_throughput(
            DistributedRouter, BASE_CONFIG, settings=SAT_SETTINGS),
        "fully-buffered": saturation_throughput(
            BufferedCrossbarRouter, BASE_CONFIG, settings=SAT_SETTINGS),
    }

    table = format_sweeps(
        sweeps,
        title="Figure 13: latency vs offered load, fully buffered "
              "crossbar (uniform random, 1-flit packets, CVA)",
    )
    table += "\n\nsaturation throughput:\n" + "\n".join(
        f"  {name:16s} {thpt:.3f}" for name, thpt in sats.items()
    )
    save_table("fig13_buffered", table)

    # Near-100% saturation for the fully buffered crossbar.
    assert sats["fully-buffered"] > 0.90
    # Large gap over the unbuffered distributed baseline.
    assert sats["fully-buffered"] > sats["baseline"] + 0.25
    # Low latency maintained at low offered loads.
    buffered = sweeps[2]
    assert buffered.results[0].avg_latency < 3 * BASE_CONFIG.flit_cycles + 20
