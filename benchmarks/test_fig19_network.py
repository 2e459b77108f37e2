"""Figure 19: network-level comparison of high- vs low-radix Clos.

Regenerates the latency-load curves of two folded-Clos networks with
the same host count built from high-radix routers (3 unfolded stages)
and low-radix routers (5 unfolded stages), using oblivious routing
(random middle stage) under uniform random traffic — scaled down from
the paper's 4096 nodes per the documented substitution.

Paper claims checked:
* the higher zero-load latency of a single high-radix router is "more
  than offset by the reduced hop count", so the high-radix network has
  lower zero-load latency;
* both networks sustain comparable saturation load.
"""

from common import NETWORK_SCALE, save_table

from repro.harness.report import format_table
from repro.network.netsim import NetworkConfig, NetworkSimulation

LOADS = (0.1, 0.3, 0.5, 0.7)

HIGH = NetworkConfig(
    radix=NETWORK_SCALE["high_radix"], levels=NETWORK_SCALE["high_levels"]
)
LOW = NetworkConfig(
    radix=NETWORK_SCALE["low_radix"], levels=NETWORK_SCALE["low_levels"]
)


def test_fig19_network_comparison():
    curves = {}
    for name, cfg in (("high-radix", HIGH), ("low-radix", LOW)):
        rows = []
        for load in LOADS:
            sim = NetworkSimulation(cfg, load)
            r = sim.run(warmup=800, measure=1000, drain=8000)
            rows.append((load, r.avg_latency, r.throughput, r.saturated))
        curves[name] = rows

    high_hosts = HIGH.radix // 2
    table_rows = []
    for load in LOADS:
        hi = next(r for r in curves["high-radix"] if r[0] == load)
        lo = next(r for r in curves["low-radix"] if r[0] == load)
        table_rows.append((
            load,
            f"{hi[1]:.1f}" + ("*" if hi[3] else ""),
            f"{lo[1]:.1f}" + ("*" if lo[3] else ""),
        ))
    table = format_table(
        ["load", "high-radix (3-stage)", "low-radix (5-stage)"],
        table_rows,
        title=(
            "Figure 19: Clos network latency vs load "
            f"(high: radix {HIGH.radix} x {2 * HIGH.levels - 1} stages, "
            f"low: radix {LOW.radix} x {2 * LOW.levels - 1} stages)"
        ),
    )
    save_table("fig19_network", table)

    high_zero = curves["high-radix"][0][1]
    low_zero = curves["low-radix"][0][1]
    # Lower zero-load latency for the high-radix network.
    assert high_zero < low_zero
    # Both networks carry the offered load up to at least 70%.
    for name in ("high-radix", "low-radix"):
        for load, lat, thpt, saturated in curves[name]:
            assert thpt > load - 0.1
