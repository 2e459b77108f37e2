#!/usr/bin/env python3
"""Quickstart: simulate one high-radix router and read off its numbers.

Builds the paper's proposed hierarchical crossbar router (Section 6) at
a reduced radix, offers it uniform random traffic at a few loads, and
prints the latency-load curve plus the saturation throughput — the same
measurements behind Figure 17(a).

Run:
    python examples/quickstart.py
"""

from repro import (
    HierarchicalCrossbarRouter,
    RouterConfig,
    SweepSettings,
    SwitchSimulation,
)

def main() -> None:
    # Radix-32 instance of the paper's design point: 4 virtual
    # channels, 8x8 subswitches, 4-cycle switch traversal per flit.
    config = RouterConfig(radix=32, num_vcs=4, subswitch_size=8)
    settings = SweepSettings(warmup=500, measure=1000, drain=10000)

    print(f"hierarchical crossbar: radix {config.radix}, "
          f"{config.num_vcs} VCs, subswitch {config.subswitch_size}")
    print(f"{'load':>6} {'avg latency':>12} {'throughput':>11}")

    for load in (0.1, 0.3, 0.5, 0.7, 0.9):
        router = HierarchicalCrossbarRouter(config)
        sim = SwitchSimulation(router, load=load)
        result = sim.run(settings)
        marker = "  (saturated)" if result.saturated else ""
        print(f"{load:>6.1f} {result.avg_latency:>12.1f} "
              f"{result.throughput:>11.3f}{marker}")

    # Saturation throughput: drive the router at full offered load.
    router = HierarchicalCrossbarRouter(config)
    sim = SwitchSimulation(router, load=1.0)
    result = sim.run(SweepSettings(warmup=500, measure=1000, drain=100))
    print(f"\nsaturation throughput: {result.throughput:.3f} of capacity")


if __name__ == "__main__":
    main()
