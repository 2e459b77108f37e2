#!/usr/bin/env python3
"""Instrument and validate a router run.

Shows the developer-facing tooling around the simulator:

* ``CheckedRouter`` wraps any switch model and raises at the exact
  cycle an invariant breaks (conservation, packet order, VC
  discipline, output bandwidth) — the first thing to reach for when
  developing a new router microarchitecture;
* ``MetricsCollector`` gathers latency histograms, per-output load
  balance, and buffer-occupancy behaviour that the headline
  latency/throughput numbers hide.

Run:
    python examples/debug_with_metrics.py [--load 0.85]
"""

import argparse

from repro import RouterConfig, SwitchSimulation
from repro.harness.metrics import MetricsCollector
from repro.harness.validation import CheckedRouter
from repro.routers.hierarchical import HierarchicalCrossbarRouter


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--load", type=float, default=0.85)
    parser.add_argument("--cycles", type=int, default=3000)
    args = parser.parse_args()

    config = RouterConfig(radix=16, subswitch_size=4, local_group_size=4)
    router = CheckedRouter(HierarchicalCrossbarRouter(config))
    sim = SwitchSimulation(router, load=args.load)
    metrics = MetricsCollector(config.radix, sample_every=8).attach(sim)
    sim.run_until(args.cycles)

    # Drain so the conservation check can complete.
    sim.stop_sources()
    for _ in range(20000):
        sim.step()
        if router.idle() and all(not s.backlog() for s in sim.sources):
            break
    router.assert_drained()

    print(f"hierarchical crossbar, radix {config.radix}, "
          f"load {args.load}: all invariants held over "
          f"{router.violations_checked} checked deliveries\n")
    print(metrics.summary())


if __name__ == "__main__":
    main()
