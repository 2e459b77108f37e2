#!/usr/bin/env python3
"""Instrument and validate a router run.

Shows the developer-facing tooling around the simulator:

* ``sanitize=True`` attaches a ``SimSanitizer`` that observes any
  switch model and raises at the exact cycle an invariant breaks
  (conservation, packet order, VC discipline, output bandwidth,
  credits, buffer bounds) — the first thing to reach for when
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
from repro.routers.hierarchical import HierarchicalCrossbarRouter


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--load", type=float, default=0.85)
    parser.add_argument("--cycles", type=int, default=3000)
    args = parser.parse_args()

    config = RouterConfig(radix=16, subswitch_size=4, local_group_size=4)
    sim = SwitchSimulation(HierarchicalCrossbarRouter(config),
                           load=args.load, sanitize=True)
    metrics = MetricsCollector(config.radix, sample_every=8).attach(sim)
    sim.run_until(args.cycles)

    # Drain so the conservation check can complete.
    sim.stop_sources()
    for _ in range(20000):
        sim.step()
        if sim.router.idle() and all(not s.backlog() for s in sim.sources):
            break
    sim.sanitizer.assert_drained()

    print(f"hierarchical crossbar, radix {config.radix}, "
          f"load {args.load}: all invariants held over "
          f"{sim.sanitizer.violations_checked} checked deliveries\n")
    print(metrics.summary())


if __name__ == "__main__":
    main()
