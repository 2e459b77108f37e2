"""Ablation (Section 4.2): speculative vs non-speculative VC allocation.

The paper's high-radix routers always speculate ("switch allocation
proceeds before virtual channel allocation is complete to reduce
latency").  This ablation quantifies both sides of that trade-off by
comparing CVA speculation against the serialized alternative in which a
head flit first acquires its output VC and only then bids for the
switch:

* speculation buys zero-load latency (the serialized scheme adds a full
  allocation round-trip to every packet);
* speculation costs saturation throughput (failed speculative winners
  waste switch slots);
* the shared-buffer crossbar of Section 5.4 is also compared, since its
  NACK protocol is yet another answer to the same problem.
"""

from common import BASE_CONFIG, SAT_SETTINGS, SETTINGS, save_table

from repro.harness.experiment import run_load_sweep, saturation_throughput
from repro.harness.report import format_table
from repro.routers.distributed import DistributedRouter
from repro.routers.shared_buffer import SharedBufferCrossbarRouter

SPEC = BASE_CONFIG
NONSPEC = BASE_CONFIG.with_(speculative=False)


def test_ablation_speculation():
    spec_sweep = run_load_sweep(
        DistributedRouter, SPEC, [0.1], label="speculative",
        packet_size=4, settings=SETTINGS)
    nonspec_sweep = run_load_sweep(
        DistributedRouter, NONSPEC, [0.1], label="non-speculative",
        packet_size=4, settings=SETTINGS)
    sats = {
        "speculative (CVA)": saturation_throughput(
            DistributedRouter, SPEC, packet_size=4,
            settings=SAT_SETTINGS),
        "non-speculative": saturation_throughput(
            DistributedRouter, NONSPEC, packet_size=4,
            settings=SAT_SETTINGS),
        "shared-buffer NACK": saturation_throughput(
            SharedBufferCrossbarRouter, BASE_CONFIG, packet_size=4,
            settings=SAT_SETTINGS),
    }
    spec_zero = spec_sweep.zero_load_latency()
    nonspec_zero = nonspec_sweep.zero_load_latency()

    table = format_table(
        ["scheme", "zero-load latency", "saturation throughput"],
        [
            ("speculative (CVA)", f"{spec_zero:.1f}",
             f"{sats['speculative (CVA)']:.3f}"),
            ("non-speculative", f"{nonspec_zero:.1f}",
             f"{sats['non-speculative']:.3f}"),
            ("shared-buffer NACK", "-",
             f"{sats['shared-buffer NACK']:.3f}"),
        ],
        title="Ablation: speculative vs serialized VC allocation "
              "(4-flit packets)",
    )
    save_table("ablation_speculation", table)

    # Speculation reduces zero-load latency.
    assert spec_zero < nonspec_zero
    # All three schemes sustain meaningful throughput.
    for t in sats.values():
        assert t > 0.35
