"""Figure 11: one vs two switch arbiters (prioritized speculation).

Regenerates the four curves of Figure 11 — single and dual arbiters at
1 VC and at 4 VCs — on uniform random traffic with 10-flit packets
under CVA (as in the paper: "our evaluation uses only 10-flit packets
... these simulations use CVA").

Paper claims checked:
* with one VC, prioritizing nonspeculative requests raises saturation
  throughput (the paper reports ~10%) and lowers latency;
* with four VCs the advantage (nearly) disappears — multiple VCs
  already prevent most of the speculative bandwidth loss.
"""

from common import BASE_CONFIG, SAT_SETTINGS, SETTINGS, save_table

from repro.harness.experiment import run_load_sweep, saturation_throughput
from repro.harness.report import format_sweeps
from repro.routers.distributed import DistributedRouter

PACKET = 10
LOADS = (0.2, 0.4, 0.6)

V1 = BASE_CONFIG.with_(num_vcs=1, input_buffer_depth=32)
V1P = V1.with_(prioritize_nonspeculative=True)
V4 = BASE_CONFIG.with_(num_vcs=4, input_buffer_depth=32)
V4P = V4.with_(prioritize_nonspeculative=True)


def test_fig11_prioritized_allocation():
    sweeps = {
        "1VC one-arb": run_load_sweep(
            DistributedRouter, V1, LOADS, label="1VC one-arb",
            packet_size=PACKET, settings=SETTINGS),
        "1VC two-arb": run_load_sweep(
            DistributedRouter, V1P, LOADS, label="1VC two-arb",
            packet_size=PACKET, settings=SETTINGS),
        "4VC one-arb": run_load_sweep(
            DistributedRouter, V4, LOADS, label="4VC one-arb",
            packet_size=PACKET, settings=SETTINGS),
        "4VC two-arb": run_load_sweep(
            DistributedRouter, V4P, LOADS, label="4VC two-arb",
            packet_size=PACKET, settings=SETTINGS),
    }
    sats = {
        name: saturation_throughput(
            DistributedRouter, cfg, packet_size=PACKET,
            settings=SAT_SETTINGS)
        for name, cfg in [("1VC one-arb", V1), ("1VC two-arb", V1P),
                          ("4VC one-arb", V4), ("4VC two-arb", V4P)]
    }

    table = format_sweeps(
        [sweeps["1VC one-arb"], sweeps["1VC two-arb"]],
        title="Figure 11(a): 1 VC, one vs two arbiters "
              "(uniform random, 10-flit packets, CVA)",
    )
    table += "\n\n" + format_sweeps(
        [sweeps["4VC one-arb"], sweeps["4VC two-arb"]],
        title="Figure 11(b): 4 VCs, one vs two arbiters",
    )
    table += "\n\nsaturation throughput:\n" + "\n".join(
        f"  {name:14s} {thpt:.3f}" for name, thpt in sats.items()
    )
    save_table("fig11_prioritized", table)

    # (a) Prioritization clearly helps with a single VC.
    gain_1vc = sats["1VC two-arb"] - sats["1VC one-arb"]
    assert gain_1vc > 0.05
    # (b) ... and buys much less with four VCs.
    gain_4vc = sats["4VC two-arb"] - sats["4VC one-arb"]
    assert gain_4vc < gain_1vc
    assert gain_4vc < 0.08
    # "Using multiple VCs gives adequate throughput without the
    # complexity of a prioritized switch allocator."
    assert sats["4VC one-arb"] > sats["1VC one-arb"]
