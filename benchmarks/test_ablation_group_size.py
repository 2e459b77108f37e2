"""Ablation (Section 4.1): local arbitration group size m.

The distributed switch allocator arbitrates locally over groups of m
inputs and then globally over k/m local winners (Figure 6; the paper
uses m = 8, chosen so "each stage can fit in a clock cycle").  The
group size trades wiring locality against arbitration fairness; this
ablation shows throughput is robust across group sizes — the reason the
paper can pick m for circuit-level convenience.
"""

from common import BASE_CONFIG, SAT_SETTINGS, save_table

from repro.harness.experiment import saturation_throughput
from repro.harness.report import format_table
from repro.routers.distributed import DistributedRouter

GROUP_SIZES = (2, 4, 8, 16)


def test_ablation_local_group_size():
    sats = {
        m: saturation_throughput(
            DistributedRouter,
            BASE_CONFIG.with_(local_group_size=m),
            settings=SAT_SETTINGS,
        )
        for m in GROUP_SIZES
    }

    table = format_table(
        ["local group size m", "saturation throughput"],
        [(m, f"{t:.3f}") for m, t in sats.items()],
        title="Ablation: distributed allocator local group size",
    )
    save_table("ablation_group_size", table)

    values = list(sats.values())
    assert max(values) - min(values) < 0.08
    for t in values:
        assert t > 0.4
