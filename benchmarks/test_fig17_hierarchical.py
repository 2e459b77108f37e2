"""Figure 17: the hierarchical crossbar vs subswitch size.

Regenerates all four panels:

* (a) uniform random traffic — the hierarchical crossbar performs close
  to the fully buffered crossbar even with large subswitches;
* (b) worst-case traffic (all load concentrated on the diagonal
  subswitches) — smaller subswitches win; the hierarchical crossbar
  loses to the fully buffered design but still beats the baseline;
* (c) long packets with *equal total buffer storage* — the hierarchical
  crossbar (p=8, deeper boundary buffers) beats the fully buffered
  crossbar (shallow crosspoint buffers);
* (d) storage bits vs radix — quadratic growth for fully buffered,
  O(k^2/p) for hierarchical.
"""

from common import BASE_CONFIG, SAT_SETTINGS, save_table

from repro.harness.experiment import saturation_throughput
from repro.harness.report import format_table
from repro.models.area import (
    fully_buffered_storage_bits,
    hierarchical_storage_bits,
)
from repro.routers.buffered import BufferedCrossbarRouter
from repro.routers.distributed import DistributedRouter
from repro.routers.hierarchical import HierarchicalCrossbarRouter
from repro.traffic.patterns import UniformRandom, WorstCaseHierarchical

SUBSWITCH_SIZES = (4, 8, 16)
AREA_RADICES = (16, 32, 64, 128, 256)


def _hier(p, **kw):
    return BASE_CONFIG.with_(subswitch_size=p, **kw)


def test_fig17_hierarchical_crossbar():
    uniform = {"baseline": saturation_throughput(
        DistributedRouter, BASE_CONFIG, settings=SAT_SETTINGS)}
    uniform["fully-buffered"] = saturation_throughput(
        BufferedCrossbarRouter, BASE_CONFIG, settings=SAT_SETTINGS)
    for p in SUBSWITCH_SIZES:
        uniform[f"subswitch {p}"] = saturation_throughput(
            HierarchicalCrossbarRouter, _hier(p), settings=SAT_SETTINGS)

    worst = {}
    k = BASE_CONFIG.radix
    worst["baseline"] = saturation_throughput(
        DistributedRouter, BASE_CONFIG, settings=SAT_SETTINGS,
        pattern_factory=lambda c: WorstCaseHierarchical(k, 8))
    worst["fully-buffered"] = saturation_throughput(
        BufferedCrossbarRouter, BASE_CONFIG, settings=SAT_SETTINGS,
        pattern_factory=lambda c: WorstCaseHierarchical(k, 8))
    for p in SUBSWITCH_SIZES:
        worst[f"subswitch {p}"] = saturation_throughput(
            HierarchicalCrossbarRouter, _hier(p),
            settings=SAT_SETTINGS,
            pattern_factory=lambda c, p=p: WorstCaseHierarchical(k, p))

    # (c) equal total buffering, 10-flit packets: the hierarchical
    # crossbar's boundary buffers hold p/2 times a crosspoint
    # buffer's storage (paper footnote 5).
    p = 8
    equal_depth = BASE_CONFIG.crosspoint_buffer_depth * p // 2
    long_fb = saturation_throughput(
        BufferedCrossbarRouter,
        BASE_CONFIG.with_(input_buffer_depth=32),
        packet_size=10, settings=SAT_SETTINGS)
    long_hier = saturation_throughput(
        HierarchicalCrossbarRouter,
        _hier(p, subswitch_input_depth=equal_depth,
              subswitch_output_depth=equal_depth,
              input_buffer_depth=32),
        packet_size=10, settings=SAT_SETTINGS)

    area_rows = []
    for radix in AREA_RADICES:
        row = [radix, fully_buffered_storage_bits(
            BASE_CONFIG.with_(radix=radix, subswitch_size=1))]
        for p2 in (4, 8, 16):
            row.append(hierarchical_storage_bits(
                BASE_CONFIG.with_(radix=radix, subswitch_size=p2)))
        area_rows.append(tuple(row))

    table = format_table(
        ["architecture", "saturation throughput"],
        [(n, f"{t:.3f}") for n, t in uniform.items()],
        title="Figure 17(a): uniform random traffic",
    )
    table += "\n\n" + format_table(
        ["architecture", "saturation throughput"],
        [(n, f"{t:.3f}") for n, t in worst.items()],
        title="Figure 17(b): worst-case traffic",
    )
    table += (
        "\n\nFigure 17(c): 10-flit packets, equal total buffer storage\n"
        f"  fully buffered (4-flit crosspoints): {long_fb:.3f}\n"
        f"  hierarchical p=8 (16-flit buffers):  {long_hier:.3f}"
    )
    table += "\n\n" + format_table(
        ["radix", "fully buffered", "hier p=4", "hier p=8", "hier p=16"],
        [(k, *[f"{b:,}" for b in row]) for k, *row in area_rows],
        title="Figure 17(d): storage bits vs radix",
    )
    save_table("fig17_hierarchical", table)

    # (a) Hierarchical ~ fully buffered on uniform random traffic.
    for p in SUBSWITCH_SIZES:
        assert uniform[f"subswitch {p}"] > uniform["fully-buffered"] - 0.08
    assert uniform["subswitch 8"] > uniform["baseline"] + 0.15

    # (b) Worst case: smaller subswitches win; hier between baseline
    # and fully buffered.
    assert worst["subswitch 4"] >= worst["subswitch 16"]
    assert worst["subswitch 8"] < worst["fully-buffered"] - 0.05
    assert worst["subswitch 8"] > worst["baseline"] + 0.05

    # (c) Equal storage, long packets: hierarchical wins.
    assert long_hier > long_fb

    # (d) Storage ordering and quadratic growth.
    for k, fb, h4, h8, h16 in area_rows:
        assert h16 < h8 < h4 < fb
    fb_by_k = {k: fb for k, fb, *_ in area_rows}
    assert fb_by_k[256] / fb_by_k[64] > 10
