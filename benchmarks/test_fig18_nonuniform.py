"""Figure 18: nonuniform traffic (diagonal, hotspot, bursty; Table 1).

Regenerates the saturation behaviour of the baseline, fully buffered,
and hierarchical (p=8) routers under the three nonuniform patterns of
Table 1 with single-flit packets.

Paper claims checked:
* diagonal: the hierarchical crossbar exceeds the baseline's
  throughput (by ~10% in the paper);
* hotspot (h=8, 50%): all three architectures saturate below ~40% of
  capacity — the oversubscribed outputs are the bottleneck;
* bursty (Markov ON/OFF, average burst 8): hierarchical and fully
  buffered reach near-full throughput while the baseline saturates
  around half, and the hierarchical crossbar's two stages of buffering
  let it match or beat the fully buffered crossbar.
"""

from common import BASE_CONFIG, SAT_SETTINGS, save_table

from repro.harness.experiment import saturation_throughput
from repro.harness.report import format_table
from repro.routers.buffered import BufferedCrossbarRouter
from repro.routers.distributed import DistributedRouter
from repro.routers.hierarchical import HierarchicalCrossbarRouter
from repro.traffic.patterns import Diagonal, Hotspot, UniformRandom

ARCHS = (
    ("baseline", DistributedRouter, BASE_CONFIG),
    ("fully-buffered", BufferedCrossbarRouter, BASE_CONFIG),
    ("hierarchical p=8", HierarchicalCrossbarRouter,
     BASE_CONFIG.with_(subswitch_size=8)),
)


def test_fig18_nonuniform_traffic():
    k = BASE_CONFIG.radix
    results = {}
    for name, cls, cfg in ARCHS:
        results[("diagonal", name)] = saturation_throughput(
            cls, cfg, settings=SAT_SETTINGS,
            pattern_factory=lambda c: Diagonal(k))
        results[("hotspot", name)] = saturation_throughput(
            cls, cfg, settings=SAT_SETTINGS,
            pattern_factory=lambda c: Hotspot(k, num_hotspots=8,
                                              hot_fraction=0.5))
        results[("bursty", name)] = saturation_throughput(
            cls, cfg, settings=SAT_SETTINGS,
            pattern_factory=lambda c: UniformRandom(k),
            injection="onoff")

    rows = []
    for pattern in ("diagonal", "hotspot", "bursty"):
        for name, _, _ in ARCHS:
            rows.append((pattern, name, f"{results[(pattern, name)]:.3f}"))
    table = format_table(
        ["pattern", "architecture", "saturation throughput"],
        rows,
        title="Figure 18: nonuniform traffic (Table 1 patterns, "
              "1-flit packets, k=%d, v=4, p=8)" % BASE_CONFIG.radix,
    )
    save_table("fig18_nonuniform", table)

    # (a) Diagonal: hierarchical beats the baseline.
    assert results[("diagonal", "hierarchical p=8")] > results[
        ("diagonal", "baseline")] + 0.05

    # (b) Hotspot: every architecture saturates under ~40% + margin.
    for name, _, _ in ARCHS:
        assert results[("hotspot", name)] < 0.5

    # (c) Bursty: buffered designs near full throughput; baseline ~half.
    assert results[("bursty", "fully-buffered")] > 0.85
    assert results[("bursty", "hierarchical p=8")] > 0.85
    assert results[("bursty", "baseline")] < 0.7
    # Hierarchical handles bursts at least as well as fully buffered
    # (two stages of buffering), within noise.
    assert results[("bursty", "hierarchical p=8")] > results[
        ("bursty", "fully-buffered")] - 0.03
