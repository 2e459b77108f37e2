"""Figure 15: storage area vs wire area of the fully buffered crossbar.

Regenerates both curves over a radix sweep (v = 4, 0.10 um constants)
and checks the paper's anchor: wire area dominates at low radix, but
storage grows quadratically and overtakes it at radix ~50.
"""

from common import save_table

from repro.core.config import RouterConfig
from repro.harness.report import format_table
from repro.models.area import AreaModel, area_sweep, storage_crossover_radix

RADICES = (8, 16, 32, 48, 64, 96, 128, 192, 256)
CFG = RouterConfig(radix=8, num_vcs=4, subswitch_size=1)


def test_fig15_storage_vs_wire_area():
    rows = area_sweep("buffered", RADICES, CFG)
    crossover = storage_crossover_radix("buffered", CFG)

    table = format_table(
        ["radix", "storage area (mm^2)", "wire area (mm^2)"],
        [(k, f"{s:.1f}", f"{w:.1f}") for k, s, w in rows],
        title="Figure 15: fully buffered crossbar area (v=4, 0.10um)",
    )
    table += f"\n\nstorage/wire crossover radix: {crossover}"
    save_table("fig15_area", table)

    # "For a radix greater than 50, storage area exceeds wire area."
    assert 40 <= crossover <= 60
    by_k = {k: (s, w) for k, s, w in rows}
    assert by_k[16][0] < by_k[16][1]  # wire dominates at low radix
    assert by_k[128][0] > by_k[128][1]  # storage dominates at high radix
    # Storage area grows quadratically (x4 radix -> ~x16 crosspoints).
    assert by_k[256][0] / by_k[64][0] > 10
