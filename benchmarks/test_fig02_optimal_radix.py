"""Figure 2: latency-optimal radix versus router aspect ratio.

Regenerates the k*(A) curve of Equation 3 together with the four
annotated technology points, and checks the paper's anchors: the 2003
technology (A ~ 554) optimizes at radix ~40 and the 2010 technology
(A ~ 2978) at radix ~127.
"""

from common import save_table

from repro.harness.report import format_table
from repro.models.latency import optimal_radix, optimal_radix_continuous
from repro.models.technology import ALL_TECHNOLOGIES


def test_fig02_optimal_radix_vs_aspect_ratio():
    curve = []
    aspect = 10.0
    while aspect <= 20000.0:
        curve.append((aspect, optimal_radix_continuous(aspect)))
        aspect *= 1.5
    points = [
        (t.name, t.aspect_ratio, optimal_radix(t))
        for t in ALL_TECHNOLOGIES
    ]

    table = format_table(
        ["aspect ratio", "optimal radix"],
        [(f"{a:.0f}", f"{k:.1f}") for a, k in curve],
        title="Figure 2: optimal radix vs aspect ratio (k ln^2 k = A)",
    )
    table += "\n\n" + format_table(
        ["technology", "aspect ratio", "optimal radix"],
        [(n, f"{a:.0f}", k) for n, a, k in points],
    )
    save_table("fig02_optimal_radix", table)

    by_name = {n: (a, k) for n, a, k in points}
    # Paper: A = 554 -> k* = 40 for 2003; A = 2978 -> k* = 127 for 2010.
    assert abs(by_name["2003 (SGI Altix 3000)"][1] - 40) <= 2
    assert abs(by_name["2010 (estimate)"][1] - 127) <= 4
    # The curve is monotonically increasing in the aspect ratio.
    ks = [k for _, k in curve]
    assert ks == sorted(ks)
