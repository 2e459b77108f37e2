"""Figure 1: router pin-bandwidth scaling over time.

Regenerates the scatter data and the fitted trend line, and checks the
paper's observation of roughly an order-of-magnitude bandwidth increase
every five years.
"""

from common import save_table

from repro.harness.report import format_table
from repro.models.scaling import (
    ROUTER_SCALING_DATA,
    fit_exponential,
    frontier,
    growth_per_five_years,
    predicted_bandwidth_gbps,
)


def test_fig01_router_scaling():
    rows = [
        (d.year, d.name, d.bandwidth_gbps,
         "frontier" if d.highest_of_era else "")
        for d in sorted(ROUTER_SCALING_DATA, key=lambda d: d.year)
    ]
    a, b = fit_exponential()
    growth_all = growth_per_five_years()
    growth_frontier = growth_per_five_years(frontier())

    table = format_table(
        ["year", "router", "bandwidth (Gb/s)", ""],
        rows,
        title="Figure 1: router bandwidth scaling",
    )
    table += (
        f"\n\nfitted growth (all data):      {growth_all:.1f}x / 5 years"
        f"\nfitted growth (frontier line): {growth_frontier:.1f}x / 5 years"
    )
    save_table("fig01_scaling", table)

    # "There has been an order of magnitude increase in the off-chip
    # bandwidth approximately every five years."
    assert 5.0 < growth_all < 15.0
    assert 7.0 < growth_frontier < 13.0
    # The trend extrapolates to ~20 Tb/s by 2010 within a small factor.
    assert 3000 < predicted_bandwidth_gbps(2010, frontier()) < 80000
