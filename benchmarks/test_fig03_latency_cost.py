"""Figure 3: (a) network latency and (b) network cost versus radix.

Regenerates both curves for the 2003 and 2010 technologies and checks
the paper's claims: latency is U-shaped with its minimum at the optimal
radix (~40 for 2003, ~127 for 2010); cost decreases monotonically with
radix; and the 2010 network costs more than the 2003 one because it has
more nodes (footnote 4).
"""

from common import save_table

from repro.harness.report import format_table
from repro.models.cost import network_cost
from repro.models.latency import optimal_radix, packet_latency
from repro.models.technology import TECH_2003, TECH_2010

RADICES = list(range(8, 260, 8))


def test_fig03_latency_and_cost_vs_radix():
    rows = []
    for k in RADICES:
        rows.append((
            k,
            packet_latency(k, TECH_2003) * 1e9,
            packet_latency(k, TECH_2010) * 1e9,
            network_cost(k, TECH_2003, unit_cost=1000.0),
            network_cost(k, TECH_2010, unit_cost=1000.0),
        ))

    table = format_table(
        ["radix", "latency 2003 (ns)", "latency 2010 (ns)",
         "cost 2003 (k channels)", "cost 2010 (k channels)"],
        [(k, f"{l3:.1f}", f"{l10:.1f}", f"{c3:.2f}", f"{c10:.2f}")
         for k, l3, l10, c3, c10 in rows],
        title="Figure 3: latency (a) and cost (b) vs radix",
    )
    save_table("fig03_latency_cost", table)

    lat03 = {k: l for k, l, _, _, _ in rows}
    lat10 = {k: l for k, _, l, _, _ in rows}
    cost03 = [c for *_, c, _ in rows]
    cost10 = [c for *_, c in rows]

    # (a) U-shape with minima near the Figure 2 optima.
    best03 = min(lat03, key=lat03.get)
    best10 = min(lat10, key=lat10.get)
    assert abs(best03 - optimal_radix(TECH_2003)) <= 8
    assert abs(best10 - optimal_radix(TECH_2010)) <= 8
    assert lat03[RADICES[0]] > lat03[best03]
    assert lat03[RADICES[-1]] > lat03[best03]

    # (b) cost decreases monotonically; 2010 above 2003.
    assert cost03 == sorted(cost03, reverse=True)
    assert cost10 == sorted(cost10, reverse=True)
    assert all(c10 > c03 for c03, c10 in zip(cost03, cost10))
