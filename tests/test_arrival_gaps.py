"""``next_gap`` draws the per-cycle processes, in distribution.

The simulator draws each packet's gap (the cycles missed before it) in
one go instead of polling the process every cycle, so a run is the
polled process in distribution, not in bytes.  These are chi-square
tests with fixed seeds and a fixed significance (0.1%):

* Bernoulli gaps against the analytic geometric pmf,
  P(gap = k) = (1 - p)**k * p, at 10**6 draws per rate;
* Bernoulli and ON/OFF gaps against the gaps of the polled chain
  (``tests/polling.py``), two-sample, over 4 * 10**5 polled cycles —
  2 * 10**6 at p = 1e-4, for 200 gaps, where 10**6 gaps would take
  10**10 polls.

ON/OFF gaps are independent draws: after each packet one draw at
1/avg_burst decides the next gap's starting state, whatever came
before, so a histogram test applies to them as to Bernoulli's.
"""

import math
import random
from collections import Counter
from typing import Dict, List, Sequence, Tuple

import pytest

from repro.traffic.injection import Bernoulli, MarkovOnOff
from tests.polling import polled_gaps

#: Upper-tail standard normal quantile of the 0.1% significance.
Z_999 = 3.0902


def chi2_critical(dof: int) -> float:
    """The 99.9th percentile of chi-square with ``dof`` degrees of
    freedom (Wilson-Hilferty: 3% above the exact value at 1 dof, 1%
    at 5, 0.1% at 40)."""
    h = 2.0 / (9.0 * dof)
    return dof * (1.0 - h + Z_999 * math.sqrt(h)) ** 3


def quantile_edges(p: float, bins: int, n: int) -> List[int]:
    """Left edges of at most ``bins`` geometric(p) bins for ``n``
    draws: edge j is the smallest k with P(gap < k) >= j / bins, and
    at a high ``p``, where those collapse onto a few values, every
    single value k whose tail P(gap >= k) still expects 50 draws."""
    edges = {
        math.ceil(math.log1p(-j / bins) / math.log1p(-p))
        for j in range(bins)
    }
    edges.update(k for k in range(bins) if n * (1.0 - p) ** k >= 50)
    return sorted(edges)


def binned(gaps: Sequence[int], edges: Sequence[int]) -> List[int]:
    """Counts of ``gaps`` in [edges[j], edges[j + 1]) (the last bin
    open-ended)."""
    counts = [0] * len(edges)
    tally = Counter(gaps)
    for gap, n in tally.items():
        lo, hi = 0, len(edges) - 1
        while lo < hi:  # last edge <= gap
            mid = (lo + hi + 1) // 2
            if edges[mid] <= gap:
                lo = mid
            else:
                hi = mid - 1
        counts[lo] += n
    return counts


def geometric_mass(p: float, edges: Sequence[int]) -> List[float]:
    """P(gap in bin j) for the bins of :func:`binned`."""
    survival = [(1.0 - p) ** k for k in edges] + [0.0]
    return [survival[j] - survival[j + 1] for j in range(len(edges))]


def goodness_of_fit(counts: Sequence[int], mass: Sequence[float]
                    ) -> Tuple[float, int]:
    """(chi-square statistic, degrees of freedom) of ``counts``
    against the bin probabilities ``mass``."""
    total = sum(counts)
    stat = sum((n - total * q) ** 2 / (total * q)
               for n, q in zip(counts, mass))
    return stat, len(counts) - 1


def two_sample(a: Sequence[int], b: Sequence[int]) -> Tuple[float, int]:
    """(chi-square statistic, degrees of freedom) of two gap samples
    being one distribution: bins are single gap values, the tail
    pooled until every bin holds at least 10 of both together."""
    ca, cb = Counter(a), Counter(b)
    na, nb = len(a), len(b)
    cells: List[Tuple[int, int]] = []
    pending = [0, 0]
    for gap in sorted(set(ca) | set(cb)):
        pending[0] += ca.get(gap, 0)
        pending[1] += cb.get(gap, 0)
        if sum(pending) >= 10:
            cells.append((pending[0], pending[1]))
            pending = [0, 0]
    if sum(pending):
        last = cells.pop() if cells else (0, 0)
        cells.append((last[0] + pending[0], last[1] + pending[1]))
    ka, kb = math.sqrt(nb / na), math.sqrt(na / nb)
    stat = sum((x * ka - y * kb) ** 2 / (x + y) for x, y in cells)
    return stat, len(cells) - 1


def drawn_gaps(process, rng: random.Random, n: int) -> List[int]:
    draw = process.next_gap
    return [draw(rng) for _ in range(n)]


@pytest.mark.parametrize("p", [1e-4, 0.05, 0.5, 0.95])
def test_bernoulli_gaps_are_geometric(p):
    gaps = drawn_gaps(Bernoulli(p), random.Random(20260), 10**6)
    edges = quantile_edges(p, 40, len(gaps))
    stat, dof = goodness_of_fit(binned(gaps, edges), geometric_mass(p, edges))
    assert dof >= 3
    assert stat < chi2_critical(dof), (p, stat, dof)


def test_bernoulli_at_rate_one_fires_every_cycle():
    rng = random.Random(20261)
    state = rng.getstate()
    assert drawn_gaps(Bernoulli(1.0), rng, 10**6) == [0] * 10**6
    assert rng.getstate() == state


#: (label, process factory): the polled chains compared with their
#: drawn gaps.  Rates span Bernoulli's range; the ON/OFF cases are
#: Table 1's bursts at full peak rate, bursts at a partial one, and
#: short bursts with short OFF dwells, where most gaps start OFF (so
#: an OFF cycle that turns ON trying for its packet in that same
#: cycle, or not, shows).
ORACLE_CASES: Dict[str, object] = {
    "bernoulli-1e-4": lambda: Bernoulli(1e-4),
    "bernoulli-0.05": lambda: Bernoulli(0.05),
    "bernoulli-0.5": lambda: Bernoulli(0.5),
    "bernoulli-0.95": lambda: Bernoulli(0.95),
    "onoff-table1": lambda: MarkovOnOff(0.2, peak_rate=1.0, avg_burst=8.0),
    "onoff-partial-peak": lambda: MarkovOnOff(0.1, peak_rate=0.5,
                                              avg_burst=3.0),
    "onoff-short-bursts": lambda: MarkovOnOff(0.3, peak_rate=0.6,
                                              avg_burst=1.5),
}


@pytest.mark.parametrize("label", sorted(ORACLE_CASES))
def test_drawn_gaps_are_the_polled_gaps(label):
    make = ORACLE_CASES[label]
    polls = 2 * 10**6 if label == "bernoulli-1e-4" else 4 * 10**5
    polled = polled_gaps(make(), random.Random(20262), polls)
    assert len(polled) >= 150
    drawn = drawn_gaps(make(), random.Random(20263), len(polled))
    stat, dof = two_sample(polled, drawn)
    assert dof >= 1
    assert stat < chi2_critical(dof), (label, stat, dof)
    # The two samples also agree on the long-run rate: their means lie
    # within 4 standard errors of each other.
    n = len(polled)
    mean_p, mean_d = sum(polled) / n, sum(drawn) / n
    spread = sum((g - mean_p) ** 2 for g in polled + drawn) / (2 * n)
    assert abs(mean_p - mean_d) <= 4.0 * math.sqrt(2.0 * spread / n)
