"""Shared infrastructure for the figure-regeneration benchmarks.

Every benchmark regenerates one table or figure from the paper: it runs
the corresponding experiment, renders the same series the paper plots
as a text table, writes it to ``benchmarks/results/``, and asserts the
paper's qualitative claims (who wins, by roughly what factor, where the
crossovers fall).  Absolute cycle counts are not expected to match the
authors' C simulator.

Scale control: set ``REPRO_SCALE=paper`` for the paper's radix-64
configuration with long measurement windows (slow in pure Python), or
leave the default ``fast`` scale — radix 32 with the same v=4, p=8,
m=8 structure and shorter windows — which preserves every qualitative
result.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.core.config import RouterConfig
from repro.harness.experiment import SweepSettings

RESULTS_DIR = Path(__file__).parent / "results"

#: Offered-load points for latency-load curves.
LOADS = (0.1, 0.3, 0.5, 0.7, 0.9)

SCALE = os.environ.get("REPRO_SCALE", "fast")

if SCALE == "paper":
    #: The paper's evaluation point: radix 64, 4 VCs, p=8, m=8.
    BASE_CONFIG = RouterConfig(radix=64)
    SETTINGS = SweepSettings(warmup=5000, measure=5000, drain=50000)
    SAT_SETTINGS = SweepSettings(warmup=5000, measure=5000, drain=200)
    LOW_RADIX = 16
    NETWORK_SCALE = dict(high_radix=16, high_levels=2, low_radix=8,
                         low_levels=3)
else:
    #: Reduced scale: radix 32 keeps the k/p = 4 subswitch grid and
    #: m = 8 arbitration groups of the paper's design point.
    BASE_CONFIG = RouterConfig(radix=32)
    SETTINGS = SweepSettings(warmup=800, measure=1200, drain=20000)
    SAT_SETTINGS = SweepSettings(warmup=800, measure=1200, drain=100)
    LOW_RADIX = 16
    NETWORK_SCALE = dict(high_radix=16, high_levels=2, low_radix=8,
                         low_levels=3)


def save_table(name: str, text: str) -> None:
    """Write a regenerated figure table under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    # Also echo to stdout so `pytest -s` shows it inline.
    print()
    print(text)


def paired_best(leg_a, leg_b, rounds=3, clock=time.perf_counter):
    """Best wall time of two legs run interleaved: a, b, a, b, ...

    This host flips between speed states ~2.4x apart, so a ratio of
    two timings means something only if both legs met the same state:
    every round runs both back to back, and the two minima come from
    the fastest state either saw.  A leg is a zero-argument callable,
    timed whole, or a ``(setup, body)`` pair whose ``setup()`` runs off
    the clock each round and whose ``body(setup())`` is timed.  What a
    leg returns is its checksum and must not change between rounds.
    Returns ``(best_a, checksum_a), (best_b, checksum_b)``.
    """
    best = [float("inf"), float("inf")]
    checksums = [None, None]
    for round_ in range(rounds):
        for k, leg in enumerate((leg_a, leg_b)):
            setup, body = leg if isinstance(leg, tuple) else (None, leg)
            args = () if setup is None else (setup(),)
            start = clock()
            value = body(*args)
            best[k] = min(best[k], clock() - start)
            if round_ == 0:
                checksums[k] = value
            else:
                assert value == checksums[k], "run is not deterministic"
    return (best[0], checksums[0]), (best[1], checksums[1])
