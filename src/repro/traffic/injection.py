"""Packet injection processes.

The paper injects packets "using a Bernoulli process" for its main
results (Section 4.3), and for the bursty experiment of Table 1 uses a
"bursty injection based on a Markov ON/OFF process" with an average
burst length of 8 packets.

Both are per-cycle processes: each cycle, the source generates a
packet or it does not.  Nothing polls them per cycle, though: the
cycles a source misses before its next packet are drawn in one go
(:meth:`InjectionProcess.next_gap`).  The number of misses before a
Bernoulli(p) hit is geometric, so one uniform draw inverts its CDF
directly, and the ON/OFF chain is a sum of geometric dwells.  Rates
are expressed in packets per cycle; the harness converts an offered
load (fraction of channel capacity) into a packet rate via
``rate = load / (flit_cycles * packet_size)``.
"""

from __future__ import annotations

from math import log, log1p
from typing import Optional

from ..core.rng import Rng


def _log_miss(p: float) -> Optional[float]:
    """``log(1 - p)`` of a per-cycle hit probability ``p`` > 0; None
    when ``p`` >= 1 (the process never misses)."""
    return None if p >= 1.0 else log1p(-p)


def _misses(rng: Rng, log_miss: Optional[float]) -> int:
    """Cycles missed before the next hit, at ``log_miss`` =
    ``log(1 - p)``: P(misses >= k) = (1 - p)**k, by inversion."""
    if log_miss is None:
        return 0
    return int(log(1.0 - rng.random()) / log_miss)


class InjectionProcess:
    """When a source generates its packets."""

    def __init__(self, rate: float) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1] packets/cycle, got {rate}")
        self.rate = rate

    def next_gap(self, rng: Rng) -> Optional[int]:
        """Cycles the process misses before its next packet, counted
        from the cycle after its previous one (from cycle 0 for the
        first), drawn from ``rng``; None when it never fires again.
        Called once per packet."""
        raise NotImplementedError

    def reset(self) -> None:
        """Discard internal state so the process can be reused.

        Memoryless processes have nothing to reset; stateful ones
        (e.g. :class:`MarkovOnOff`) override this.  Sharing one
        process instance across ports or runs without resetting leaks
        burst state between them — every :class:`~repro.traffic.source.
        TrafficSource` resets its process on construction.
        """


class Bernoulli(InjectionProcess):
    """Independent Bernoulli trial each cycle (Section 4.3)."""

    def __init__(self, rate: float) -> None:
        super().__init__(rate)
        self._log_miss = _log_miss(rate) if rate > 0.0 else None

    def next_gap(self, rng: Rng) -> Optional[int]:
        # :func:`_misses`, inlined: one call per packet on every port.
        log_miss = self._log_miss
        if log_miss is None:
            return None if self.rate == 0.0 else 0
        return int(log(1.0 - rng.random()) / log_miss)


class MarkovOnOff(InjectionProcess):
    """Two-state Markov ON/OFF process (Table 1, bursty traffic).

    While ON, packets are generated at ``peak_rate`` (a Bernoulli trial
    at the peak rate each cycle, which the harness sets to the full
    channel capacity, so bursts arrive back-to-back).  The ON state
    exits with probability 1/avg_burst after each generated packet,
    giving a geometric burst length with the requested mean.  The
    OFF->ON probability is chosen so the long-run average rate equals
    ``rate``.  An OFF cycle that turns ON makes its peak-rate trial in
    the same cycle.
    """

    def __init__(
        self,
        rate: float,
        peak_rate: float,
        avg_burst: float = 8.0,
    ) -> None:
        super().__init__(rate)
        if not 0.0 < peak_rate <= 1.0:
            raise ValueError(f"peak_rate must be in (0, 1], got {peak_rate}")
        if avg_burst < 1.0:
            raise ValueError(f"avg_burst must be >= 1, got {avg_burst}")
        if rate > peak_rate:
            raise ValueError(
                f"rate {rate} exceeds peak_rate {peak_rate}; bursts cannot "
                "sustain the requested load"
            )
        self.peak_rate = peak_rate
        self.avg_burst = avg_burst
        self._beta = 1.0 / avg_burst  # ON -> OFF after a packet
        # Long-run ON fraction must be rate / peak_rate.  With mean ON
        # duration avg_burst / peak_rate cycles, solve for alpha.
        duty = rate / peak_rate if rate > 0 else 0.0
        if duty >= 1.0 or rate == 0.0:
            self._alpha = 1.0 if duty >= 1.0 else 0.0
        else:
            mean_on = avg_burst / peak_rate
            mean_off = mean_on * (1.0 - duty) / duty
            self._alpha = 1.0 / mean_off
        self._log_stay_off = (
            _log_miss(self._alpha) if self._alpha > 0.0 else None
        )
        self._log_peak_miss = _log_miss(peak_rate)
        self._on = False

    def reset(self) -> None:
        """Return to the OFF state (mid-burst state must not leak
        into another port or run reusing this instance)."""
        self._on = False

    def next_gap(self, rng: Rng) -> Optional[int]:
        """The OFF dwell (geometric at alpha) if OFF, then the misses
        at ``peak_rate`` before the packet; one draw at 1/avg_burst
        after it decides whether the burst ends."""
        if self.rate == 0.0:
            return None
        gap = 0
        if not self._on:
            gap = _misses(rng, self._log_stay_off)
            self._on = True
        gap += _misses(rng, self._log_peak_miss)
        if rng.random() < self._beta:
            self._on = False
        return gap


def make_injection(
    kind: str,
    rate: float,
    peak_rate: float = 1.0,
) -> InjectionProcess:
    """Factory: ``kind`` is "bernoulli" or "onoff" (Table 1's bursts,
    8 packets long on average)."""
    if kind == "bernoulli":
        return Bernoulli(rate)
    if kind == "onoff":
        return MarkovOnOff(rate, peak_rate=peak_rate)
    raise ValueError(f"unknown injection kind {kind!r}")
