"""Packet injection processes.

The paper injects packets "using a Bernoulli process" for its main
results (Section 4.3), and for the bursty experiment of Table 1 uses a
"bursty injection based on a Markov ON/OFF process" with an average
burst length of 8 packets.

An injection process answers, once per cycle, whether the source
generates a packet this cycle.  Rates are expressed in packets per
cycle; the harness converts an offered load (fraction of channel
capacity) into a packet rate via
``rate = load / (flit_cycles * packet_size)``.
"""

from __future__ import annotations

from ..core.rng import Rng


class InjectionProcess:
    """Decides, each cycle, whether a packet is generated."""

    def __init__(self, rate: float) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1] packets/cycle, got {rate}")
        self.rate = rate

    def should_inject(self, rng: Rng) -> bool:
        raise NotImplementedError

    def misses_before_hit(self, rng: Rng) -> int:
        """Poll until the process fires; return how many polls missed.

        Exactly the draws (and state changes) of :meth:`should_inject`
        once per cycle up to and including the hit, in one call per
        arrival.  Never returns at rate 0: callers test ``rate`` first.
        """
        misses = 0
        while not self.should_inject(rng):
            misses += 1
        return misses

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

    def should_inject(self, rng: Rng) -> bool:
        return rng.random() < self.rate  # twin loop: misses_before_hit

    def misses_before_hit(self, rng: Rng) -> int:
        random, rate = rng.random, self.rate
        misses = 0
        while not random() < rate:
            misses += 1
        return misses


class MarkovOnOff(InjectionProcess):
    """Two-state Markov ON/OFF process (Table 1, bursty traffic).

    While ON, packets are generated at ``peak_rate`` (default: every
    cycle a Bernoulli trial at the peak rate, which the harness sets to
    the full channel capacity, so bursts arrive back-to-back).  The ON
    state exits with probability 1/avg_burst after each generated
    packet, giving a geometric burst length with the requested mean.
    The OFF->ON probability is chosen so the long-run average rate
    equals ``rate``.
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
        self._on = False

    def reset(self) -> None:
        """Return to the OFF state (mid-burst state must not leak
        into another port or run reusing this instance)."""
        self._on = False

    def should_inject(self, rng: Rng) -> bool:
        if self.rate == 0.0:
            return False
        if not self._on:
            if rng.random() < self._alpha:
                self._on = True
            else:
                return False
        if rng.random() < self.peak_rate:
            if rng.random() < self._beta:
                self._on = False
            return True
        return False


def make_injection(
    kind: str,
    rate: float,
    peak_rate: float = 1.0,
    avg_burst: float = 8.0,
) -> InjectionProcess:
    """Factory: ``kind`` is "bernoulli" or "onoff"."""
    if kind == "bernoulli":
        return Bernoulli(rate)
    if kind == "onoff":
        return MarkovOnOff(rate, peak_rate=peak_rate, avg_burst=avg_burst)
    raise ValueError(f"unknown injection kind {kind!r}")
