"""Tests for Bernoulli and Markov ON/OFF injection processes.

The rate, burst and reset properties are read off ``next_gap`` itself:
:func:`fired` lays its gaps out on the cycle axis.  How the gaps are
distributed against the per-cycle definition is
``tests/test_arrival_gaps.py``'s.
"""

import random

import pytest

from repro.traffic.injection import Bernoulli, MarkovOnOff, make_injection


def fired(proc, rng, cycles):
    """Per cycle below ``cycles``, whether ``proc`` generates a packet,
    with its gaps drawn by ``next_gap`` from ``rng``."""
    hits = [False] * cycles
    cycle = -1
    while True:
        gap = proc.next_gap(rng)
        if gap is None:
            return hits
        cycle += 1 + gap
        if cycle >= cycles:
            return hits
        hits[cycle] = True


class TestBernoulli:
    def test_rate_zero_never_injects(self):
        assert not any(fired(Bernoulli(0.0), random.Random(0), 1000))

    def test_rate_one_always_injects(self):
        assert all(fired(Bernoulli(1.0), random.Random(0), 100))

    def test_long_run_rate(self):
        n = 50000
        hits = sum(fired(Bernoulli(0.2), random.Random(1), n))
        assert abs(hits / n - 0.2) < 0.01

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Bernoulli(1.5)
        with pytest.raises(ValueError):
            Bernoulli(-0.1)


class TestMarkovOnOff:
    def test_long_run_rate_matches_target(self):
        """The ON/OFF duty cycle must average out to the offered rate."""
        proc = MarkovOnOff(rate=0.1, peak_rate=0.25, avg_burst=8.0)
        n = 200000
        hits = sum(fired(proc, random.Random(2), n))
        assert abs(hits / n - 0.1) < 0.01

    def test_traffic_is_bursty(self):
        """Injections cluster: the variance of per-window counts must
        exceed that of a Bernoulli process at the same rate."""
        rate, peak = 0.1, 0.25
        window, windows = 40, 800

        def window_counts(proc, rng):
            hits = fired(proc, rng, window * windows)
            return [sum(hits[w * window:(w + 1) * window])
                    for w in range(windows)]

        def var(xs):
            m = sum(xs) / len(xs)
            return sum((x - m) ** 2 for x in xs) / len(xs)

        onoff = MarkovOnOff(rate, peak, avg_burst=8.0)
        bern = Bernoulli(rate)
        assert var(window_counts(onoff, random.Random(3))) > 1.5 * var(
            window_counts(bern, random.Random(3))
        )

    def test_mean_burst_length(self):
        """Consecutive packets within one ON period average ~avg_burst:
        at ``peak_rate`` 1 a burst is a run of zero gaps."""
        proc = MarkovOnOff(rate=0.05, peak_rate=1.0, avg_burst=8.0)
        rng = random.Random(4)
        bursts = []
        current = 0
        for _ in range(20000):
            if proc.next_gap(rng) == 0 and current:
                current += 1
                continue
            if current:
                bursts.append(current)
            current = 1
        mean = sum(bursts) / len(bursts)
        assert 6.0 < mean < 10.0

    def test_zero_rate(self):
        proc = MarkovOnOff(rate=0.0, peak_rate=0.25)
        assert not any(fired(proc, random.Random(0), 100))

    def test_rate_above_peak_rejected(self):
        with pytest.raises(ValueError):
            MarkovOnOff(rate=0.5, peak_rate=0.25)

    def test_invalid_burst(self):
        with pytest.raises(ValueError):
            MarkovOnOff(rate=0.1, peak_rate=0.25, avg_burst=0.5)

    def test_invalid_peak(self):
        with pytest.raises(ValueError):
            MarkovOnOff(rate=0.0, peak_rate=0.0)

    def test_reset_clears_burst_state(self):
        """Regression: a MarkovOnOff instance reused across ports or
        runs carried its ON state over, so the second user started
        mid-burst and the streams were correlated."""
        proc = MarkovOnOff(rate=0.2, peak_rate=1.0, avg_burst=50.0)
        rng = random.Random(5)
        # Draw packets until the process is left mid-burst.
        for _ in range(10000):
            proc.next_gap(rng)
            if proc._on:
                break
        assert proc._on
        proc.reset()
        assert not proc._on

    def test_reset_makes_reuse_deterministic(self):
        """Two identical RNG streams through one instance must match
        when reset() is called between uses."""
        proc = MarkovOnOff(rate=0.2, peak_rate=1.0, avg_burst=8.0)
        a = fired(proc, random.Random(7), 500)
        proc.reset()
        b = fired(proc, random.Random(7), 500)
        assert a == b

    def test_bernoulli_reset_is_noop(self):
        proc = Bernoulli(0.3)
        proc.reset()  # must exist and be harmless on stateless processes
        assert isinstance(proc.next_gap(random.Random(8)), int)

    def test_traffic_source_resets_shared_process(self):
        """TrafficSource construction resets its injection process, so
        sharing one stateful instance across ports cannot leak burst
        state from one source into the next."""
        from repro.traffic.patterns import UniformRandom
        from repro.traffic.source import TrafficSource

        proc = MarkovOnOff(rate=0.2, peak_rate=1.0, avg_burst=8.0)
        proc._on = True  # simulate mid-burst state left by a prior user
        TrafficSource(0, UniformRandom(4), proc, packet_size=1,
                      stream=random.Random(1))
        assert not proc._on


class TestMissesBeforeHit:
    """``next_gap``: the cycles missed before the next packet, one call
    per packet (its distribution is ``tests/test_arrival_gaps.py``'s)."""

    def test_rate_one_never_misses(self):
        rng = random.Random(12)
        state = rng.getstate()
        assert [Bernoulli(1.0).next_gap(rng) for _ in range(50)] == [0] * 50
        assert rng.getstate() == state  # nothing to draw

    def test_rate_zero_never_fires(self):
        rng = random.Random(12)
        assert Bernoulli(0.0).next_gap(rng) is None
        assert MarkovOnOff(0.0, peak_rate=1.0).next_gap(rng) is None
        assert rng.getstate() == random.Random(12).getstate()

    def test_onoff_at_full_duty_and_peak_is_back_to_back(self):
        proc = MarkovOnOff(rate=1.0, peak_rate=1.0, avg_burst=2.0)
        rng = random.Random(13)
        assert [proc.next_gap(rng) for _ in range(50)] == [0] * 50

    def test_onoff_gap_draws_leave_the_chain_in_a_state(self):
        """A packet leaves the chain ON or OFF by one draw at
        1/avg_burst; ``reset`` returns it to OFF."""
        proc = MarkovOnOff(rate=0.2, peak_rate=1.0, avg_burst=4.0)
        rng = random.Random(14)
        states = set()
        for _ in range(200):
            assert proc.next_gap(rng) >= 0
            states.add(proc._on)
        assert states == {True, False}
        proc.reset()
        assert not proc._on


class TestFactory:
    def test_bernoulli(self):
        assert isinstance(make_injection("bernoulli", 0.1), Bernoulli)

    def test_onoff(self):
        proc = make_injection("onoff", 0.1, peak_rate=0.25)
        assert isinstance(proc, MarkovOnOff)
        assert proc.avg_burst == 8.0  # Table 1's burst length

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_injection("poisson", 0.1)
