"""Tests for Bernoulli and Markov ON/OFF injection processes."""

import random

import pytest

from repro.traffic.injection import Bernoulli, MarkovOnOff, make_injection


class TestBernoulli:
    def test_rate_zero_never_injects(self):
        proc = Bernoulli(0.0)
        rng = random.Random(0)
        assert not any(proc.should_inject(rng) for _ in range(1000))

    def test_rate_one_always_injects(self):
        proc = Bernoulli(1.0)
        rng = random.Random(0)
        assert all(proc.should_inject(rng) for _ in range(100))

    def test_long_run_rate(self):
        proc = Bernoulli(0.2)
        rng = random.Random(1)
        n = 50000
        hits = sum(proc.should_inject(rng) for _ in range(n))
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
        rng = random.Random(2)
        n = 200000
        hits = sum(proc.should_inject(rng) for _ in range(n))
        assert abs(hits / n - 0.1) < 0.01

    def test_traffic_is_bursty(self):
        """Injections cluster: the variance of per-window counts must
        exceed that of a Bernoulli process at the same rate."""
        rate, peak = 0.1, 0.25
        rng_a, rng_b = random.Random(3), random.Random(3)
        onoff = MarkovOnOff(rate, peak, avg_burst=8.0)
        bern = Bernoulli(rate)
        window = 40

        def window_counts(proc, rng):
            counts = []
            for _ in range(800):
                counts.append(sum(proc.should_inject(rng) for _ in range(window)))
            return counts

        def var(xs):
            m = sum(xs) / len(xs)
            return sum((x - m) ** 2 for x in xs) / len(xs)

        assert var(window_counts(onoff, rng_a)) > 1.5 * var(
            window_counts(bern, rng_b)
        )

    def test_mean_burst_length(self):
        """Consecutive packets within one ON period average ~avg_burst."""
        proc = MarkovOnOff(rate=0.05, peak_rate=1.0, avg_burst=8.0)
        rng = random.Random(4)
        bursts = []
        current = 0
        for _ in range(200000):
            if proc.should_inject(rng):
                current += 1
            elif current:
                bursts.append(current)
                current = 0
        mean = sum(bursts) / len(bursts)
        assert 6.0 < mean < 10.0

    def test_zero_rate(self):
        proc = MarkovOnOff(rate=0.0, peak_rate=0.25)
        rng = random.Random(0)
        assert not any(proc.should_inject(rng) for _ in range(100))

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
        # Drive until the process is mid-burst.
        for _ in range(10000):
            proc.should_inject(rng)
            if proc._on:
                break
        assert proc._on
        proc.reset()
        assert not proc._on

    def test_reset_makes_reuse_deterministic(self):
        """Two identical RNG streams through one instance must match
        when reset() is called between uses."""
        proc = MarkovOnOff(rate=0.2, peak_rate=1.0, avg_burst=8.0)
        rng = random.Random(7)
        a = [proc.should_inject(rng) for _ in range(500)]
        proc.reset()
        rng = random.Random(7)
        b = [proc.should_inject(rng) for _ in range(500)]
        assert a == b

    def test_bernoulli_reset_is_noop(self):
        proc = Bernoulli(0.3)
        proc.reset()  # must exist and be harmless on stateless processes
        rng = random.Random(8)
        assert isinstance(proc.should_inject(rng), bool)

    def test_traffic_source_resets_shared_process(self):
        """TrafficSource construction resets its injection process, so
        sharing one stateful instance across ports cannot leak burst
        state from one source into the next."""
        from repro.traffic.patterns import UniformRandom
        from repro.traffic.source import TrafficSource

        proc = MarkovOnOff(rate=0.2, peak_rate=1.0, avg_burst=8.0)
        proc._on = True  # simulate mid-burst state left by a prior user
        TrafficSource(0, UniformRandom(4), proc, packet_size=1, seed=1)
        assert not proc._on


class TestMissesBeforeHit:
    """One call per arrival is the per-cycle poll, draw for draw."""

    @pytest.mark.parametrize("make", [
        lambda: Bernoulli(0.225),
        lambda: Bernoulli(1.0),
        lambda: MarkovOnOff(rate=0.2, peak_rate=1.0, avg_burst=8.0),
        lambda: MarkovOnOff(rate=0.1, peak_rate=0.5, avg_burst=3.0),
        lambda: MarkovOnOff(rate=1.0, peak_rate=1.0, avg_burst=2.0),
    ], ids=["bernoulli", "bernoulli-rate-1", "onoff", "onoff-peak-half",
            "onoff-rate-1"])
    def test_same_gaps_same_stream_same_state(self, make):
        polled, asked = make(), make()
        poll_rng, ask_rng = random.Random(11), random.Random(11)
        for _ in range(300):
            misses = 0
            while not polled.should_inject(poll_rng):
                misses += 1
            assert asked.misses_before_hit(ask_rng) == misses
            assert ask_rng.getstate() == poll_rng.getstate()
            assert vars(asked) == vars(polled)

    def test_rate_one_never_misses(self):
        rng = random.Random(12)
        assert [Bernoulli(1.0).misses_before_hit(rng) for _ in range(50)] \
            == [0] * 50


class TestFactory:
    def test_bernoulli(self):
        assert isinstance(make_injection("bernoulli", 0.1), Bernoulli)

    def test_onoff(self):
        proc = make_injection("onoff", 0.1, peak_rate=0.25, avg_burst=4.0)
        assert isinstance(proc, MarkovOnOff)
        assert proc.avg_burst == 4.0

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_injection("poisson", 0.1)
