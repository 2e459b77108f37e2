"""Tests for per-input traffic sources."""

import itertools

import pytest

from repro.traffic.injection import Bernoulli, MarkovOnOff
from repro.traffic.patterns import UniformRandom
from repro.traffic.source import TrafficSource

#: Packet ids for sources driven without a simulation.
IDS = itertools.count().__next__


def _source(rate=1.0, packet_size=1, seed=0, input_id=0, k=8):
    return TrafficSource(
        input_id, UniformRandom(k), Bernoulli(rate), packet_size, seed
    )


class TestTrafficSource:
    def test_generate_at_rate_one(self):
        src = _source(rate=1.0)
        assert src.generate(now=0, measured=False, new_id=IDS) is not None
        assert src.backlog() == 1

    def test_generate_at_rate_zero(self):
        src = _source(rate=0.0)
        assert src.generate(0, False, IDS) is None
        assert src.backlog() == 0

    def test_packet_size_flits(self):
        src = _source(rate=1.0, packet_size=5)
        src.generate(0, False, IDS)
        assert src.backlog() == 5
        flits = [src.pop() for _ in range(5)]
        assert flits[0].is_head and flits[-1].is_tail
        assert len({f.packet_id for f in flits}) == 1

    def test_measured_flag_propagates(self):
        src = _source(rate=1.0)
        src.generate(0, measured=True, new_id=IDS)
        assert src.pop().measured

    def test_created_at_recorded(self):
        src = _source(rate=1.0)
        src.generate(42, False, IDS)
        assert src.pop().created_at == 42

    def test_src_recorded(self):
        src = _source(rate=1.0, input_id=5)
        src.generate(0, False, IDS)
        assert src.pop().src == 5

    def test_head_is_nondestructive(self):
        src = _source(rate=1.0)
        src.generate(0, False, IDS)
        f = src.head()
        assert src.head() is f
        assert src.pop() is f
        assert src.head() is None

    def test_counters(self):
        src = _source(rate=1.0, packet_size=3)
        for now in range(4):
            src.generate(now, False, IDS)
        assert src.packets_generated == 4
        assert src.flits_generated == 12

    def test_deterministic_across_instances(self):
        a = _source(rate=0.5, seed=7)
        b = _source(rate=0.5, seed=7)
        seq_a = [a.generate(t, False, IDS) is not None for t in range(100)]
        seq_b = [b.generate(t, False, IDS) is not None for t in range(100)]
        assert seq_a == seq_b

    def test_different_inputs_get_different_streams(self):
        a = TrafficSource(0, UniformRandom(8), Bernoulli(0.5), 1, seed=7)
        b = TrafficSource(1, UniformRandom(8), Bernoulli(0.5), 1, seed=7)
        seq_a = [a.generate(t, False, IDS) is not None for t in range(200)]
        seq_b = [b.generate(t, False, IDS) is not None for t in range(200)]
        assert seq_a != seq_b

    def test_invalid_packet_size(self):
        with pytest.raises(ValueError):
            _source(packet_size=0)


class _PerPollSource(TrafficSource):
    """The pre-draw as it was: one ``should_inject`` per polled cycle.
    The oracle for asking the process once per arrival."""

    def _draw_next(self, start):
        if self.injection.rate == 0.0:
            return None
        cycle = max(self._cursor, start)
        while not self.injection.should_inject(self._rng):
            cycle += 1
        self._cursor = cycle + 1
        return cycle


class TestPerArrivalPreDraw:
    @pytest.mark.parametrize("make", [
        lambda: Bernoulli(0.0),
        lambda: Bernoulli(0.225),
        lambda: Bernoulli(1.0),
        lambda: MarkovOnOff(rate=0.0, peak_rate=1.0),
        lambda: MarkovOnOff(rate=0.2, peak_rate=1.0, avg_burst=8.0),
        lambda: MarkovOnOff(rate=1.0, peak_rate=1.0, avg_burst=2.0),
    ], ids=["bernoulli-0", "bernoulli", "bernoulli-1", "onoff-0", "onoff",
            "onoff-1"])
    @pytest.mark.parametrize("stride", [1, 3])
    def test_stream_and_cursor_where_per_poll_leaves_them(self, make, stride):
        """Driven every cycle or only every third (event mode skips
        cycles; ``peek_arrival`` is its horizon), the source generates
        on the same cycles with the same destinations, and after every
        call its stream, ``_cursor`` and cached arrival are exactly the
        per-poll oracle's."""
        fast = TrafficSource(3, UniformRandom(8), make(), 2, seed=9)
        oracle = _PerPollSource(3, UniformRandom(8), make(), 2, seed=9)
        for now in range(0, 400, stride):
            assert fast.peek_arrival(now) == oracle.peek_arrival(now)
            got = fast.generate(now, False, IDS) is not None
            assert got == (oracle.generate(now, False, IDS) is not None)
            assert fast._rng.getstate() == oracle._rng.getstate()
            assert fast._cursor == oracle._cursor
            assert fast._next_arrival == oracle._next_arrival
            assert vars(fast.injection) == vars(oracle.injection)
        assert [f.dest for f in fast.queue] == [f.dest for f in oracle.queue]
        assert fast.peak_backlog == oracle.peak_backlog == len(fast.queue)
        assert fast.flits_generated == 2 * fast.packets_generated
