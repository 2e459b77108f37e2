"""Tests for per-input traffic sources."""

import copy
import itertools

import pytest

from repro.traffic.arrivals import ArrivalQueue
from repro.traffic.injection import Bernoulli, MarkovOnOff
from repro.traffic.patterns import UniformRandom
from repro.traffic.source import TrafficSource

#: Packet ids for sources driven without a simulation.
IDS = itertools.count().__next__


def _source(rate=1.0, packet_size=1, seed=0, input_id=0, k=8):
    return TrafficSource(
        input_id, UniformRandom(k), Bernoulli(rate), packet_size, seed
    )


def _drive(sources, cycles, queue=None):
    """Generate what an arrival queue over ``sources`` (input ``i`` at
    index ``i``) times, cycle by cycle, as a simulation does:
    ``[(cycle, input, dest), ...]``."""
    if queue is None:
        queue = _queue(sources)
    generated = []
    for now in range(cycles):
        for i in queue.due(now):
            sources[i].generate(now, False, IDS)
            generated.append((now, sources[i].input_id,
                              sources[i].queue[-1].dest))
    return generated


def _queue(sources):
    return ArrivalQueue([s.stream for s in sources],
                        [s.injection for s in sources])


class TestTrafficSource:
    def test_generate_at_rate_one(self):
        src = _source(rate=1.0)
        assert src.generate(now=0, measured=False, new_id=IDS) is not None
        assert src.backlog() == 1

    def test_generate_at_rate_zero(self):
        src = _source(rate=0.0)
        queue = _queue([src])
        assert _drive([src], 200, queue) == []
        assert src.backlog() == 0
        assert queue.next_due() is None

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
        seq_a = [(t, dest) for t, _, dest in _drive([a], 200)]
        seq_b = [(t, dest) for t, _, dest in _drive([b], 200)]
        assert seq_a != seq_b

    def test_invalid_packet_size(self):
        with pytest.raises(ValueError):
            _source(packet_size=0)


class TestArrivalTiming:
    """A source generates on the cycles its queue entry falls on; its
    one stream gives the gap, then the destination, then the next gap."""

    @pytest.mark.parametrize("make", [
        lambda: Bernoulli(0.225),
        lambda: Bernoulli(1.0),
        lambda: MarkovOnOff(rate=0.2, peak_rate=1.0, avg_burst=8.0),
    ], ids=["bernoulli", "bernoulli-1", "onoff"])
    @pytest.mark.parametrize("sources", [1, 3])
    def test_stream_reads_gap_destination_gap(self, make, sources):
        """Alone or sharing the queue with other sources, each source
        reads only its own stream."""
        srcs = [TrafficSource(i, UniformRandom(8), make(), 2, seed=9)
                for i in range(sources)]
        oracles = [copy.copy(src.stream) for src in srcs]
        queue = _queue(srcs)
        generated = _drive(srcs, 400, queue)
        for src, oracle in zip(srcs, oracles):
            process = make()
            mine = [(now, dest) for now, i, dest in generated
                    if i == src.input_id]
            cycle = -1
            for now, dest in mine:
                cycle += 1 + process.next_gap(oracle)
                assert now == cycle
                assert dest == UniformRandom(8).dest(src.input_id, oracle)
            assert ((cycle + 1 + process.next_gap(oracle), src.input_id)
                    in queue.queued())
            assert src.stream.getstate() == oracle.getstate()
            assert src.flits_generated == 2 * src.packets_generated
            assert src.peak_backlog == len(src.queue) == 2 * len(mine)

    def test_same_cycle_arrivals_come_in_input_order(self):
        sources = [_source(rate=1.0, input_id=i) for i in range(4)]
        generated = _drive(sources, 3)
        assert [(t, i) for t, i, _ in generated] == [
            (t, i) for t in range(3) for i in range(4)
        ]
