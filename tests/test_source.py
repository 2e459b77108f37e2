"""Tests for per-host synthetic packet sources."""

import copy
import itertools

import pytest

from repro.core.config import RouterConfig
from repro.core.rng import derive_rng
from repro.harness.experiment import SwitchSimulation
from repro.network.netsim import NetworkConfig, NetworkSimulation
from repro.routers.baseline import BaselineRouter
from repro.traffic.arrivals import ArrivalQueue
from repro.traffic.injection import Bernoulli, MarkovOnOff
from repro.traffic.patterns import UniformRandom
from repro.traffic.source import TrafficSource

#: Packet ids for sources driven without a simulation.
IDS = itertools.count().__next__


def _source(rate=1.0, packet_size=1, seed=0, input_id=0, k=8, make=None):
    process = Bernoulli(rate) if make is None else make()
    return TrafficSource(
        input_id, UniformRandom(k), process, packet_size,
        derive_rng(seed, "traffic", input_id),
    )


def _drive(sources, cycles, queue=None):
    """Generate what an arrival queue over ``sources`` (input ``i`` at
    index ``i``) times, cycle by cycle, as a simulation does:
    ``[(cycle, input, flits), ...]``."""
    if queue is None:
        queue = _queue(sources)
    generated = []
    for now in range(cycles):
        for i in queue.due(now):
            flits = sources[i].generate(now, False, IDS)
            generated.append((now, sources[i].input_id, flits))
    return generated


def _queue(sources):
    return ArrivalQueue([s.stream for s in sources],
                        [s.injection for s in sources])


class TestTrafficSource:
    def test_generate_at_rate_one(self):
        src = _source(rate=1.0)
        flits = src.generate(now=0, measured=False, new_id=IDS)
        assert len(flits) == 1 and flits[0].is_head and flits[0].is_tail

    def test_generate_at_rate_zero(self):
        src = _source(rate=0.0)
        queue = _queue([src])
        assert _drive([src], 200, queue) == []
        assert src.packets_generated == 0
        assert queue.next_due() is None

    def test_packet_size_flits(self):
        src = _source(rate=1.0, packet_size=5)
        flits = src.generate(0, False, IDS)
        assert len(flits) == 5
        assert flits[0].is_head and flits[-1].is_tail
        assert len({f.packet_id for f in flits}) == 1

    def test_measured_flag_propagates(self):
        src = _source(rate=1.0)
        assert src.generate(0, measured=True, new_id=IDS)[0].measured

    def test_created_at_recorded(self):
        src = _source(rate=1.0)
        assert src.generate(42, False, IDS)[0].created_at == 42

    def test_src_recorded(self):
        src = _source(rate=1.0, input_id=5)
        assert src.generate(0, False, IDS)[0].src == 5

    def test_each_call_is_a_new_packet(self):
        """The source keeps no queue: each call hands back a fresh
        packet with its own id, and nothing of the last one."""
        src = _source(rate=1.0, packet_size=2)
        first = src.generate(0, False, IDS)
        second = src.generate(1, False, IDS)
        assert first[0].packet_id != second[0].packet_id
        assert not set(map(id, first)) & set(map(id, second))
        assert not hasattr(src, "queue")

    def test_counters(self):
        src = _source(rate=1.0, packet_size=3)
        for now in range(4):
            src.generate(now, False, IDS)
        assert src.packets_generated == 4
        assert src.flits_generated == 12

    def test_deterministic_across_instances(self):
        a = _source(rate=0.5, seed=7)
        b = _source(rate=0.5, seed=7)
        seq_a = [(t, f[0].dest) for t, _, f in _drive([a], 100)]
        seq_b = [(t, f[0].dest) for t, _, f in _drive([b], 100)]
        assert seq_a and seq_a == seq_b

    def test_different_inputs_get_different_streams(self):
        config = RouterConfig(radix=8, seed=7)
        sim = SwitchSimulation(BaselineRouter(config), load=0.5)
        a, b = sim.sources[:2]
        seq_a = [(t, f[0].dest) for t, _, f in _drive([a], 200)]
        seq_b = [(t, f[0].dest) for t, _, f in _drive([b], 200)]
        assert seq_a != seq_b

    def test_invalid_packet_size(self):
        with pytest.raises(ValueError):
            _source(packet_size=0)


class TestRoute:
    """An optional ``route(src, dest)`` is drawn after the destination
    and copied onto every flit of the packet."""

    def test_route_follows_the_destination_draw(self):
        src = _source(rate=1.0, packet_size=3, input_id=2, seed=4)
        oracle = copy.copy(src.stream)
        calls = []

        def route(host, dest):
            # The destination is already drawn: the stream has moved on.
            calls.append((host, dest, src.stream.getstate()))
            return [dest, host]

        flits = src.generate(0, False, IDS, route)
        dest = UniformRandom(8).dest(2, oracle)
        assert calls == [(2, dest, oracle.getstate())]
        assert [f.route for f in flits] == [[dest, 2]] * 3
        assert src.stream.getstate() == oracle.getstate()

    def test_no_route_by_default(self):
        assert _source(rate=1.0).generate(0, False, IDS)[0].route == []


class TestSimulationSources:
    """Each stack builds one source per switch port or Clos host, on
    its own stream (``derive_rng(seed, "traffic", port)`` on a switch,
    ``derive_rng(seed, "net", host)`` on a Clos), and the arrival queue
    reads those same streams; construction draws each first gap."""

    @staticmethod
    def _check(sim, seed, key):
        for i, src in enumerate(sim.sources):
            assert src.input_id == i
            assert src.stream is sim.arrivals.streams[i]
            fresh = derive_rng(seed, key, i)
            src.injection.next_gap(fresh)
            assert src.stream.getstate() == fresh.getstate()

    def test_switch_port_streams(self):
        config = RouterConfig(radix=8, seed=7)
        sim = SwitchSimulation(BaselineRouter(config), load=0.5)
        assert len(sim.sources) == 8
        self._check(sim, 7, "traffic")

    def test_clos_host_sources(self):
        config = NetworkConfig(radix=4, levels=2, seed=3, packet_size=2)
        sim = NetworkSimulation(config, load=0.5)
        hosts = sim.topology.num_hosts
        assert len(sim.sources) == hosts
        self._check(sim, 3, "net")
        for src in sim.sources:
            assert src.packet_size == 2
            assert isinstance(src.pattern, UniformRandom)
            assert src.pattern.num_ports == hosts


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
        srcs = [_source(packet_size=2, seed=9, input_id=i, make=make)
                for i in range(sources)]
        oracles = [copy.copy(src.stream) for src in srcs]
        queue = _queue(srcs)
        generated = _drive(srcs, 400, queue)
        for src, oracle in zip(srcs, oracles):
            process = make()
            mine = [(now, flits) for now, i, flits in generated
                    if i == src.input_id]
            cycle = -1
            for now, flits in mine:
                cycle += 1 + process.next_gap(oracle)
                assert now == cycle
                assert flits[0].dest == UniformRandom(8).dest(
                    src.input_id, oracle)
            assert ((cycle + 1 + process.next_gap(oracle), src.input_id)
                    in queue.queued())
            assert src.stream.getstate() == oracle.getstate()
            assert src.flits_generated == 2 * src.packets_generated
            assert sum(len(flits) for _, flits in mine) == 2 * len(mine)
            assert src.packets_generated == len(mine)

    def test_same_cycle_arrivals_come_in_input_order(self):
        sources = [_source(rate=1.0, input_id=i) for i in range(4)]
        generated = _drive(sources, 3)
        assert [(t, i) for t, i, _ in generated] == [
            (t, i) for t in range(3) for i in range(4)
        ]
