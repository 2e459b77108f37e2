"""Cross-architecture invariants.

Every switch organization, whatever its internal microarchitecture,
must obey the same external contract: flits are conserved, packets
arrive whole and in order, no two packets interleave on one output VC,
and each output carries at most one flit per ``flit_cycles`` cycles.
These tests drive all five router models through the same scenarios.
"""

from collections import defaultdict

import pytest

from repro.core.config import RouterConfig
from repro.core.flit import make_packet
from repro.harness.experiment import SwitchSimulation, SweepSettings
from repro.routers import (
    BaselineRouter,
    BufferedCrossbarRouter,
    DistributedRouter,
    HierarchicalCrossbarRouter,
    SharedBufferCrossbarRouter,
    VoqRouter,
)

ALL_ROUTERS = [
    BaselineRouter,
    DistributedRouter,
    BufferedCrossbarRouter,
    SharedBufferCrossbarRouter,
    HierarchicalCrossbarRouter,
    VoqRouter,
]

CFG = RouterConfig(
    radix=8, num_vcs=2, subswitch_size=4, local_group_size=4,
    input_buffer_depth=8,
)


def _drain(router, max_cycles=2000):
    """Step until the router is empty; returns all ejected flits."""
    out = []
    for _ in range(max_cycles):
        router.step()
        out.extend(router.drain_ejected())
        if router.idle():
            break
    return out


@pytest.mark.parametrize("router_cls", ALL_ROUTERS)
class TestSingleFlit:
    def test_single_flit_delivered(self, router_cls):
        router = router_cls(CFG)
        (flit,) = make_packet(dest=5, size=1, src=2)
        flit.vc = 1
        router.accept(2, flit)
        out = _drain(router)
        assert len(out) == 1
        delivered, cycle = out[0]
        assert delivered is flit
        assert cycle >= CFG.flit_cycles

    def test_idle_after_delivery(self, router_cls):
        router = router_cls(CFG)
        (flit,) = make_packet(dest=0, size=1, src=7)
        router.accept(7, flit)
        _drain(router)
        assert router.idle()
        assert router.occupancy() == 0

    def test_router_empty_without_traffic(self, router_cls):
        router = router_cls(CFG)
        for _ in range(50):
            router.step()
        assert router.idle()
        assert not router.drain_ejected()

    def test_stats_count_delivery(self, router_cls):
        router = router_cls(CFG)
        (flit,) = make_packet(dest=3, size=1, src=0)
        router.accept(0, flit)
        out = _drain(router)
        assert router.stats.flits_ejected == 1
        assert [f.is_tail for f, _ in out] == [True]


@pytest.mark.parametrize("router_cls", ALL_ROUTERS)
class TestMultiFlitPacket:
    def test_packet_delivered_in_order(self, router_cls):
        router = router_cls(CFG)
        flits = make_packet(dest=6, size=5, src=1)
        for f in flits:
            f.vc = 0
            router.accept(1, f)
        out = [f for f, _ in _drain(router)]
        assert len(out) == 5
        assert [f.flit_index for f in out] == [0, 1, 2, 3, 4]

    def test_all_flits_share_output_vc(self, router_cls):
        router = router_cls(CFG)
        flits = make_packet(dest=6, size=4, src=1)
        for f in flits:
            f.vc = 1
            router.accept(1, f)
        out = [f for f, _ in _drain(router)]
        assert len({f.out_vc for f in out}) == 1
        assert out[0].out_vc is not None


@pytest.mark.parametrize("router_cls", ALL_ROUTERS)
class TestLoadedInvariants:
    def _run(self, router_cls, load=0.5, packet_size=1, cycles=600):
        router = router_cls(CFG)
        sim = SwitchSimulation(router, load=load, packet_size=packet_size)
        delivered = []
        sim.hooks.on_flit_move(
            lambda kind, flit, port, cycle:
            kind == "eject" and delivered.append((flit, cycle))
        )
        for _ in range(cycles):
            sim.step()
        # Stop the sources and drain everything still in flight.
        sim.stop_sources()
        for _ in range(3000):
            sim.step()
            if router.idle() and not sim.source_backlog():
                break
        return router, sim, delivered

    def test_flit_conservation(self, router_cls):
        router, sim, ejected = self._run(router_cls)
        generated = sum(s.flits_generated for s in sim.sources)
        backlog = sim.source_backlog()
        assert len(ejected) == generated - backlog
        assert router.idle()

    def test_packets_arrive_whole(self, router_cls):
        _, _, ejected = self._run(router_cls, packet_size=3)
        by_packet = defaultdict(list)
        for f, cycle in ejected:
            by_packet[f.packet_id].append(f)
        for pid, flits in by_packet.items():
            assert len(flits) == 3, f"packet {pid} incomplete"
            assert [f.flit_index for f in flits] == [0, 1, 2]

    def test_no_vc_interleaving_on_outputs(self, router_cls):
        """Between a packet's head and tail, no other packet may eject
        flits on the same (output, output VC)."""
        _, _, ejected = self._run(router_cls, packet_size=3, load=0.6)
        open_packet = {}
        for f, cycle in ejected:
            key = (f.dest, f.out_vc)
            if f.is_head:
                assert key not in open_packet, (
                    f"packet {f.packet_id} opened {key} while "
                    f"{open_packet.get(key)} still active"
                )
                open_packet[key] = f.packet_id
            else:
                assert open_packet.get(key) == f.packet_id
            if f.is_tail:
                open_packet.pop(key, None)

    def test_output_bandwidth_respected(self, router_cls):
        """At most one flit per flit_cycles per output."""
        _, _, ejected = self._run(router_cls, load=0.8)
        last = {}
        for f, cycle in ejected:
            if f.dest in last:
                assert cycle - last[f.dest] >= CFG.flit_cycles, (
                    f"output {f.dest} ejected flits {cycle - last[f.dest]} "
                    "cycles apart"
                )
            last[f.dest] = cycle

    def test_minimum_latency(self, router_cls):
        _, _, ejected = self._run(router_cls, load=0.1)
        for f, cycle in ejected:
            assert cycle - f.created_at >= CFG.flit_cycles

    def test_deterministic_given_seed(self, router_cls):
        _, _, a = self._run(router_cls, load=0.4)
        _, _, b = self._run(router_cls, load=0.4)
        assert [(f.packet_id, c) for f, c in a] == [
            (f.packet_id, c) for f, c in b
        ]


@pytest.mark.parametrize("router_cls", ALL_ROUTERS)
class TestAcceptContract:
    def test_input_space_decreases_on_accept(self, router_cls):
        router = router_cls(CFG)
        before = router.input_space(0, 0)
        (flit,) = make_packet(dest=1, size=1, src=0)
        flit.vc = 0
        router.accept(0, flit)
        assert router.input_space(0, 0) == before - 1

    def test_overflow_raises(self, router_cls):
        router = router_cls(CFG)
        for i in range(CFG.input_buffer_depth):
            (flit,) = make_packet(dest=1, size=1, src=0)
            flit.vc = 0
            router.accept(0, flit)
        (flit,) = make_packet(dest=1, size=1, src=0)
        flit.vc = 0
        with pytest.raises(OverflowError):
            router.accept(0, flit)
