"""Behavioral tests for the fully buffered crossbar (Section 5)."""

from repro.core.config import RouterConfig
from repro.core.flit import make_packet
from repro.harness.experiment import SwitchSimulation, SweepSettings
from repro.routers.buffered import BufferedCrossbarRouter

CFG = RouterConfig(radix=8, num_vcs=2, subswitch_size=4, local_group_size=4)
FAST = SweepSettings(warmup=400, measure=800, drain=50)


def _drain(router, max_cycles=800):
    out = []
    for _ in range(max_cycles):
        router.step()
        out.extend(router.drain_ejected())
        if router.idle():
            break
    return out


class TestCrosspointFlow:
    def test_flit_lands_in_crosspoint_then_leaves(self):
        router = BufferedCrossbarRouter(CFG)
        grants = []
        router.hooks.on_grant(
            lambda flit, out_port, cycle: grants.append(out_port)
        )
        (flit,) = make_packet(dest=3, size=1, src=2)
        router.accept(2, flit)
        _drain(router)
        assert router.stats.flits_ejected == 1
        assert sum(map(len, router._xp_flat)) == 0
        # The flit crossed the input row, the crosspoint, and the
        # output column: two traversals plus the head delay.
        assert grants == [3]

    def test_credit_consumed_and_restored(self):
        router = BufferedCrossbarRouter(CFG)
        depth = CFG.crosspoint_buffer_depth
        (flit,) = make_packet(dest=3, size=1, src=2)
        router.accept(2, flit)
        router.step()  # head delay
        router.step()  # launch: credit consumed
        assert router._credits[2][3][0].free == depth - 1
        _drain(router)
        assert router._credits[2][3][0].free == depth

    def test_no_hol_blocking_across_destinations(self):
        """A blocked destination must not stop traffic on another VC to
        a different destination."""
        cfg = CFG.with_(crosspoint_buffer_depth=1, num_vcs=2)
        router = BufferedCrossbarRouter(cfg)
        # Saturate crosspoint (0 -> 1) on VC 0 with back-to-back packets.
        for pkt in range(4):
            (f,) = make_packet(dest=1, size=1, src=0)
            f.vc = 0
            router.accept(0, f)
        # A packet on VC 1 to a different output should still get through.
        (g,) = make_packet(dest=5, size=1, src=0)
        g.vc = 1
        router.accept(0, g)
        out = _drain(router)
        assert len(out) == 5
        assert {f.dest for f, _ in out} == {1, 5}


class TestCreditReturnBus:
    def test_shared_bus_close_to_ideal(self):
        """Section 5.2: 'there is minimal difference between the ideal
        scheme and the shared bus'."""
        cfg = RouterConfig(radix=16, subswitch_size=4, local_group_size=4)
        shared = SwitchSimulation(
            BufferedCrossbarRouter(cfg), load=0.9
        ).run(FAST)
        ideal = SwitchSimulation(
            BufferedCrossbarRouter(cfg.with_(ideal_credit_return=True)),
            load=0.9,
        ).run(FAST)
        assert abs(shared.throughput - ideal.throughput) < 0.05

    def test_ideal_credit_mode_constructs(self):
        router = BufferedCrossbarRouter(CFG.with_(ideal_credit_return=True))
        assert router._credit_buses is None
        assert router._credit_pipes is not None


class TestSaturation:
    def test_near_full_throughput_on_uniform(self):
        """Figure 13: the fully buffered crossbar reaches ~100%."""
        cfg = RouterConfig(radix=16, subswitch_size=4, local_group_size=4)
        sim = SwitchSimulation(BufferedCrossbarRouter(cfg), load=1.0)
        r = sim.run(FAST)
        assert r.throughput > 0.9

    def test_outperforms_distributed_baseline(self):
        """Figure 13: buffered beats the unbuffered baseline."""
        from repro.routers.distributed import DistributedRouter

        cfg = RouterConfig(radix=16, subswitch_size=4, local_group_size=4)
        buf = SwitchSimulation(BufferedCrossbarRouter(cfg), load=1.0).run(FAST)
        base = SwitchSimulation(DistributedRouter(cfg), load=1.0).run(FAST)
        assert buf.throughput > base.throughput + 0.2


class TestBufferSizeEffect:
    def test_larger_buffers_help_long_packets(self):
        """Figure 14(b): long packets need deeper crosspoint buffers."""
        cfg = RouterConfig(radix=16, subswitch_size=4, local_group_size=4,
                           input_buffer_depth=64)
        small = SwitchSimulation(
            BufferedCrossbarRouter(cfg.with_(crosspoint_buffer_depth=1)),
            load=1.0, packet_size=10,
        ).run(FAST)
        large = SwitchSimulation(
            BufferedCrossbarRouter(cfg.with_(crosspoint_buffer_depth=16)),
            load=1.0, packet_size=10,
        ).run(FAST)
        assert large.throughput > small.throughput
