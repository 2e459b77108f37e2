"""Behavioral tests for the shared-buffer crossbar (Section 5.4)."""

from repro.core.config import RouterConfig
from repro.core.flit import make_packet
from repro.harness.experiment import SwitchSimulation, SweepSettings
from repro.routers.shared_buffer import SharedBufferCrossbarRouter

CFG = RouterConfig(radix=8, num_vcs=2, subswitch_size=4, local_group_size=4)
FAST = SweepSettings(warmup=400, measure=800, drain=50)


def _spec_outcomes(router):
    """Record every ``spec_outcome(kind, hit)`` the router emits."""
    seen = []
    router.hooks.on_spec_outcome(
        lambda kind, hit, port, cycle: seen.append((kind, hit))
    )
    return seen


def _drain(router, max_cycles=1500):
    out = []
    for _ in range(max_cycles):
        router.step()
        out.extend(router.drain_ejected())
        if router.idle():
            break
    return out


class TestAckNackProtocol:
    def test_flit_retained_until_ack(self):
        """The original flit stays in the input buffer until the ACK
        from output VC allocation returns (Section 5.4)."""
        router = SharedBufferCrossbarRouter(CFG)
        (flit,) = make_packet(dest=3, size=1, src=0)
        router.accept(0, flit)
        router.step()  # head eligibility
        router.step()  # launch
        # While the copy flies and before the ACK, the original remains.
        assert len(router.inputs[0][0]) == 1
        _drain(router)
        assert len(router.inputs[0][0]) == 0
        assert router.stats.flits_ejected == 1

    def test_nack_on_vc_conflict(self):
        """A head arriving at the crosspoint while its VC class is held
        is dropped and NACKed."""
        cfg = CFG.with_(num_vcs=1)
        router = SharedBufferCrossbarRouter(cfg)
        outcomes = _spec_outcomes(router)
        pa = make_packet(dest=2, size=6, src=0)
        pb = make_packet(dest=2, size=6, src=1)
        for f in pa:
            router.accept(0, f)
        for f in pb:
            router.accept(1, f)
        out = _drain(router, max_cycles=3000)
        assert len(out) == 12
        assert ("xpva", False) in outcomes

    def test_nack_restores_credit(self):
        cfg = CFG.with_(num_vcs=1, crosspoint_buffer_depth=4)
        router = SharedBufferCrossbarRouter(cfg)
        pa = make_packet(dest=2, size=6, src=0)
        pb = make_packet(dest=2, size=6, src=1)
        for f in pa:
            router.accept(0, f)
        for f in pb:
            router.accept(1, f)
        _drain(router, max_cycles=3000)
        # After draining, every crosspoint credit is back to capacity.
        for i in range(cfg.radix):
            for j in range(cfg.radix):
                assert router._credits[i][j].free == 4

    def test_no_nacks_without_vc_contention(self):
        router = SharedBufferCrossbarRouter(CFG)
        outcomes = _spec_outcomes(router)
        for src in range(4):
            (f,) = make_packet(dest=src + 4, size=1, src=src)
            router.accept(src, f)
        _drain(router)
        assert outcomes == [("xpva", True)] * 4


class TestPerformance:
    def test_decoupling_beats_unbuffered_baseline(self):
        """Section 5.4: the shared buffer still decouples input and
        output arbitration, 'providing good performance over a
        non-buffered crossbar'."""
        from repro.routers.distributed import DistributedRouter

        cfg = RouterConfig(radix=16, subswitch_size=4, local_group_size=4)
        shared = SwitchSimulation(
            SharedBufferCrossbarRouter(cfg), load=1.0
        ).run(FAST)
        base = SwitchSimulation(DistributedRouter(cfg), load=1.0).run(FAST)
        assert shared.throughput > base.throughput

    def test_below_fully_buffered_with_vc_contention(self):
        """The NACK protocol costs throughput relative to per-VC
        crosspoint buffers when packets contend for VCs."""
        from repro.routers.buffered import BufferedCrossbarRouter

        cfg = RouterConfig(radix=16, num_vcs=2, subswitch_size=4,
                           local_group_size=4, input_buffer_depth=32)
        shared = SwitchSimulation(
            SharedBufferCrossbarRouter(cfg), load=1.0, packet_size=4
        ).run(FAST)
        full = SwitchSimulation(
            BufferedCrossbarRouter(cfg), load=1.0, packet_size=4
        ).run(FAST)
        assert full.throughput > shared.throughput
