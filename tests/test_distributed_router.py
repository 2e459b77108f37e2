"""Behavioral tests for the distributed-allocator high-radix router."""

import pytest

from repro.core.config import OVA_EXTRA_LATENCY, ROUTE_LATENCY, RouterConfig
from repro.core.flit import make_packet
from repro.harness.experiment import SwitchSimulation, SweepSettings
from repro.routers.distributed import DistributedRouter

CFG = RouterConfig(radix=8, num_vcs=2, subswitch_size=4, local_group_size=4)
FAST = SweepSettings(warmup=400, measure=800, drain=50)


def _spec_outcomes(router):
    """Record every ``spec_outcome(kind, hit)`` the router emits."""
    seen = []
    router.hooks.on_spec_outcome(
        lambda kind, hit, port, cycle: seen.append((kind, hit))
    )
    return seen


def _drain(router, max_cycles=500):
    out = []
    for _ in range(max_cycles):
        router.step()
        out.extend(router.drain_ejected())
        if router.idle():
            break
    return out


class TestPipelineTiming:
    def test_grant_latency_includes_sa_stages(self):
        """A lone flit waits RC, then sa_latency for the distributed
        grant, then traverses."""
        router = DistributedRouter(CFG)
        (flit,) = make_packet(dest=3, size=1, src=0)
        router.accept(0, flit)
        (f, cycle), = _drain(router)
        expected = ROUTE_LATENCY + CFG.sa_latency + CFG.flit_cycles
        assert cycle == expected

    def test_ova_adds_extra_stage(self):
        router = DistributedRouter(CFG.with_(vc_allocator="ova"))
        (flit,) = make_packet(dest=3, size=1, src=0)
        router.accept(0, flit)
        (f, cycle), = _drain(router)
        expected = (
            ROUTE_LATENCY + CFG.sa_latency
            + OVA_EXTRA_LATENCY + CFG.flit_cycles
        )
        assert cycle == expected

    def test_deeper_pipeline_than_baseline(self):
        """Figure 9: the high-radix router has higher zero-load latency."""
        from repro.routers.baseline import BaselineRouter

        def zero_load(cls, cfg):
            r = cls(cfg)
            (flit,) = make_packet(dest=3, size=1, src=0)
            r.accept(0, flit)
            (_, cycle), = _drain(r)
            return cycle

        assert zero_load(DistributedRouter, CFG) > zero_load(
            BaselineRouter, CFG
        )


class TestSpeculation:
    def test_speculative_failure_counted(self):
        """Two heads racing for the same output VC: the loser's re-bid
        gets killed by CVA while the VC is held."""
        cfg = CFG.with_(num_vcs=1)
        router = DistributedRouter(cfg)
        outcomes = _spec_outcomes(router)
        pa = make_packet(dest=2, size=4, src=0)
        pb = make_packet(dest=2, size=4, src=1)
        for f in pa:
            router.accept(0, f)
        for f in pb:
            router.accept(1, f)
        _drain(router, max_cycles=2000)
        assert ("cva", False) in outcomes

    def test_single_vc_packets_serialize_per_output(self):
        cfg = CFG.with_(num_vcs=1)
        router = DistributedRouter(cfg)
        pa = make_packet(dest=2, size=3, src=0)
        pb = make_packet(dest=2, size=3, src=1)
        for f in pa:
            router.accept(0, f)
        for f in pb:
            router.accept(1, f)
        out = _drain(router, max_cycles=2000)
        # With one VC, packet B may not start until packet A's tail has
        # released the VC: no interleaving of packet ids.
        ids = [f.packet_id for f, _ in out]
        assert ids == sorted(ids, key=lambda pid: ids.index(pid))
        first_tail = next(c for f, c in out if f.is_tail)
        second_head = [c for f, c in out if f.is_head][1]
        assert second_head >= first_tail

    def test_speculation_outcomes_reported(self):
        """Speculative bids reach the output arbiters and their CVA
        outcomes are reported, most of them hits at this load."""
        sim = SwitchSimulation(DistributedRouter(CFG), load=0.6)
        outcomes = _spec_outcomes(sim.router)
        for _ in range(500):
            sim.step()
        assert {kind for kind, _ in outcomes} == {"cva"}
        hits = sum(hit for _, hit in outcomes)
        assert hits > len(outcomes) - hits

    def test_nonspeculative_mode_never_fails_vc(self):
        """With speculation disabled, switch requests carry an already
        allocated VC, so no output-side VC kills occur."""
        cfg = CFG.with_(speculative=False)
        sim = SwitchSimulation(DistributedRouter(cfg), load=0.5,
                               packet_size=4)
        outcomes = _spec_outcomes(sim.router)
        for _ in range(800):
            sim.step()
        assert sim.router.stats.flits_ejected > 0
        assert outcomes == []


class TestCvaVsOva:
    def test_ova_wastes_output_cycles(self):
        cfg = RouterConfig(radix=16, num_vcs=1, subswitch_size=4,
                           local_group_size=4, vc_allocator="ova")
        sim = SwitchSimulation(DistributedRouter(cfg), load=0.9,
                               packet_size=4)
        outcomes = _spec_outcomes(sim.router)
        for _ in range(1500):
            sim.step()
        assert ("ova", False) in outcomes

    def test_cva_wastes_output_cycles_under_contention(self):
        """CVA runs VC allocation in parallel with switch arbitration,
        so a failing speculative winner wastes the output's cycle."""
        cfg = RouterConfig(radix=16, num_vcs=1, subswitch_size=4,
                           local_group_size=4, vc_allocator="cva")
        sim = SwitchSimulation(DistributedRouter(cfg), load=0.9,
                               packet_size=4)
        outcomes = _spec_outcomes(sim.router)
        for _ in range(1500):
            sim.step()
        assert ("cva", False) in outcomes

    def test_nonspeculative_mode_never_wastes_output_cycles(self):
        cfg = RouterConfig(radix=16, num_vcs=2, subswitch_size=4,
                           local_group_size=4, speculative=False)
        sim = SwitchSimulation(DistributedRouter(cfg), load=0.9,
                               packet_size=4)
        outcomes = _spec_outcomes(sim.router)
        for _ in range(1500):
            sim.step()
        assert sim.router.stats.flits_ejected > 0
        assert all(hit for _, hit in outcomes)

    def test_prioritization_reduces_wasted_cycles(self):
        """Figure 10(b)'s purpose: nonspeculative-first arbitration
        keeps failing speculative bids from stealing output slots."""
        cfg = RouterConfig(radix=16, num_vcs=1, subswitch_size=4,
                           local_group_size=4, input_buffer_depth=32)

        def wasted(c):
            sim = SwitchSimulation(DistributedRouter(c), load=1.0,
                                   packet_size=10)
            outcomes = _spec_outcomes(sim.router)
            for _ in range(1500):
                sim.step()
            return outcomes.count(("cva", False))

        assert wasted(cfg.with_(prioritize_nonspeculative=True)) < wasted(cfg)

    def test_cva_outperforms_ova_at_saturation(self):
        """Figure 9: CVA saturates above OVA."""
        cfg = RouterConfig(radix=16, num_vcs=4, subswitch_size=4,
                           local_group_size=4)
        cva = SwitchSimulation(DistributedRouter(cfg), load=1.0).run(FAST)
        ova = SwitchSimulation(
            DistributedRouter(cfg.with_(vc_allocator="ova")), load=1.0
        ).run(FAST)
        assert cva.throughput > ova.throughput


class TestPrioritized:
    def test_prioritized_allocator_runs(self):
        cfg = CFG.with_(prioritize_nonspeculative=True)
        sim = SwitchSimulation(DistributedRouter(cfg), load=0.5,
                               packet_size=4)
        r = sim.run(SweepSettings(warmup=200, measure=400, drain=3000))
        assert r.packets_measured > 0
        assert r.throughput > 0.3

    def test_prioritization_helps_with_one_vc(self):
        """Figure 11(a): with a single VC and long packets, the
        two-arbiter scheme raises saturation throughput."""
        cfg = RouterConfig(radix=16, num_vcs=1, subswitch_size=4,
                           local_group_size=4, input_buffer_depth=32)
        single = SwitchSimulation(
            DistributedRouter(cfg), load=1.0, packet_size=10
        ).run(FAST)
        dual = SwitchSimulation(
            DistributedRouter(cfg.with_(prioritize_nonspeculative=True)),
            load=1.0, packet_size=10,
        ).run(FAST)
        assert dual.throughput > single.throughput
