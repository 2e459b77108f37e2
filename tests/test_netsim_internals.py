"""Deeper tests of the network simulator's flow control and plumbing."""

import pytest

from repro.network.netsim import (
    NetworkConfig,
    NetworkSimulation,
)
from repro.network.mesh import Mesh
from repro.network.topology import FoldedClos


class TestFlowControlIntegrity:
    def test_credits_restored_after_drain(self):
        """After traffic stops and drains, every inter-router credit
        counter must be back at capacity and every VC free."""
        cfg = NetworkConfig(radix=8, levels=2, num_vcs=2, buffer_depth=4)
        sim = NetworkSimulation(cfg, load=0.5)
        for _ in range(600):
            sim.step()
        # Stop generation by dropping every queued arrival, then drain.
        sim.arrivals.stop()
        for _ in range(6000):
            sim.step()
            if (
                all(r.occupancy() == 0 for r in sim.routers.values())
                and not sim._inflight
                and not any(sim._source_q)
            ):
                break
        for router in sim.routers.values():
            assert router.occupancy() == 0
            for link in router.links:
                if link is None or link.credits is None:
                    continue
                for counter in link.credits:
                    assert counter.free == counter.capacity
                for vc in range(cfg.num_vcs):
                    assert link.vc_state.is_free(vc)

    def test_no_flit_left_behind(self):
        """Labeled packet conservation: measured packets all arrive."""
        cfg = NetworkConfig(radix=8, levels=2, num_vcs=2)
        sim = NetworkSimulation(cfg, load=0.4)
        r = sim.run(warmup=300, measure=400, drain=8000)
        assert not r.saturated
        assert sim._outstanding == 0


class TestTopologyAgnosticism:
    @pytest.mark.parametrize("topology", [
        FoldedClos(8, 2),
        FoldedClos(4, 3),
        Mesh((3, 3)),
        Mesh((2, 2, 2), concentration=2),
    ], ids=["clos-8-2", "clos-4-3", "mesh-3x3", "mesh-2x2x2-c2"])
    def test_every_topology_delivers(self, topology):
        cfg = NetworkConfig(radix=8, num_vcs=2, buffer_depth=4)
        sim = NetworkSimulation(cfg, load=0.25, topology=topology)
        r = sim.run(warmup=250, measure=350, drain=4000)
        assert r.packets_measured > 0
        assert not r.saturated

    def test_explicit_topology_overrides_config(self):
        """radix/levels in the config are ignored when a topology is
        given."""
        topo = Mesh((3, 3))
        sim = NetworkSimulation(
            NetworkConfig(radix=64, levels=3), load=0.2, topology=topo
        )
        assert sim.topology is topo
        assert len(sim.routers) == 9


class TestChannelTiming:
    def test_minimum_network_latency(self):
        """A packet pays at least hops * (flit + pipeline + channel)."""
        cfg = NetworkConfig(radix=8, levels=2, num_vcs=2,
                            pipeline_delay=3, channel_latency=1)
        sim = NetworkSimulation(cfg, load=0.02)
        r = sim.run(warmup=100, measure=500, drain=4000)
        per_hop = cfg.flit_cycles + 3 + cfg.channel_latency
        assert r.avg_latency >= per_hop  # at least one router hop

    def test_channel_latency_adds_up(self):
        slow = NetworkConfig(radix=8, levels=2, channel_latency=10)
        fast = NetworkConfig(radix=8, levels=2, channel_latency=1)
        r_slow = NetworkSimulation(slow, 0.05).run(100, 400, 4000)
        r_fast = NetworkSimulation(fast, 0.05).run(100, 400, 4000)
        # Average ~2.5 hops: expect roughly 9 * 2.5 extra cycles.
        assert r_slow.avg_latency - r_fast.avg_latency > 10

    def test_pipeline_depth_increases_latency(self):
        shallow = NetworkConfig(radix=8, levels=2, pipeline_delay=1)
        deep = NetworkConfig(radix=8, levels=2, pipeline_delay=8)
        r_sh = NetworkSimulation(shallow, 0.05).run(100, 400, 4000)
        r_dp = NetworkSimulation(deep, 0.05).run(100, 400, 4000)
        assert r_dp.avg_latency > r_sh.avg_latency + 5
