"""Tests for the network router and the Clos network simulation."""

import pytest

from repro.core.errors import InvariantViolation
from repro.core.flit import make_packet
from repro.network.netsim import NetworkConfig, NetworkSimulation
from repro.network.router import (
    NetworkRouter,
    NetworkRouterConfig,
    OutputLink,
    pipeline_depth_for_radix,
)
from repro.network.topology import FoldedClos, PortRef


class TestNetworkRouterConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkRouterConfig(num_ports=1)
        with pytest.raises(ValueError):
            NetworkRouterConfig(num_ports=4, num_vcs=0)
        with pytest.raises(ValueError):
            NetworkRouterConfig(num_ports=4, buffer_depth=0)

    @pytest.mark.parametrize("field, value, told", [
        ("packet_size", 0, "packet_size must be >= 1, got 0"),
        ("packet_size", -1, "packet_size must be >= 1, got -1"),
        ("pipeline_delay", -10, "pipeline_delay must be >= 0, got -10"),
        ("channel_latency", -6, "channel_latency must be >= 0, got -6"),
    ])
    def test_network_config_fields_are_validated(self, field, value, told):
        """Regression: packet_size 0 raised ZeroDivisionError, -1 ran
        with throughput 0, and a negative delay delivered flits "sent
        into the past" (2.96-cycle Clos latency at flit_cycles 4)."""
        with pytest.raises(ValueError, match=told):
            NetworkSimulation(
                NetworkConfig(radix=4, levels=2, **{field: value}), 0.3
            )

    @pytest.mark.parametrize("field", ["pipeline_delay", "channel_latency"])
    def test_router_delays_are_validated(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 0"):
            NetworkRouterConfig(num_ports=4, **{field: -1})
        NetworkRouterConfig(num_ports=4, **{field: 0})

    @pytest.mark.parametrize("value", [0, -1])
    def test_credit_latency_below_one_is_refused_by_name(self, value):
        """Regression: a credit pushed during a commit is first popped
        by the next cycle's compute, so 0 ran exactly as 1 (same row at
        load 0.8 on two-deep single-VC buffers), and -1 surfaced as the
        delay line's unnamed "latency must be >= 0"."""
        told = f"credit_latency must be >= 1, got {value}"
        with pytest.raises(ValueError, match=told):
            NetworkRouterConfig(num_ports=4, credit_latency=value)
        with pytest.raises(ValueError, match=told):
            NetworkSimulation(
                NetworkConfig(radix=4, levels=2, credit_latency=value), 0.3
            )
        NetworkRouterConfig(num_ports=4, credit_latency=1)

    def test_pipeline_depth_scales_with_radix(self):
        assert pipeline_depth_for_radix(64) > pipeline_depth_for_radix(8)


class TestNetworkRouterForwarding:
    def _router_pair(self):
        cfg = NetworkRouterConfig(num_ports=4, num_vcs=2, buffer_depth=4,
                                  flit_cycles=2, pipeline_delay=1,
                                  channel_latency=1, credit_latency=1)
        a = NetworkRouter(cfg, "a")
        b = NetworkRouter(cfg, "b")
        arrivals = []

        def to_b(flit, arrival):
            arrivals.append((flit, arrival, "b"))

        sink_hits = []

        def to_sink(flit, arrival):
            sink_hits.append((flit, arrival))

        a.attach(0, OutputLink(2, to_b, downstream_depth=4))
        for p in range(1, 4):
            a.attach(p, OutputLink(2, to_sink, downstream_depth=None))
        for p in range(4):
            b.attach(p, OutputLink(2, to_sink, downstream_depth=None))
        return a, b, arrivals, sink_hits

    def test_flit_forwarded_along_route(self):
        a, b, arrivals, sink_hits = self._router_pair()
        (flit,) = make_packet(dest=99, size=1, src=0, route=[0, 2])
        flit.vc = 1
        a.accept(1, flit)
        for _ in range(20):
            a.step()
            b.step()
        assert len(arrivals) == 1
        assert arrivals[0][0] is flit
        assert flit.hops == 1

    def test_sink_delivery(self):
        a, b, arrivals, sink_hits = self._router_pair()
        (flit,) = make_packet(dest=99, size=1, src=0, route=[2])
        a.accept(0, flit)
        for _ in range(20):
            a.step()
        assert len(sink_hits) == 1

    def test_credit_exhaustion_blocks(self):
        """With all downstream credits consumed, no further flit wins."""
        cfg = NetworkRouterConfig(num_ports=4, num_vcs=1, buffer_depth=8,
                                  flit_cycles=2, pipeline_delay=1,
                                  channel_latency=1, credit_latency=1)
        a = NetworkRouter(cfg, "a")
        arrivals = []
        a.attach(0, OutputLink(1, lambda f, t: arrivals.append(f),
                               downstream_depth=2))
        for p in range(1, 4):
            a.attach(p, OutputLink(1, lambda f, t: None, None))
        for _ in range(6):
            (flit,) = make_packet(dest=99, size=1, src=0, route=[0, 2])
            a.accept(0, flit)
        for _ in range(40):
            a.step()  # the downstream never returns credits
        assert a._credit_out is not None
        assert len(arrivals) <= 2
        assert a.occupancy() == 4  # the rest wait for credits

    def test_route_exhaustion_raises(self):
        a, b, *_ = self._router_pair()
        (flit,) = make_packet(dest=99, size=1, src=0, route=[])
        a.accept(0, flit)
        with pytest.raises(RuntimeError):
            for _ in range(5):
                a.step()

    def test_double_attach_rejected(self):
        cfg = NetworkRouterConfig(num_ports=2)
        r = NetworkRouter(cfg)
        link = OutputLink(1, lambda f, t: None, None)
        r.attach(0, link)
        with pytest.raises(RuntimeError):
            r.attach(0, link)


class TestClosNetworkSimulation:
    CFG = NetworkConfig(radix=8, levels=2, num_vcs=2, buffer_depth=4)

    def test_packets_delivered(self):
        sim = NetworkSimulation(self.CFG, load=0.3)
        r = sim.run(warmup=200, measure=300, drain=2000)
        assert r.packets_measured > 0
        assert not r.saturated

    def test_throughput_tracks_offered_load(self):
        sim = NetworkSimulation(self.CFG, load=0.4)
        r = sim.run(warmup=300, measure=500, drain=2000)
        assert r.throughput == pytest.approx(0.4, abs=0.08)

    def test_latency_grows_with_load(self):
        lo = NetworkSimulation(self.CFG, load=0.1).run(200, 300, 2000)
        hi = NetworkSimulation(self.CFG, load=0.7).run(300, 500, 4000)
        assert hi.avg_latency > lo.avg_latency

    def test_high_radix_lower_zero_load_latency(self):
        """Figure 19: the high-radix network wins at zero load."""
        high = NetworkSimulation(
            NetworkConfig(radix=16, levels=2), load=0.05
        ).run(200, 400, 2000)
        low = NetworkSimulation(
            NetworkConfig(radix=8, levels=3), load=0.05
        ).run(200, 400, 2000)
        assert high.avg_latency < low.avg_latency

    def test_deterministic(self):
        a = NetworkSimulation(self.CFG, load=0.3).run(200, 300, 2000)
        b = NetworkSimulation(self.CFG, load=0.3).run(200, 300, 2000)
        assert a.avg_latency == b.avg_latency
        assert a.throughput == b.throughput

    def test_invalid_load(self):
        with pytest.raises(ValueError):
            NetworkSimulation(self.CFG, load=1.5)

    def test_unattached_host_is_refused_at_construction(self):
        class Detached(FoldedClos):
            def host_attachment(self, host):
                if host == 3:
                    return PortRef(switch=None, port=0)
                return super().host_attachment(host)

        with pytest.raises(ValueError, match="host 3 attaches to no switch"):
            NetworkSimulation(self.CFG, 0.3, topology=Detached(8, 2))

    @pytest.mark.parametrize("sanitize", [False, True])
    def test_wrong_host_ejection_is_a_routing_violation(self, sanitize):
        """Regression: a flit ejected at the host beside its destination
        was counted as delivered, sanitizer or not (a radix-8 Clos with
        every last hop shifted by one ran to throughput 0.255)."""

        class Misrouted(FoldedClos):
            def route(self, src_host, dst_host, rng):
                ports = super().route(src_host, dst_host, rng)
                ports[-1] = (ports[-1] + 1) % self.m
                return ports

        sim = NetworkSimulation(self.CFG, 0.3, topology=Misrouted(8, 2),
                                sanitize=sanitize)
        with pytest.raises(InvariantViolation) as err:
            sim.run(warmup=200, measure=300, drain=2000)
        violation = err.value
        assert violation.check == "routing"
        dest, host = violation.context["dest"], violation.context["host"]
        assert host == dest - dest % 4 + (dest + 1) % 4
        assert f"for host {dest} ejected at host {host}" in str(violation)

    def test_multi_flit_packets(self):
        cfg = NetworkConfig(radix=8, levels=2, packet_size=4)
        sim = NetworkSimulation(cfg, load=0.3)
        r = sim.run(warmup=300, measure=400, drain=3000)
        assert r.packets_measured > 0
