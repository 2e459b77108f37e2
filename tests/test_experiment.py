"""Tests for the SwitchSimulation harness and sweep drivers."""

import pytest

from repro.core.config import ROUTE_LATENCY, RouterConfig
from repro.harness.experiment import (
    SweepSettings,
    SwitchSimulation,
    run_load_sweep,
    saturation_throughput,
)
from repro.network.netsim import NetworkConfig, NetworkSimulation
from repro.routers.buffered import BufferedCrossbarRouter
from repro.routers.distributed import DistributedRouter
from repro.traffic.patterns import Diagonal

CFG = RouterConfig(radix=8, num_vcs=2, subswitch_size=4, local_group_size=4)


def _ejected(sim):
    """The flits ``sim`` ejects from here on, as they leave."""
    flits = []
    sim.hooks.on_flit_move(
        lambda kind, flit, port, cycle: kind == "eject" and flits.append(flit)
    )
    return flits


class TestSwitchSimulation:
    def test_invalid_load(self):
        with pytest.raises(ValueError):
            SwitchSimulation(DistributedRouter(CFG), load=1.2)

    def test_invalid_injection(self):
        with pytest.raises(ValueError):
            SwitchSimulation(DistributedRouter(CFG), load=0.5,
                             injection="pareto")

    def test_throughput_tracks_offered_load_below_saturation(self):
        sim = SwitchSimulation(BufferedCrossbarRouter(CFG), load=0.4)
        r = sim.run(SweepSettings(warmup=300, measure=600, drain=4000))
        assert r.throughput == pytest.approx(0.4, abs=0.05)
        assert not r.saturated

    def test_saturated_flag_at_overload(self):
        sim = SwitchSimulation(DistributedRouter(CFG), load=1.0)
        r = sim.run(SweepSettings(warmup=300, measure=600, drain=30))
        assert r.saturated
        assert r.extra["source_backlog"] > 0

    def test_latency_includes_source_queueing(self):
        """Latency is measured from generation, so it exceeds the bare
        pipeline delay even at low load."""
        sim = SwitchSimulation(DistributedRouter(CFG), load=0.05)
        r = sim.run(SweepSettings(warmup=100, measure=400, drain=3000))
        min_pipeline = ROUTE_LATENCY + CFG.sa_latency + CFG.flit_cycles
        assert r.avg_latency >= min_pipeline

    def test_vc_assignment_round_robins(self):
        sim = SwitchSimulation(BufferedCrossbarRouter(CFG), load=0.8)
        delivered = _ejected(sim)
        sim.run_until(400)
        assert {f.vc for f in delivered} == {0, 1}

    def test_onoff_injection_runs(self):
        sim = SwitchSimulation(BufferedCrossbarRouter(CFG), load=0.5,
                               injection="onoff")
        r = sim.run(SweepSettings(warmup=300, measure=500, drain=4000))
        assert r.packets_measured > 0

    def test_custom_pattern(self):
        sim = SwitchSimulation(
            BufferedCrossbarRouter(CFG), load=0.5, pattern=Diagonal(8),
        )
        delivered = _ejected(sim)
        sim.run_until(300)
        assert delivered
        for f in delivered:
            assert f.dest in (f.src, (f.src + 1) % 8)

    def test_stop_sources(self):
        sim = SwitchSimulation(BufferedCrossbarRouter(CFG), load=1.0)
        for _ in range(100):
            sim.step()
        sim.stop_sources()
        before = sum(s.packets_generated for s in sim.sources)
        for _ in range(50):
            sim.step()
        after = sum(s.packets_generated for s in sim.sources)
        assert before == after


def _measure_run(stack, warmup=20, measure=20, drain=20, **extra):
    """Start (and finish) a small measurement run on ``stack``."""
    if stack == "switch":
        sim = SwitchSimulation(BufferedCrossbarRouter(CFG), load=0.3)
        sim.start_run(SweepSettings(warmup, measure, drain, **extra))
    else:
        sim = NetworkSimulation(NetworkConfig(radix=4, levels=2), 0.3)
        sim.start_run(warmup=warmup, measure=measure, drain=drain)
    sim.advance_run()
    return sim, sim.finish_run()


class TestRunWindows:
    @pytest.mark.parametrize("stack", ["switch", "network"])
    @pytest.mark.parametrize("window, told", [
        ({"warmup": -10}, "warmup must be >= 0, got -10"),
        ({"measure": 0}, "measure must be >= 1, got 0"),
        ({"measure": -5}, "measure must be >= 1, got -5"),
        ({"drain": -1}, "drain must be >= 0, got -1"),
    ])
    def test_negative_or_empty_window_is_refused(self, stack, window, told):
        """Regression: these windows ran and reported throughput 0 with
        latency nan, or (negative warm-up) measured from cycle 0."""
        with pytest.raises(ValueError, match=told):
            _measure_run(stack, **window)

    @pytest.mark.parametrize("fraction", [-0.1, 1.5])
    def test_drain_fraction_outside_unit_interval_is_refused(self, fraction):
        with pytest.raises(ValueError, match="min_drain_fraction"):
            _measure_run("switch", min_drain_fraction=fraction)

    @pytest.mark.parametrize("stack", ["switch", "network"])
    def test_smallest_windows_still_run(self, stack):
        sim, result = _measure_run(stack, warmup=0, measure=1, drain=0)
        assert sim.cycle == 1 and result.cycles == 1


class TestSweepSettings:
    def test_scaled(self):
        s = SweepSettings(warmup=1000, measure=2000, drain=10000)
        half = s.scaled(0.5)
        assert half.warmup == 500
        assert half.measure == 1000
        assert half.drain == 5000

    def test_scaled_floors_at_one(self):
        s = SweepSettings(warmup=10, measure=10, drain=10)
        tiny = s.scaled(0.001)
        assert tiny.warmup >= 1


class TestSweeps:
    SETTINGS = SweepSettings(warmup=200, measure=400, drain=2000)

    def test_run_load_sweep_produces_curve(self):
        sweep = run_load_sweep(
            BufferedCrossbarRouter, CFG, loads=[0.2, 0.5],
            label="buffered", settings=self.SETTINGS,
        )
        assert sweep.label == "buffered"
        assert sweep.loads == [0.2, 0.5]
        assert len(sweep.latencies) == 2
        assert sweep.results[1].avg_latency >= sweep.results[0].avg_latency

    def test_zero_load_latency_helper(self):
        sweep = run_load_sweep(
            BufferedCrossbarRouter, CFG, loads=[0.6, 0.1],
            settings=self.SETTINGS,
        )
        assert sweep.zero_load_latency() == sweep.results[1].avg_latency

    def test_saturation_throughput_helper(self):
        thpt = saturation_throughput(
            BufferedCrossbarRouter, CFG,
            settings=SweepSettings(warmup=300, measure=500, drain=30),
        )
        assert 0.8 < thpt <= 1.05

    def test_default_label_is_router_class(self):
        sweep = run_load_sweep(
            DistributedRouter, CFG, loads=[0.1], settings=self.SETTINGS
        )
        assert sweep.label == "DistributedRouter"
