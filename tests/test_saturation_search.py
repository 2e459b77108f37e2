"""Tests for the saturation-load binary search and network sweeps."""

import pytest

from repro.core.config import RouterConfig
from repro.harness.experiment import (
    SweepSettings,
    find_saturation_load,
    saturation_throughput,
)
from repro.network import NetworkConfig, run_network_sweep
from repro.routers.buffered import BufferedCrossbarRouter
from repro.routers.distributed import DistributedRouter
from tests.exhaustive import never_jump

CFG = RouterConfig(radix=16, num_vcs=4, subswitch_size=4, local_group_size=4)
SETTINGS = SweepSettings(warmup=300, measure=500, drain=4000)


class TestFindSaturationLoad:
    def test_buffered_saturates_near_full_load(self):
        load = find_saturation_load(
            BufferedCrossbarRouter, CFG, settings=SETTINGS, tolerance=0.05
        )
        assert load > 0.85

    def test_distributed_saturates_earlier(self):
        buffered = find_saturation_load(
            BufferedCrossbarRouter, CFG, settings=SETTINGS, tolerance=0.05
        )
        distributed = find_saturation_load(
            DistributedRouter, CFG, settings=SETTINGS, tolerance=0.05
        )
        assert distributed < buffered

    def test_agrees_with_saturation_throughput(self):
        """The knee of the latency curve sits near the accepted
        throughput plateau."""
        sat_settings = SweepSettings(warmup=400, measure=800, drain=50)
        knee = find_saturation_load(
            DistributedRouter, CFG, settings=SETTINGS, tolerance=0.05
        )
        plateau = saturation_throughput(
            DistributedRouter, CFG, settings=sat_settings
        )
        assert abs(knee - plateau) < 0.15

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            find_saturation_load(
                BufferedCrossbarRouter, CFG, settings=SETTINGS, tolerance=0.0
            )


class TestSaturationHelperPlumbing:
    """The saturation helpers used to silently drop simulation options
    (``find_saturation_load`` also ``avg_burst``), so every inner run
    fell back to the defaults."""

    def _record_kwargs(self, monkeypatch):
        from repro.harness import experiment

        seen = []
        real = experiment.SwitchSimulation

        class Recorder(real):
            def __init__(self, *args, **kwargs):
                seen.append(dict(kwargs))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(experiment, "SwitchSimulation", Recorder)
        return seen

    def test_saturation_throughput_forwards_seed(self, monkeypatch):
        seen = self._record_kwargs(monkeypatch)
        saturation_throughput(
            BufferedCrossbarRouter, CFG, settings=SETTINGS, seed=11,
        )
        assert seen and all(k["seed"] == 11 for k in seen)

    def test_find_saturation_load_forwards_both(self, monkeypatch):
        seen = self._record_kwargs(monkeypatch)
        find_saturation_load(
            BufferedCrossbarRouter, CFG, settings=SETTINGS, tolerance=0.2,
            injection="onoff", avg_burst=3.0, seed=11,
        )
        assert seen
        assert all(k["seed"] == 11 for k in seen)
        assert all(k["avg_burst"] == 3.0 for k in seen)

    def test_event_scheduler_matches_cycle(self, monkeypatch):
        """Fast-forward is semantics-preserving, so both helpers must
        report identical numbers when every inner run steps every
        cycle (``never_jump``)."""
        from repro.harness import experiment

        def measure():
            thr = saturation_throughput(
                BufferedCrossbarRouter, CFG, settings=SETTINGS, load=0.6,
            )
            knee = find_saturation_load(
                BufferedCrossbarRouter, CFG, settings=SETTINGS,
                tolerance=0.1,
            )
            return thr, knee

        event = measure()

        class NeverJump(experiment.SwitchSimulation):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                never_jump(self)

        monkeypatch.setattr(experiment, "SwitchSimulation", NeverJump)
        assert measure() == event


class TestNetworkSweep:
    def test_curve_shape(self):
        sweep = run_network_sweep(
            NetworkConfig(radix=8, levels=2, num_vcs=2),
            loads=[0.1, 0.5],
            label="clos",
            warmup=300, measure=400, drain=3000,
        )
        assert sweep.label == "clos"
        assert len(sweep.results) == 2
        assert sweep.results[1].avg_latency > sweep.results[0].avg_latency

    @pytest.mark.parametrize("lever", [{"processes": 2}, {"shards": 2}])
    def test_process_pool_and_shards_match_serial(self, lever):
        """Point-level and cycle-level parallelism are both invisible
        in the rows (extras included)."""
        kwargs = dict(loads=[0.1, 0.4], warmup=200, measure=300, drain=2000)
        cfg = NetworkConfig(radix=8, levels=2)
        serial = run_network_sweep(cfg, **kwargs)
        parallel = run_network_sweep(cfg, **kwargs, **lever)
        assert parallel.results == serial.results
        assert [r.extra for r in parallel.results] == [
            r.extra for r in serial.results
        ]

    def test_default_label(self):
        sweep = run_network_sweep(
            NetworkConfig(radix=8, levels=2), loads=[0.1],
            warmup=200, measure=300, drain=2000,
        )
        assert sweep.label == "network"

    def test_with_explicit_topology(self):
        from repro.network import Mesh

        sweep = run_network_sweep(
            NetworkConfig(radix=6, num_vcs=2), loads=[0.2],
            topology=Mesh((3, 3)),
            warmup=200, measure=300, drain=3000,
        )
        assert sweep.results[0].packets_measured > 0
