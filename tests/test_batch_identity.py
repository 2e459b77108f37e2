"""Byte-identity of the batched hot path beyond the golden snapshots.

The goldens (tests/test_golden_results.py) pin results and extras for
``batch_hot_path`` on and off.  These tests pin the remaining
observable surfaces for the one organization that still has an array
twin, the buffered crossbar: Chrome trace bytes, fault-injection runs
(whose injector draws interleave with the stage order), and checkpoint
round-trips taken mid-run with the batched path enabled.
"""

import pytest

from repro.core.batch import HAVE_NUMPY, ArrayBusyTracker
from repro.core.config import RouterConfig
from repro.faults import FaultPlan, StuckFault
from repro.harness.experiment import SwitchSimulation, SweepSettings
from repro.harness.checkpoint import load_checkpoint
from repro.network.netsim import NetworkConfig
from repro.routers.baseline import BaselineRouter
from repro.routers.buffered import BufferedCrossbarRouter
from repro.routers.voq import VoqRouter
from repro.trace import TraceCollector, chrome_trace_json
from tests.exhaustive import CLOCKS, clocked

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="batched hot path requires numpy"
)

CFG = RouterConfig(radix=8, num_vcs=2, subswitch_size=4,
                   local_group_size=4, seed=13)
FAST = SweepSettings(warmup=100, measure=200, drain=2000)
ROUTERS = [BufferedCrossbarRouter]


def _pair(cfg):
    return cfg, cfg.with_(batch_hot_path=True)


def _run(router_cls, cfg, **kw):
    sim = SwitchSimulation(router_cls(cfg), load=0.5, packet_size=2, **kw)
    return sim.run(FAST)


class TestTraceBytes:
    @pytest.mark.parametrize("router_cls", ROUTERS)
    def test_chrome_trace_identical(self, router_cls):
        blobs = []
        for cfg in _pair(CFG):
            sim = SwitchSimulation(router_cls(cfg), load=0.5, packet_size=2)
            collector = TraceCollector().attach(sim)
            sim.run(FAST)
            blobs.append(chrome_trace_json(collector))
        assert blobs[0] == blobs[1]


class TestFaultRuns:
    @pytest.mark.parametrize("router_cls", ROUTERS)
    def test_injected_run_identical(self, router_cls):
        plan = FaultPlan(
            corrupt_rate=0.02,
            credit_loss_rate=0.01,
            stuck=(StuckFault(cycle=120, where=(1, 0), kind="crosspoint",
                              until=260),),
        )
        results = [
            _run(router_cls, cfg, faults=plan) for cfg in _pair(CFG)
        ]
        assert results[0].extra["stats.faults.corrupt"] > 0
        assert results[0].__dict__ == results[1].__dict__


class TestDeletedTwins:
    """The Clos, VOQ and baseline array twins measured behind or tied
    everywhere and were deleted, not defaulted off."""

    def test_network_option_is_gone(self):
        with pytest.raises(TypeError):
            NetworkConfig(batch_hot_path=True)

    def test_voq_ignores_the_flag(self):
        router = VoqRouter(CFG.with_(batch_hot_path=True))
        assert not hasattr(router, "_b_voq") and not any(
            isinstance(tracker, ArrayBusyTracker)
            for tracker in (router.input_busy, router.output_busy)
        )

    def test_baseline_ignores_the_flag(self):
        router = BaselineRouter(CFG.with_(batch_hot_path=True))
        assert not hasattr(router, "_b_in") and not any(
            isinstance(tracker, ArrayBusyTracker)
            for tracker in (router.input_busy, router.output_busy)
        )


class TestCheckpointInterop:
    @pytest.mark.parametrize("router_cls", ROUTERS)
    @pytest.mark.parametrize("clock", CLOCKS)
    def test_mid_run_checkpoint_resumes_identically(
        self, tmp_path, router_cls, clock
    ):
        cfg = CFG.with_(batch_hot_path=True)

        ref = clocked(SwitchSimulation(router_cls(cfg), load=0.5,
                                       packet_size=2), clock)
        ref.start_run(FAST)
        assert ref.advance_run()
        expect = ref.finish_run()

        twin = clocked(SwitchSimulation(router_cls(cfg), load=0.5,
                                        packet_size=2), clock)
        twin.start_run(FAST)
        done = twin.advance_run(stop_at=150)
        path = tmp_path / "batch.ckpt"
        twin.save_checkpoint(path)
        resumed = load_checkpoint(path)
        if not done:
            assert resumed.advance_run()
        got = resumed.finish_run()
        assert got == expect
        assert got.extra == expect.extra
