"""Tests for metrics collection, result persistence, and the stream
contracts the sanitizer checks on a bare router."""

import math

import pytest

from repro.analysis.sanitizer import SimSanitizer
from repro.core.config import RouterConfig
from repro.core.errors import InvariantViolation
from repro.core.flit import make_packet
from repro.harness.experiment import SweepResult, SwitchSimulation
from repro.harness.metrics import Histogram, MetricsCollector
from repro.harness.persistence import (
    load_metadata,
    load_sweeps,
    result_from_dict,
    result_to_dict,
    save_sweeps,
)
from repro.harness.stats import RunResult
from repro.routers.buffered import BufferedCrossbarRouter
from repro.routers.hierarchical import HierarchicalCrossbarRouter

CFG = RouterConfig(radix=8, num_vcs=2, subswitch_size=4, local_group_size=4)


class TestHistogram:
    def test_bucket_zero_holds_sub_one(self):
        h = Histogram()
        h.add(0.5)
        assert h.counts == {0: 1}
        assert h.bucket_bounds(0) == (0.0, 1.0)

    def test_log_spacing(self):
        h = Histogram(base=2.0)
        h.add(1)   # [1, 2) -> bucket 1
        h.add(3)   # [2, 4) -> bucket 2
        h.add(5)   # [4, 8) -> bucket 3
        assert sorted(h.counts) == [1, 2, 3]

    def test_rows_ordered(self):
        h = Histogram()
        for v in (100, 1, 10):
            h.add(v)
        rows = h.rows()
        lowers = [lo for lo, _, _ in rows]
        assert lowers == sorted(lowers)

    def test_validation(self):
        h = Histogram()
        with pytest.raises(ValueError):
            h.add(-1)


class TestMetricsCollector:
    def test_collects_during_simulation(self):
        sim = SwitchSimulation(BufferedCrossbarRouter(CFG), load=0.5)
        metrics = MetricsCollector(CFG.radix, sample_every=4).attach(sim)
        sim.run_until(400)
        assert metrics.delivered_flits > 0
        assert metrics.latency.total > 0
        assert metrics.occupancy_samples
        assert metrics.backlog_samples
        assert metrics.load_imbalance() >= 1.0

    def test_summary_renders(self):
        sim = SwitchSimulation(HierarchicalCrossbarRouter(CFG), load=0.4)
        metrics = MetricsCollector(CFG.radix).attach(sim)
        sim.run_until(300)
        text = metrics.summary()
        assert "latency histogram" in text
        assert "load imbalance" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            MetricsCollector(0)
        with pytest.raises(ValueError):
            MetricsCollector(4, sample_every=0)


class TestPersistence:
    def _result(self, load=0.5):
        return RunResult(
            offered_load=load, avg_latency=12.5, p99_latency=30.0,
            max_latency=55, throughput=load, packets_measured=100,
            cycles=4000, saturated=False, extra={"undelivered": 0.0},
        )

    def test_result_roundtrip(self):
        r = self._result()
        back = result_from_dict(result_to_dict(r))
        assert back == r

    def test_sweep_file_roundtrip(self, tmp_path):
        sweeps = [
            SweepResult("alpha", [self._result(0.1), self._result(0.5)]),
            SweepResult("beta", [self._result(0.3)]),
        ]
        path = tmp_path / "results.json"
        save_sweeps(path, sweeps, metadata={"radix": 32, "figure": "9"})
        loaded = load_sweeps(path)
        assert [s.label for s in loaded] == ["alpha", "beta"]
        assert loaded[0].results == sweeps[0].results
        assert load_metadata(path) == {"radix": 32, "figure": "9"}

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 99, "sweeps": []}')
        with pytest.raises(ValueError):
            load_sweeps(path)

    def test_nan_latency_serializes_as_null(self, tmp_path):
        """Empty-sample runs report avg_latency=NaN; json.dump would
        emit the bare token ``NaN``, which is not valid JSON.  The file
        must carry ``null`` instead — and round-trip back to NaN."""
        r = RunResult(
            offered_load=0.0, avg_latency=float("nan"),
            p99_latency=float("nan"), max_latency=float("nan"),
            throughput=0.0,
            packets_measured=0, cycles=100, saturated=False,
        )
        path = tmp_path / "empty.json"
        save_sweeps(path, [SweepResult("empty", [r])])
        text = path.read_text()
        assert "NaN" not in text
        assert '"avg_latency": null' in text
        assert '"max_latency": null' in text
        import json
        json.loads(text)  # strict parsers must accept the file
        (loaded,) = load_sweeps(path)
        back = loaded.results[0]
        assert math.isnan(back.avg_latency)
        assert math.isnan(back.p99_latency)
        assert math.isnan(back.max_latency)
        assert back.packets_measured == 0

    def test_finite_latency_unaffected_by_null_mapping(self):
        d = result_to_dict(self._result())
        assert d["avg_latency"] == 12.5
        assert d["p99_latency"] == 30.0


class TestCheckedRouter:
    """The per-flit stream contracts, with :class:`SimSanitizer`
    observing an unwrapped router."""

    def test_clean_run_passes(self):
        sim = SwitchSimulation(BufferedCrossbarRouter(CFG), load=0.5,
                               sanitize=True)
        for _ in range(400):
            sim.step()
        sim.stop_sources()
        for _ in range(2000):
            sim.step()
            if sim.router.idle():
                break
        # Only source-queue stragglers may remain unaccepted; every
        # accepted flit was delivered.
        sim.sanitizer.assert_drained()
        assert sim.sanitizer.violations_checked > 0

    def test_double_accept_detected(self):
        router = BufferedCrossbarRouter(CFG)
        SimSanitizer(router)
        (flit,) = make_packet(dest=1, size=1, src=0)
        router.accept(0, flit)
        with pytest.raises(InvariantViolation) as exc:
            router.accept(1, flit)
        assert exc.value.check == "stream-conservation"
        assert exc.value.port == 1

    def test_phantom_ejection_detected(self):
        router = BufferedCrossbarRouter(CFG)
        SimSanitizer(router)
        head, tail = make_packet(dest=1, size=2, src=0)
        # Push the head straight into the bank, bypassing accept(): the
        # router delivers a flit the sanitizer never saw enter.  (The
        # tail goes through accept(), so the packet is live and owning
        # its output VC is no stale-ownership fault.)
        router.inputs[0].queues[0].push(head)
        router._in_flits[0] += 1
        router.stats.flits_accepted += 1
        router.accept(0, tail)
        with pytest.raises(InvariantViolation) as exc:
            for _ in range(100):
                router.step()
        assert exc.value.check == "stream-conservation"
        assert exc.value.port == 1

    def test_undrained_flit_detected(self):
        router = BufferedCrossbarRouter(CFG)
        sanitizer = SimSanitizer(router)
        (flit,) = make_packet(dest=1, size=1, src=0)
        router.accept(0, flit)
        with pytest.raises(InvariantViolation) as exc:
            sanitizer.assert_drained()
        assert exc.value.check == "drain"
