"""Tests for the parallel sweep runner and the extension patterns."""

import random

import pytest

from repro.core.config import RouterConfig
from repro.harness.experiment import SweepSettings, run_load_sweep
from repro.routers.buffered import BufferedCrossbarRouter
from repro.traffic.patterns import NeighborExchange, Shuffle, Tornado

CFG = RouterConfig(radix=8, num_vcs=2, subswitch_size=4, local_group_size=4)
SETTINGS = SweepSettings(warmup=150, measure=300, drain=2000)
LOADS = [0.2, 0.5]


def _exploding_router(config):
    """Module-level (picklable) factory whose construction fails in the
    worker process."""
    raise RuntimeError("boom in worker")


class TestParallelSweep:
    def test_matches_serial_results(self):
        """Same seed, same points: parallel == serial, exactly."""
        serial = run_load_sweep(
            BufferedCrossbarRouter, CFG, LOADS, settings=SETTINGS
        )
        parallel = run_load_sweep(
            BufferedCrossbarRouter, CFG, LOADS, settings=SETTINGS,
            processes=2,
        )
        for a, b in zip(serial.results, parallel.results):
            assert a.avg_latency == b.avg_latency
            assert a.throughput == b.throughput
            assert a.packets_measured == b.packets_measured

    def test_sanitized_sweep_matches_serial(self):
        """The process pool forwards ``sanitize`` like every other
        per-point argument."""
        serial = run_load_sweep(
            BufferedCrossbarRouter, CFG, LOADS, settings=SETTINGS,
            sanitize=True,
        )
        parallel = run_load_sweep(
            BufferedCrossbarRouter, CFG, LOADS, settings=SETTINGS,
            sanitize=True, processes=2,
        )
        assert parallel.results == serial.results
        assert [r.extra for r in parallel.results] == [
            r.extra for r in serial.results
        ]

    def test_single_process_shortcut(self):
        sweep = run_load_sweep(
            BufferedCrossbarRouter, CFG, LOADS, settings=SETTINGS,
            processes=1,
        )
        assert len(sweep.results) == 2

    def test_default_label(self):
        sweep = run_load_sweep(
            BufferedCrossbarRouter, CFG, [0.2], settings=SETTINGS,
            processes=1,
        )
        assert sweep.label == "BufferedCrossbarRouter"

    def test_single_point_runs_inline(self):
        sweep = run_load_sweep(
            BufferedCrossbarRouter, CFG, [0.3], settings=SETTINGS,
            processes=None,
        )
        assert len(sweep.results) == 1

    def test_zero_processes_rejected(self):
        """Regression: ``processes=0`` fell through ``processes or
        min(...)`` to the default pool size, silently masking a caller
        bug.  It must raise instead."""
        with pytest.raises(ValueError, match="processes"):
            run_load_sweep(
                BufferedCrossbarRouter, CFG, LOADS, settings=SETTINGS,
                processes=0,
            )
        with pytest.raises(ValueError, match="processes"):
            run_load_sweep(
                BufferedCrossbarRouter, CFG, LOADS, settings=SETTINGS,
                processes=-2,
            )

    def test_worker_exception_propagates(self):
        """An exception inside a worker must surface in the parent
        (with the pool torn down cleanly), not hang or be swallowed."""
        with pytest.raises(RuntimeError, match="boom in worker"):
            run_load_sweep(
                _exploding_router, CFG, LOADS, settings=SETTINGS,
                processes=2,
            )

    def test_worker_exception_propagates_inline(self):
        """Same contract on the processes=1 (no-pool) shortcut."""
        with pytest.raises(RuntimeError, match="boom in worker"):
            run_load_sweep(
                _exploding_router, CFG, [0.3], settings=SETTINGS,
                processes=1,
            )


class TestTornado:
    def test_halfway_destination(self):
        pat = Tornado(8)
        rng = random.Random(0)
        assert pat.dest(0, rng) == 3
        assert pat.dest(5, rng) == 0

    def test_permutation_property(self):
        pat = Tornado(16)
        rng = random.Random(0)
        dests = {pat.dest(s, rng) for s in range(16)}
        assert dests == set(range(16))

    def test_odd_port_count(self):
        pat = Tornado(7)
        rng = random.Random(0)
        assert pat.dest(0, rng) == 3


class TestShuffle:
    def test_rotation(self):
        pat = Shuffle(8)
        rng = random.Random(0)
        assert pat.dest(0b001, rng) == 0b010
        assert pat.dest(0b100, rng) == 0b001

    def test_is_permutation(self):
        pat = Shuffle(16)
        rng = random.Random(0)
        assert {pat.dest(s, rng) for s in range(16)} == set(range(16))

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            Shuffle(12)

    def test_log2_iterations_return_home(self):
        pat = Shuffle(8)
        rng = random.Random(0)
        x = 5
        for _ in range(3):  # log2(8) rotations = identity
            x = pat.dest(x, rng)
        assert x == 5


class TestNeighborExchange:
    def test_pairs_swap(self):
        pat = NeighborExchange(8)
        rng = random.Random(0)
        assert pat.dest(0, rng) == 1
        assert pat.dest(1, rng) == 0
        assert pat.dest(6, rng) == 7

    def test_is_involution(self):
        pat = NeighborExchange(16)
        rng = random.Random(0)
        for s in range(16):
            assert pat.dest(pat.dest(s, rng), rng) == s

    def test_even_required(self):
        with pytest.raises(ValueError):
            NeighborExchange(7)
