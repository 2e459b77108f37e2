"""Sharded-engine performance: multi-process speedup, checkpoint cost.

Two contracts from the sharding work are perf contracts, not
correctness contracts, so they live here:

* Splitting a radix-32 two-level Clos at high load across 4 worker
  processes must pay >= 1.8x wall-clock over the serial engine (on a
  machine with >= 4 usable cores — the phase-barrier protocol costs
  real pickling work per cycle, so on fewer cores sharding is a net
  slowdown and the speedup floor is unmeasurable, not failed).
* Saving and reloading a mid-run checkpoint of a radix-16 Clos must
  together cost <= 5.9% of the run it checkpoints.

Both also re-assert byte-identity with the serial engine, so a perf
regression can never be "fixed" by diverging results.
"""

import multiprocessing

import pytest

from common import paired_best

from repro.harness import load_checkpoint
from repro.network.netsim import NetworkConfig, NetworkSimulation
from repro.network.sharded import ShardedNetworkSimulation

#: Wall-clock floor for the 4-shard radix-32 Clos run vs. serial.
SPEEDUP_FLOOR = 1.8

#: Max fraction of a run's wall time one save+load cycle may cost
#: (ten interleaved readings on the reference host: 3.7-4.7%).
CKPT_OVERHEAD_CEILING = 0.059

#: Measurement program shared by the speedup comparison (short enough
#: to benchmark, long enough to amortize worker start-up).
WINDOWS = dict(warmup=300, measure=600, drain=3000)


@pytest.mark.skipif(
    multiprocessing.cpu_count() < 4,
    reason="4-shard speedup needs >= 4 cores to exist at all",
)
def test_perf_sharded_clos_speedup():
    """Radix-32 2-level Clos at high load: 4 shards must pay >= 1.8x."""
    config = NetworkConfig(radix=32, levels=2, seed=3)

    def serial():
        sim = NetworkSimulation(config, load=0.7)
        return sim.run(**WINDOWS)

    def sharded():
        sim = ShardedNetworkSimulation(config, load=0.7, shards=4)
        try:
            return sim.run(**WINDOWS)
        finally:
            sim.close()

    (serial_time, ref), (sharded_time, result) = paired_best(serial, sharded)
    assert result == ref, "sharded run diverged from serial"
    speedup = serial_time / sharded_time
    assert speedup >= SPEEDUP_FLOOR, (
        f"4-shard radix-32 Clos paid only {speedup:.2f}x "
        f"({serial_time:.2f}s serial vs {sharded_time:.2f}s sharded; "
        f"floor {SPEEDUP_FLOOR}x)"
    )


def test_perf_checkpoint_overhead(tmp_path):
    """One mid-run save+load must cost <= 5.9% of the checkpointed run.

    Measured on a radix-16 Clos with paper-scale windows: the capture
    size is a function of the network's steady state, not of run
    length, so the bound asserts the overhead is amortizable — a
    checkpoint every measurement program costs noise, not minutes.
    """
    config = NetworkConfig(radix=16, levels=2, seed=3)
    windows = dict(warmup=2000, measure=4000, drain=8000)
    path = tmp_path / "perf.ckpt"

    def full_run():
        sim = NetworkSimulation(config, load=0.6)
        return sim.run(**windows)

    sim = NetworkSimulation(config, load=0.6)
    sim.start_run(**windows)
    assert not sim.advance_run(stop_at=3000)

    # Saving is read-only for the live simulation, so the save+load
    # cycle can be repeated for noise-robust timing.
    def save_and_load():
        sim.save_checkpoint(path)
        load_checkpoint(path)

    (run_time, ref), (ckpt_time, _) = paired_best(full_run, save_and_load)
    resumed = load_checkpoint(path)

    # The reloaded simulation must still finish byte-identically.
    assert resumed.advance_run()
    assert resumed.finish_run() == ref

    overhead = ckpt_time / run_time
    assert overhead <= CKPT_OVERHEAD_CEILING, (
        f"checkpoint save+load cost {overhead:.1%} of the run "
        f"({ckpt_time * 1000:.0f}ms vs {run_time:.2f}s; "
        f"ceiling {CKPT_OVERHEAD_CEILING:.1%})"
    )
