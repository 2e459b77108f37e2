"""The five benchmark workloads: how each is built, run and checked.

Each is a closed batch job -- "work completed per host second at a
stated input size" -- and one *rep* of it is what one sweep point
costs a user: build the simulation, run it, summarize, persist the
row.  The seed reaches the simulator only as ``RouterConfig.seed`` /
``NetworkConfig.seed``.

Sizes are the issue's quiet-box sizes shrunk by ``REP_SHRINK`` so that
ten reps, their calibration and five set-up probes fit the driver's
per-run budget; ``scale`` (< 1 only in the self-tests) shrinks them
further.  Names are permanent.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, ContextManager, Dict, List, Optional

from repro import (
    BufferedCrossbarRouter,
    FoldedClos,
    HierarchicalCrossbarRouter,
    Hotspot,
    NetworkConfig,
    RouterConfig,
    RunResult,
    SweepSettings,
    SwitchSimulation,
)
from repro.network.netsim import NetworkSimulation
from repro.network.sharded import ShardedNetworkSimulation
from repro.workloads import transformer_decode

#: Rep length relative to the issue's sizing (2.0-2.5 s per rep): the
#: driver allows about 30 s per run all told, so reps are ~1.2 s.
REP_SHRINK = 0.5

#: Opens a named trace span around a construction step (the traced
#: pass hands in ``Tracer.span``; untraced reps get a no-op).
SpanFactory = Callable[[str], ContextManager]


def no_span(name: str) -> ContextManager:
    return nullcontext()


def _cycles(full: int, scale: float) -> int:
    return max(1, int(full * REP_SHRINK * scale))


@dataclass(frozen=True)
class Spec:
    """One workload: construction, drive, and output checks."""

    name: str
    #: ``build(seed, scale, span)`` -> an unrun simulation.
    build: Callable[[int, float, SpanFactory], Any]
    #: ``run(sim, scale)`` -> the summarized :class:`RunResult`.
    run: Callable[[Any, float], RunResult]
    #: ``check(result)`` -> one line per failed output check.
    check: Callable[[RunResult], List[str]]
    #: Flits the run delivered (the "simulated events" of flits_per_s).
    flits: Callable[[Any, RunResult], int]
    #: ``twin(seed)`` -> a simulation built another way whose row must
    #: equal this one's byte for byte (the traced pass runs it once).
    twin: Optional[Callable[[int], Any]] = None
    #: ``cli_args(seed, scale)`` -> the ``python -m repro.cli``
    #: arguments of the same run, where the command line can express
    #: it (the traced pass times one, for ``cli.run_wall_s``).
    cli_args: Optional[Callable[[int, float], List[str]]] = None


def _measured_flits(sim: Any, result: RunResult) -> int:
    return sim.measured_flits


# ----------------------------------------------------------------------
# switch_hier_hi_r64: the paper's design point on the scalar object path
# ----------------------------------------------------------------------


def _build_hier(seed: int, scale: float, span: SpanFactory) -> Any:
    router = HierarchicalCrossbarRouter(RouterConfig(radix=64, seed=seed))
    return SwitchSimulation(router, load=0.9)


#: Drain budget of the hierarchical run.  Draining to the last labeled
#: packet makes the cycle count follow one packet's tail latency
#: (1041-1396 cycles over twelve seeds); a budget in which 99.6% or
#: more of them arrive ends every seed's run on the same cycle.
_HIER_DRAIN = 150


def _run_hier(sim: Any, scale: float) -> RunResult:
    return sim.run(SweepSettings(
        warmup=_cycles(500, scale), measure=_cycles(1200, scale),
        drain=_HIER_DRAIN, min_drain_fraction=0.99,
    ))


def _hier_cli_args(seed: int, scale: float) -> List[str]:
    return [
        "run", "--arch", "hierarchical", "--radix", "64", "--load", "0.9",
        "--warmup", str(_cycles(500, scale)),
        "--measure", str(_cycles(1200, scale)),
        "--drain", str(_HIER_DRAIN), "--seed", str(seed),
    ]


def _check_hier(result: RunResult) -> List[str]:
    failures = []
    if result.saturated:
        failures.append("saturated at load 0.9")
    if abs(result.throughput - 0.9) > 0.03:
        failures.append(f"throughput {result.throughput:.4f} not 0.9 +- 0.03")
    if result.packets_measured <= 0:
        failures.append("no packet measured")
    return failures


# ----------------------------------------------------------------------
# switch_buf_sat_r64_batch: Fig 18 hotspot saturation on the array path
# ----------------------------------------------------------------------


def _build_buf(seed: int, scale: float, span: SpanFactory) -> Any:
    router = BufferedCrossbarRouter(
        RouterConfig(radix=64, seed=seed, batch_hot_path=True)
    )
    return SwitchSimulation(
        router, load=1.0,
        pattern=Hotspot(64, num_hotspots=8, hot_fraction=0.5),
    )


def _run_buf(sim: Any, scale: float) -> RunResult:
    return sim.run(SweepSettings(
        warmup=_cycles(2500, scale), measure=_cycles(2500, scale), drain=200,
    ))


def _check_buf(result: RunResult) -> List[str]:
    failures = []
    if not result.saturated:
        failures.append("hotspot at load 1.0 did not saturate")
    if not 0.10 < result.throughput < 0.45:
        failures.append(
            f"throughput {result.throughput:.4f} outside (0.10, 0.45)"
        )
    return failures


# ----------------------------------------------------------------------
# clos_idle_event_r64: a mostly fast-forwarded radix-64 Clos
# ----------------------------------------------------------------------


def _build_idle(seed: int, scale: float, span: SpanFactory) -> Any:
    config = NetworkConfig(
        radix=64, levels=2, num_vcs=2, packet_size=2, seed=seed
    )
    with span("topology"):
        topology = FoldedClos(config.radix, config.levels)
    # Twice the issue's 5e-5: at the shrunk window that load delivers
    # ~800 flits, whose seed-to-seed Poisson spread alone is 5%.
    return NetworkSimulation(
        config, 1e-4, topology=topology, scheduler="event"
    )


def _run_idle(sim: Any, scale: float) -> RunResult:
    return sim.run(
        warmup=_cycles(2000, scale), measure=_cycles(125000, scale),
        drain=5000,
    )


def _check_idle(result: RunResult) -> List[str]:
    failures = []
    skipped = result.extra["stats.engine.cycles_skipped"]
    if skipped < 0.5 * result.cycles:
        failures.append(
            f"only {skipped:.0f} of {result.cycles} cycles fast-forwarded"
        )
    if result.saturated:
        failures.append("did not drain")
    return failures


# ----------------------------------------------------------------------
# clos_mid_shard2_r16: two worker processes in lock step
# ----------------------------------------------------------------------

_SHARD_LOAD = 0.5


def _shard_config(seed: int) -> NetworkConfig:
    return NetworkConfig(radix=16, levels=2, seed=seed)


def _build_shard(seed: int, scale: float, span: SpanFactory) -> Any:
    config = _shard_config(seed)
    with span("topology"):
        topology = FoldedClos(config.radix, config.levels)
    # Fixed at two workers whatever the host has: the parent blocks in
    # gather while they compute, so this is 2 busy processes.
    return ShardedNetworkSimulation(
        config, load=_SHARD_LOAD, shards=2, topology=topology
    )


def _build_shard_twin(seed: int) -> Any:
    """The serial simulation the sharded one must equal byte for byte."""
    config = _shard_config(seed)
    return NetworkSimulation(
        config, _SHARD_LOAD, topology=FoldedClos(config.radix, config.levels)
    )


def _run_shard(sim: Any, scale: float) -> RunResult:
    return sim.run(
        warmup=_cycles(300, scale), measure=_cycles(1000, scale), drain=3000,
    )


def _check_shard(result: RunResult) -> List[str]:
    failures = []
    if result.saturated:
        failures.append("saturated at load 0.5")
    if abs(result.throughput - _SHARD_LOAD) > 0.03:
        failures.append(f"throughput {result.throughput:.4f} not 0.5 +- 0.03")
    return failures


# ----------------------------------------------------------------------
# clos_decode_event_r16: the workload-DAG runtime on a low-radix Clos
# ----------------------------------------------------------------------


def _build_decode(seed: int, scale: float, span: SpanFactory) -> Any:
    ranks = 64 if scale >= 1.0 else max(8, int(64 * scale))
    with span("workload"):
        workload = transformer_decode(
            ranks, layers=1, steps=1, size=4, gap=8  # issue: 2 layers
        )
    config = NetworkConfig(radix=16, levels=2, num_vcs=2, seed=seed)
    with span("topology"):
        topology = FoldedClos(config.radix, config.levels)
    return NetworkSimulation(
        config, topology=topology, workload=workload, scheduler="event"
    )


def _run_decode(sim: Any, scale: float) -> RunResult:
    return sim.run_workload()


def _check_decode(result: RunResult) -> List[str]:
    failures = []
    if result.extra["undelivered"] != 0 or result.saturated:
        failures.append(
            f"{result.extra['undelivered']:.0f} DAG messages undelivered"
        )
    if result.extra["stats.workload.makespan"] <= 0:
        failures.append("makespan is not positive")
    return failures


def _decode_flits(sim: Any, result: RunResult) -> int:
    return int(result.extra["stats.workload.flits"])


SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec("switch_hier_hi_r64", _build_hier, _run_hier, _check_hier,
             _measured_flits, cli_args=_hier_cli_args),
        Spec("switch_buf_sat_r64_batch", _build_buf, _run_buf, _check_buf,
             _measured_flits),
        Spec("clos_idle_event_r64", _build_idle, _run_idle, _check_idle,
             _measured_flits),
        Spec("clos_mid_shard2_r16", _build_shard, _run_shard, _check_shard,
             _measured_flits, twin=_build_shard_twin),
        Spec("clos_decode_event_r16", _build_decode, _run_decode,
             _check_decode, _decode_flits),
    )
}
