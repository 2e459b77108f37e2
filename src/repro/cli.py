"""Command-line interface: ``python -m repro <command>``.

Gives the library's main experiments a shell entry point:

* ``sweep`` — latency-load curve for one switch organization;
* ``saturate`` — saturation throughput for one or more organizations;
* ``radix`` — the Section 2 analytical optimum for a technology point;
* ``network`` — the Figure 19 Clos-network comparison;
* ``area`` — storage/area comparison between organizations;
* ``pipeline`` — the Figure 5/7 pipeline diagrams of the distributed
  and hierarchical organizations;
* ``run`` — a single measured run, optionally under the runtime
  sanitizer (``--sanitize``);
* ``trace`` — a traced run: measured per-stage pipeline breakdown and
  optional Chrome trace-event JSON (``--chrome out.json``, loadable in
  Perfetto);
* ``faults`` — deterministic fault-injection sweep (see
  :mod:`repro.faults`): degraded throughput/latency and recovery
  counters as the fault rate rises;
* ``workload`` — dependency-driven application workloads (see
  :mod:`repro.workloads`): closed-loop request/reply, collectives
  (ring / recursive-doubling all-reduce, all-to-all, broadcast,
  transformer-decode sequences), and trace replay, swept over message
  size / window / layer count on a switch or a Clos network.

Examples::

    python -m repro sweep --arch hierarchical --radix 32 --plot
    python -m repro sweep --arch voq --radix 64 --jobs 4
    python -m repro saturate --arch all --injection onoff
    python -m repro radix --bandwidth 20e12 --delay 5e-9 --nodes 2048 --packet 256
    python -m repro network --load 0.5
    python -m repro area --radix 64
    python -m repro pipeline --radix 64
    python -m repro run --arch buffered --radix 16 --load 0.8 --sanitize
    python -m repro trace --arch hierarchical --radix 8 --subswitch 4 --chrome out.json
    python -m repro faults --arch buffered --radix 8 --rates 0,0.01,0.05 --sanitize
    python -m repro workload --family allreduce --ranks 16 --sizes 1,4,16
    python -m repro workload --family decode --layer-counts 2,4 --gap 16
    python -m repro workload --family replay --replay out.json --target switch
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Callable, Dict, Optional, Sequence

from .core.config import RouterConfig
from .core.errors import InvariantViolation
from .core.pipeline_diagram import compare as compare_pipelines
from .harness import load_checkpoint
from .harness.experiment import (
    SweepSettings,
    SwitchSimulation,
    run_load_sweep,
    saturation_throughput,
)
from .harness.plot import plot_sweeps
from .harness.report import format_sweeps, format_table
from .models.area import AreaModel, storage_bits
from .models.latency import optimal_radix, packet_latency
from .models.technology import Technology
from .network.netsim import (
    NetworkConfig,
    NetworkSimulation,
    run_network_sweep,
)
from .network.topology import FoldedClos
from .routers.baseline import BaselineRouter
from .routers.buffered import BufferedCrossbarRouter
from .routers.distributed import DistributedRouter
from .routers.hierarchical import HierarchicalCrossbarRouter
from .routers.shared_buffer import SharedBufferCrossbarRouter
from .routers.voq import VoqRouter
from .traffic.patterns import (
    Diagonal,
    Hotspot,
    TrafficPattern,
    UniformRandom,
    WorstCaseHierarchical,
)

ARCHITECTURES: Dict[str, Callable] = {
    "baseline": BaselineRouter,
    "distributed": DistributedRouter,
    "buffered": BufferedCrossbarRouter,
    "shared-buffer": SharedBufferCrossbarRouter,
    "hierarchical": HierarchicalCrossbarRouter,
    "voq": VoqRouter,
}


def _make_pattern(name: str, config: RouterConfig) -> TrafficPattern:
    k = config.radix
    if name == "uniform":
        return UniformRandom(k)
    if name == "diagonal":
        return Diagonal(k)
    if name == "hotspot":
        return Hotspot(k, num_hotspots=min(8, k))
    if name == "worst-case":
        return WorstCaseHierarchical(k, config.subswitch_size)
    raise ValueError(f"unknown pattern {name!r}")


def _config_from_args(args: argparse.Namespace) -> RouterConfig:
    return RouterConfig(
        radix=args.radix,
        num_vcs=args.vcs,
        subswitch_size=args.subswitch,
        local_group_size=min(8, args.radix),
        vc_allocator=args.vc_alloc,
        input_buffer_depth=max(16, 4 * args.packet_size),
        seed=args.seed,
    )


def _settings(args: argparse.Namespace) -> SweepSettings:
    return SweepSettings(
        warmup=args.warmup, measure=args.measure, drain=args.drain
    )


def _switch_sim(args: argparse.Namespace, config: RouterConfig,
                **options) -> SwitchSimulation:
    """The ``--arch`` router at ``--load`` with the traffic flags;
    ``options`` go to :class:`SwitchSimulation` unchanged."""
    return SwitchSimulation(
        ARCHITECTURES[args.arch](config),
        load=args.load,
        packet_size=args.packet_size,
        pattern=_make_pattern(args.pattern, config),
        injection=args.injection,
        **options,
    )


def _sanitized(args: argparse.Namespace) -> str:
    """Table-title suffix marking a sanitized run."""
    return " [sanitized]" if args.sanitize else ""


def _add_router_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--radix", type=int, default=32)
    sub.add_argument("--vcs", type=int, default=4)
    sub.add_argument("--subswitch", type=int, default=8)
    sub.add_argument("--vc-alloc", choices=("cva", "ova"), default="cva")
    sub.add_argument("--packet-size", type=int, default=1)
    sub.add_argument(
        "--pattern",
        choices=("uniform", "diagonal", "hotspot", "worst-case"),
        default="uniform",
    )
    sub.add_argument("--injection", choices=("bernoulli", "onoff"),
                     default="bernoulli")
    sub.add_argument("--warmup", type=int, default=800)
    sub.add_argument("--measure", type=int, default=1200)
    sub.add_argument("--drain", type=int, default=20000)
    sub.add_argument("--seed", type=int, default=1)


def _add_sanitize_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--sanitize", action="store_true",
                     help="verify conservation invariants every cycle")


def _add_fault_args(sub: argparse.ArgumentParser,
                    sweep: bool = False) -> None:
    """Corruption rate (``--rates`` list with ``sweep``), credit loss."""
    if sweep:
        sub.add_argument("--rates", default="0.0,0.01,0.05,0.1",
                         help="comma-separated flit corruption rates")
    else:
        sub.add_argument("--corrupt-rate", type=float, default=0.0,
                         help="host-channel flit corruption probability")
    sub.add_argument("--credit-loss", type=float, default=0.0,
                     help="credit-loss probability per delivery")


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    loads = [float(x) for x in args.loads.split(",")]
    # partial() of the module-level _make_pattern stays picklable
    # (lambdas would break --jobs under the spawn start method).
    sweep = run_load_sweep(
        ARCHITECTURES[args.arch], config, loads, label=args.arch,
        packet_size=args.packet_size,
        pattern_factory=functools.partial(_make_pattern, args.pattern),
        injection=args.injection,
        settings=_settings(args),
        processes=args.jobs,
    )
    print(format_sweeps(
        [sweep],
        title=f"{args.arch} @ radix {config.radix}, pattern {args.pattern}",
    ))
    if args.plot:
        print()
        print(plot_sweeps([sweep]))
    return 0


def cmd_saturate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    names = (
        list(ARCHITECTURES) if args.arch == "all" else [args.arch]
    )
    settings = SweepSettings(
        warmup=args.warmup, measure=args.measure, drain=100
    )
    rows = []
    for name in names:
        thpt = saturation_throughput(
            ARCHITECTURES[name], config,
            packet_size=args.packet_size,
            pattern_factory=functools.partial(_make_pattern, args.pattern),
            injection=args.injection,
            settings=settings,
        )
        rows.append((name, f"{thpt:.3f}"))
    print(format_table(
        ["architecture", "saturation throughput"], rows,
        title=f"radix {config.radix}, pattern {args.pattern}, "
              f"{args.packet_size}-flit packets",
    ))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """One measured run of one organization at one load point.

    With ``--sanitize`` a :class:`~repro.analysis.SimSanitizer`
    observes the router and the run is drained to empty after the
    measurement, so the final accounting is exact.
    """
    if args.resume and args.sanitize:
        raise ValueError("--resume and --sanitize cannot be combined (the "
                         "checkpoint carries its own settings)")
    if args.checkpoint_every and args.sanitize:
        raise ValueError("--checkpoint-every and --sanitize cannot be "
                         "combined (a sanitized simulation cannot be "
                         "checkpointed)")
    if args.checkpoint_every < 0:
        raise ValueError(f"--checkpoint-every must be >= 0 (0 = off), "
                         f"got {args.checkpoint_every}")
    if args.resume:
        sim = load_checkpoint(args.resume)
        if not isinstance(sim, SwitchSimulation):
            raise ValueError(
                f"checkpoint {args.resume} holds a {type(sim).__name__}; "
                f"run --resume continues switch runs only"
            )
        config = sim.router.config
        arch_label = f"resumed {type(sim.router).__name__}"
    else:
        config = _config_from_args(args)
        sim = _switch_sim(args, config, sanitize=args.sanitize)
        sim.start_run(_settings(args))
        arch_label = args.arch
    if args.checkpoint_every:
        # Pause every N cycles to persist a resumable checkpoint;
        # pausing never perturbs the run (see advance_run).
        while not sim.advance_run(
            stop_at=sim.cycle + args.checkpoint_every
        ):
            sim.save_checkpoint(args.checkpoint)
            print(f"run: checkpoint at cycle {sim.cycle} -> "
                  f"{args.checkpoint}", file=sys.stderr)
    else:
        sim.advance_run()
    result = sim.finish_run()
    if args.sanitize:
        # Drain to empty so the final accounting can be exact.
        sim.stop_sources()
        budget = 200000
        while budget > 0 and (
            any(s.backlog() for s in sim.sources)
            or not sim.router.idle()
        ):
            sim.step()
            budget -= 1
        sim.sanitizer.assert_drained()
    print(format_table(
        ["metric", "value"],
        [
            ("offered load", f"{result.offered_load:.3f}"),
            ("throughput", f"{result.throughput:.3f}"),
            ("avg latency", f"{result.avg_latency:.1f}"),
            ("saturated", str(result.saturated)),
        ],
        title=f"{arch_label} @ radix {config.radix}, load "
              f"{result.offered_load:.2f}" + _sanitized(args),
    ))
    if args.sanitize:
        checks = sim.sanitizer.checks_run
        print(f"sanitizer: {checks} structural checks, 0 violations")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """One traced run: stage breakdown + optional Chrome trace JSON.

    Attaches a :class:`~repro.trace.TraceCollector` (with the sampling
    filter built from ``--every-nth`` / ``--ports`` / ``--trace-vcs``),
    prints the measured per-stage latency breakdown against the
    zero-load expectation, and with ``--chrome PATH`` writes the
    Perfetto-loadable trace-event JSON.
    """
    from .trace import TraceCollector, TraceFilter, dump_chrome_trace
    from .trace.breakdown import format_stage_breakdown

    config = _config_from_args(args)
    trace_filter = TraceFilter(
        every_nth=args.every_nth,
        ports=(
            frozenset(int(p) for p in args.ports.split(","))
            if args.ports else None
        ),
        vcs=(
            frozenset(int(v) for v in args.trace_vcs.split(","))
            if args.trace_vcs else None
        ),
    )
    collector = TraceCollector(
        capacity=args.capacity, trace_filter=trace_filter
    )
    result = _switch_sim(args, config, tracer=collector).run(_settings(args))
    print(format_stage_breakdown(
        collector, config=config,
        # measured_pipeline keys the distributed router by VC allocator.
        architecture=args.vc_alloc if args.arch == "distributed" else args.arch,
        title=f"{args.arch} @ radix {config.radix}, load {args.load} "
              f"({collector.completed} traced flits, "
              f"{collector.evicted} evicted)",
    ))
    for kind in sorted(collector.spec):
        rate = collector.spec_hit_rate(kind)
        hits, misses = collector.spec[kind]
        print(f"speculation {kind}: {hits} hits / {misses} misses "
              f"(hit rate {rate:.3f})")
    util = collector.channel_utilization()
    if util:
        mean = sum(util.values()) / len(util)
        print(f"channel utilization: mean {mean:.3f}, "
              f"max {max(util.values()):.3f} "
              f"(offered load {result.offered_load:.3f})")
    if args.chrome:
        events = dump_chrome_trace(collector, args.chrome)
        print(f"chrome trace: wrote {events} events to {args.chrome} "
              "(load in https://ui.perfetto.dev)")
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    """Fault-rate sweep: throughput/latency degradation and recovery.

    Runs one measured point per corruption rate in ``--rates`` (the
    credit-loss rate rides along via ``--credit-loss``), printing
    accepted throughput, latency, and the injector's recovery counters.
    Deterministic: same seed and rates reproduce the table exactly.
    With ``--sanitize`` every run is checked by the runtime sanitizer
    (injected losses are accounted for, so a clean run prints no
    violations).
    """
    from .faults import FaultPlan

    config = _config_from_args(args)
    # Every plan (and so every rate) is checked before any point runs.
    plans = [
        FaultPlan(corrupt_rate=float(x), credit_loss_rate=args.credit_loss)
        for x in args.rates.split(",")
    ]
    rows = []
    for plan in plans:
        result = _switch_sim(
            args, config, sanitize=args.sanitize, faults=plan,
        ).run(_settings(args))
        extra = result.extra
        rows.append((
            f"{plan.corrupt_rate:.3f}",
            f"{result.throughput:.3f}",
            f"{result.avg_latency:.1f}",
            str(int(extra.get("stats.faults.retransmits", 0))),
            str(int(extra.get("stats.faults.credit_resyncs", 0))),
            str(result.saturated),
        ))
    print(format_table(
        ["corrupt rate", "throughput", "avg latency", "retransmits",
         "credit resyncs", "saturated"],
        rows,
        title=f"{args.arch} @ radix {config.radix}, load {args.load}, "
              f"credit-loss {args.credit_loss}" + _sanitized(args),
    ))
    return 0


def _build_workload(args: argparse.Namespace, ranks: int, size: int,
                    window: int, layers: int):
    """Construct one workload instance for one sweep combination."""
    from . import workloads

    family = args.family
    if family == "request-reply":
        return workloads.request_reply(
            ranks, requests=args.requests, window=window,
            think=args.think, service=args.service,
            request_size=size, reply_size=args.reply_size,
        )
    if family == "allreduce":
        return workloads.all_reduce(ranks, size=size,
                                    algorithm=args.algorithm)
    if family == "alltoall":
        return workloads.all_to_all(ranks, size=size)
    if family == "broadcast":
        return workloads.broadcast(ranks, size=size)
    if family == "decode":
        return workloads.transformer_decode(
            ranks, layers=layers, steps=args.steps, size=size,
            gap=args.gap, algorithm=args.algorithm,
        )
    if family == "replay":
        if not args.replay:
            raise ValueError("--family replay requires --replay PATH")
        return workloads.load_trace(
            args.replay, num_ranks=ranks if args.ranks else None
        )
    raise ValueError(f"unknown workload family {family!r}")


def cmd_workload(args: argparse.Namespace) -> int:
    """Dependency-driven workload runs, swept over DAG parameters.

    Each combination of ``--sizes`` x ``--windows`` x
    ``--layer-counts`` builds one workload DAG and runs it to
    completion on the chosen target (``--target network`` is a folded
    Clos whose hosts are the ranks; ``--target switch`` maps ranks to
    one router's ports).  Prints makespan, message/flow latency
    percentiles, per-phase step time and skew, and accepted
    throughput per combination.  Fully deterministic for a fixed seed;
    ``--kill-links`` schedules dead-link faults (network target) to
    measure degraded collective completion.
    """
    from .faults import FaultPlan, sample_link_faults

    sizes = [int(x) for x in args.sizes.split(",")]
    windows = [int(x) for x in args.windows.split(",")]
    layer_counts = [int(x) for x in args.layer_counts.split(",")]
    if args.target == "network":
        topology = FoldedClos(args.radix, args.levels)
        default_ranks = topology.num_hosts
    else:
        topology = None
        default_ranks = args.radix
    ranks = args.ranks or default_ranks
    if ranks > default_ranks:
        raise ValueError(f"{ranks} ranks exceed the {default_ranks} "
                         f"available endpoints")
    link_faults = ()
    if args.kill_links:
        if topology is None:
            raise ValueError("--kill-links needs --target network")
        link_faults = sample_link_faults(
            topology, seed=args.seed, count=args.kill_links,
            cycle=args.kill_at, until=args.heal_at,
        )
    faults = FaultPlan(
        corrupt_rate=args.corrupt_rate,
        credit_loss_rate=args.credit_loss,
        links=link_faults,
    )
    rows = []
    for size in sizes:
        for window in windows:
            for layers in layer_counts:
                workload = _build_workload(
                    args, ranks, size, window, layers
                )
                if args.target == "network":
                    cfg = NetworkConfig(
                        radix=args.radix, levels=args.levels,
                        num_vcs=args.vcs, seed=args.seed,
                    )
                    sim = NetworkSimulation(
                        cfg, workload=workload, sanitize=args.sanitize,
                        faults=faults,
                    )
                else:
                    config = RouterConfig(
                        radix=args.radix, num_vcs=args.vcs,
                        subswitch_size=args.subswitch,
                        local_group_size=min(8, args.radix),
                        seed=args.seed,
                    )
                    sim = SwitchSimulation(
                        ARCHITECTURES[args.arch](config),
                        workload=workload, sanitize=args.sanitize,
                        faults=faults,
                    )
                result = sim.run_workload(max_cycles=args.max_cycles)
                extra = result.extra
                rows.append((
                    str(size), str(window), str(layers),
                    str(int(extra.get("stats.workload.makespan", 0))),
                    str(int(extra.get("stats.workload.msg_p50", 0))),
                    str(int(extra.get("stats.workload.msg_p99", 0))),
                    str(int(extra.get("stats.workload.flow_p99", 0))),
                    str(int(extra.get("stats.workload.step_max", 0))),
                    str(int(extra.get("stats.workload.skew_max", 0))),
                    f"{result.throughput:.3f}",
                    str(result.saturated),
                ))
    target = (
        f"{args.levels}-level radix-{args.radix} Clos ({ranks} ranks)"
        if args.target == "network"
        else f"{args.arch} radix-{args.radix} switch ({ranks} ranks)"
    )
    print(format_table(
        ["size", "window", "layers", "makespan", "msg p50", "msg p99",
         "flow p99", "step max", "skew max", "throughput", "stuck"],
        rows,
        title=f"{args.family} on {target}"
              + _sanitized(args)
              + (f", {args.kill_links} dead link(s)"
                 if args.kill_links else ""),
    ))
    return 0


def cmd_radix(args: argparse.Namespace) -> int:
    tech = Technology(
        "cli", args.bandwidth, args.delay, args.nodes, args.packet, 0
    )
    k_star = optimal_radix(tech)
    print(f"aspect ratio A = {tech.aspect_ratio:.1f}")
    print(f"latency-optimal radix k* = {k_star}")
    print(f"latency at k*: {packet_latency(k_star, tech) * 1e9:.1f} ns")
    return 0


def cmd_network(args: argparse.Namespace) -> int:
    from .faults import FaultPlan

    plan = FaultPlan(
        corrupt_rate=args.corrupt_rate,
        credit_loss_rate=args.credit_loss,
    )
    rows = []
    for name, radix, levels in (
        ("high-radix", args.high_radix, args.high_levels),
        ("low-radix", args.low_radix, args.low_levels),
    ):
        topology = FoldedClos(radix, levels)
        r = run_network_sweep(
            NetworkConfig(radix=radix, levels=levels), [args.load],
            warmup=args.warmup, measure=args.measure, drain=args.drain,
            shards=args.shards or None, topology=topology,
            sanitize=args.sanitize, faults=plan,
        ).results[0]
        rows.append((
            name, radix, 2 * levels - 1, topology.num_hosts,
            f"{r.avg_latency:.1f}", f"{r.throughput:.3f}",
        ))
    print(format_table(
        ["network", "radix", "stages", "hosts", "avg latency",
         "throughput"],
        rows,
        title=f"Clos comparison at load {args.load}"
              + (f", corrupt-rate {args.corrupt_rate}"
                 if plan.enabled else ""),
    ))
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    config = RouterConfig(
        radix=args.radix, subswitch_size=args.subswitch,
        sa_latency=args.sa_latency, flit_cycles=args.flit_cycles,
    )
    print(compare_pipelines(config))
    return 0


def cmd_area(args: argparse.Namespace) -> int:
    config = RouterConfig(
        radix=args.radix, num_vcs=args.vcs, subswitch_size=args.subswitch
    )
    model = AreaModel()
    rows = []
    for name in ARCHITECTURES:
        key = name.replace("-", "_")
        bits = storage_bits(key, config)
        rows.append((
            name, f"{bits:,}", f"{model.storage_area(bits):.1f}",
            f"{model.total_area(key, config):.1f}",
        ))
    print(format_table(
        ["architecture", "storage (bits)", "storage area (mm^2)",
         "total area (mm^2)"],
        rows,
        title=f"radix {args.radix}, v={args.vcs}, p={args.subswitch}",
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="High-radix router microarchitecture experiments "
                    "(Kim, Dally, Towles, Gupta; ISCA 2005).",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sweep = subs.add_parser("sweep", help="latency-load curve")
    sweep.add_argument("--arch", choices=ARCHITECTURES, default="hierarchical")
    sweep.add_argument("--loads", default="0.1,0.3,0.5,0.7,0.9")
    sweep.add_argument("--plot", action="store_true",
                       help="also render an ASCII plot")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="evaluate load points in N parallel "
                            "processes (default: 1, serial; results "
                            "are identical either way)")
    _add_router_args(sweep)
    sweep.set_defaults(func=cmd_sweep)

    sat = subs.add_parser("saturate", help="saturation throughput")
    sat.add_argument("--arch", choices=list(ARCHITECTURES) + ["all"],
                     default="all")
    _add_router_args(sat)
    sat.set_defaults(func=cmd_saturate)

    run = subs.add_parser("run", help="single measured run (sanitizable)")
    run.add_argument("--arch", choices=ARCHITECTURES, default="hierarchical")
    run.add_argument("--load", type=float, default=0.5)
    run.add_argument("--checkpoint-every", type=int, default=0,
                     metavar="N",
                     help="pause every N cycles and save a resumable "
                          "checkpoint to --checkpoint")
    run.add_argument("--checkpoint", default="run.ckpt", metavar="PATH",
                     help="checkpoint file written by --checkpoint-every "
                          "(default: run.ckpt)")
    run.add_argument("--resume", default=None, metavar="PATH",
                     help="resume a run from a checkpoint file instead of "
                          "starting fresh (byte-identical to the "
                          "uninterrupted run)")
    _add_sanitize_arg(run)
    _add_router_args(run)
    run.set_defaults(func=cmd_run)

    trace = subs.add_parser(
        "trace", help="traced run: stage breakdown + Chrome trace JSON"
    )
    trace.add_argument("--arch", choices=ARCHITECTURES,
                       default="hierarchical")
    trace.add_argument("--load", type=float, default=0.5)
    trace.add_argument("--chrome", metavar="PATH", default=None,
                       help="write Chrome trace-event JSON here "
                            "(open in Perfetto)")
    trace.add_argument("--every-nth", type=int, default=1,
                       help="trace every Nth packet (deterministic "
                            "packet-id sampling; default: all)")
    trace.add_argument("--ports", default=None,
                       help="comma-separated input ports to trace "
                            "(default: all)")
    trace.add_argument("--trace-vcs", default=None,
                       help="comma-separated VCs to trace (default: all)")
    trace.add_argument("--capacity", type=int, default=4096,
                       help="lifecycle-record ring buffer size")
    _add_router_args(trace)
    trace.set_defaults(func=cmd_trace)

    faults = subs.add_parser(
        "faults", help="fault-injection sweep: rate vs degradation"
    )
    faults.add_argument("--arch", choices=ARCHITECTURES, default="buffered")
    faults.add_argument("--load", type=float, default=0.5)
    _add_fault_args(faults, sweep=True)
    _add_sanitize_arg(faults)
    _add_router_args(faults)
    faults.set_defaults(func=cmd_faults)

    wl = subs.add_parser(
        "workload",
        help="dependency-driven workload runs (collectives, "
             "request/reply, trace replay)",
    )
    wl.add_argument("--family",
                    choices=("request-reply", "allreduce", "alltoall",
                             "broadcast", "decode", "replay"),
                    default="allreduce")
    wl.add_argument("--target", choices=("network", "switch"),
                    default="network",
                    help="run on a folded Clos (ranks = hosts) or a "
                         "single switch (ranks = ports)")
    wl.add_argument("--ranks", type=int, default=0,
                    help="participating ranks (default: every "
                         "host/port of the target)")
    wl.add_argument("--algorithm",
                    choices=("ring", "recursive-doubling"),
                    default="ring",
                    help="all-reduce algorithm (allreduce/decode)")
    wl.add_argument("--sizes", default="1", metavar="N,N,...",
                    help="message sizes in flits to sweep")
    wl.add_argument("--windows", default="1", metavar="N,N,...",
                    help="request/reply outstanding windows to sweep")
    wl.add_argument("--layer-counts", default="2", metavar="N,N,...",
                    help="decode layer counts to sweep")
    wl.add_argument("--requests", type=int, default=4,
                    help="request/reply transactions per chain")
    wl.add_argument("--think", type=int, default=0,
                    help="request/reply client think time (cycles)")
    wl.add_argument("--service", type=int, default=0,
                    help="request/reply server service time (cycles)")
    wl.add_argument("--reply-size", type=int, default=4,
                    help="request/reply reply size (flits)")
    wl.add_argument("--steps", type=int, default=1,
                    help="decode steps")
    wl.add_argument("--gap", type=int, default=8,
                    help="decode compute gap between phases (cycles)")
    wl.add_argument("--replay", metavar="PATH", default=None,
                    help="CSV or Chrome-trace schedule to replay "
                         "(--family replay)")
    wl.add_argument("--arch", choices=ARCHITECTURES,
                    default="hierarchical",
                    help="switch organization (--target switch)")
    wl.add_argument("--radix", type=int, default=8)
    wl.add_argument("--levels", type=int, default=2,
                    help="Clos levels (--target network)")
    wl.add_argument("--vcs", type=int, default=4)
    wl.add_argument("--subswitch", type=int, default=8)
    wl.add_argument("--seed", type=int, default=1)
    wl.add_argument("--max-cycles", type=int, default=1_000_000,
                    help="abort a combination after this many cycles")
    _add_sanitize_arg(wl)
    wl.add_argument("--kill-links", type=int, default=0,
                    help="schedule N dead inter-router links "
                         "(network target)")
    wl.add_argument("--kill-at", type=int, default=5,
                    help="cycle the scheduled links go down")
    wl.add_argument("--heal-at", type=int, default=None,
                    help="cycle the scheduled links come back "
                         "(default: never)")
    _add_fault_args(wl)
    wl.set_defaults(func=cmd_workload)

    radix = subs.add_parser("radix", help="Section 2 optimal radix")
    radix.add_argument("--bandwidth", type=float, required=True,
                       help="router bandwidth, bits/s")
    radix.add_argument("--delay", type=float, required=True,
                       help="per-hop router delay, s")
    radix.add_argument("--nodes", type=int, required=True)
    radix.add_argument("--packet", type=int, required=True,
                       help="packet length, bits")
    radix.set_defaults(func=cmd_radix)

    net = subs.add_parser("network", help="Figure 19 Clos comparison")
    net.add_argument("--load", type=float, default=0.5)
    net.add_argument("--high-radix", type=int, default=16)
    net.add_argument("--high-levels", type=int, default=2)
    net.add_argument("--low-radix", type=int, default=8)
    net.add_argument("--low-levels", type=int, default=3)
    net.add_argument("--warmup", type=int, default=600)
    net.add_argument("--measure", type=int, default=800)
    net.add_argument("--drain", type=int, default=8000)
    _add_sanitize_arg(net)
    net.add_argument("--shards", type=int, default=0, metavar="N",
                     help="partition each Clos across N worker processes "
                          "(byte-identical to the serial run)")
    _add_fault_args(net)
    net.set_defaults(func=cmd_network)

    pipe = subs.add_parser("pipeline",
                           help="render the Figure 5/7 pipeline diagrams")
    pipe.add_argument("--radix", type=int, default=64)
    pipe.add_argument("--subswitch", type=int, default=8)
    pipe.add_argument("--sa-latency", type=int, default=3)
    pipe.add_argument("--flit-cycles", type=int, default=4)
    pipe.set_defaults(func=cmd_pipeline)

    area = subs.add_parser("area", help="storage/area comparison")
    area.add_argument("--radix", type=int, default=64)
    area.add_argument("--vcs", type=int, default=4)
    area.add_argument("--subswitch", type=int, default=8)
    area.set_defaults(func=cmd_area)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"sanitizer: invariant violation: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # The library and the commands validate their inputs (loads,
        # rates, radix / subswitch divisibility, ...): a rejected
        # argument is a usage error, not a crash.
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
