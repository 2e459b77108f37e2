"""Turning replies of the workload children into named metrics.

Pure functions of the recorded numbers, so the self-tests can feed
them synthetic timings.  Names and units are fixed by
``BENCHMARK.json``; :func:`run.report` refuses a mismatch.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Optional, Sequence

Metrics = Dict[str, float]


def spread(values: Sequence[float]) -> float:
    """(p75 - p25) / median, the driver's own steadiness measure."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def end_to_end(
    reps: List[Dict[str, Any]], probe_cal_s: List[float], peak_rss_mb: float
) -> Metrics:
    """The six end-to-end metrics from the finished reps and set-up probes.

    Times are medians of reference-speed seconds; the two rates divide
    the run's (seed-fixed, rep-invariant) work by the same median.
    """
    wall_s = statistics.median(rep["cal_wall_s"] for rep in reps)
    return {
        "setup_s": statistics.median(probe_cal_s),
        "wall_s": wall_s,
        "cpu_s": statistics.median(rep["cal_cpu_s"] for rep in reps),
        "sim_cycles_per_s": reps[0]["cycles"] / wall_s,
        "flits_per_s": reps[0]["flits"] / wall_s,
        "peak_rss_mb": peak_rss_mb,
    }


def host_diagnostics(reps: List[Dict[str, Any]]) -> Metrics:
    """Raw readings that explain a noisy result; never judged."""
    return {
        "host.raw_wall_s": statistics.median(r["raw_wall_s"] for r in reps),
        "host.raw_cpu_s": statistics.median(r["raw_cpu_s"] for r in reps),
        "host.cal_factor": statistics.median(
            r["cal_wall_s"] / r["raw_wall_s"] for r in reps
        ),
        "host.rep_spread": spread([r["cal_wall_s"] for r in reps]),
        "host.reps": float(len(reps)),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    traced: Dict[str, Any],
    untraced_wall_s: float,
    shard_vs_serial: float,
    cli_import_s: float,
    cli_run_wall_s: float,
) -> Metrics:
    """The per-layer metrics of one traced rep.

    ``traced`` is the child's ``trace`` reply.  Its seconds are scaled
    by the rep's one calibration factor, so they are reference-speed
    seconds like ``untraced_wall_s`` (the ``wall_s`` metric).  A layer
    the workload bypasses reads 0 throughout.
    """
    leaves = traced["leaves"]
    spans = traced["spans"]
    row = traced["row"]
    extra = row["extra"]
    factor = traced["cal_wall_s"] / traced["raw_wall_s"]
    rep_s = traced["rep_s"] * factor

    def calls(name: str) -> float:
        return float(leaves[name][0])

    def busy(name: str) -> float:
        return leaves[name][1] * factor

    def tally(name: str) -> float:
        return float(leaves[name][3])

    def span(name: str, field: str = "duration_s") -> float:
        return spans[name][field] * factor if name in spans else 0.0

    cycles_run = calls("engine.run_cycle")
    skipped = extra.get("stats.engine.cycles_skipped") or 0.0
    steps = calls("routers.compute")
    router_s = (
        busy("routers.compute") + busy("routers.commit")
        + busy("routers.accept")
    )
    shard_s = (
        span("spawn") + span("close")
        + busy("shard.send") + busy("shard.gather")
    )
    sharded = "spawn" in spans

    def finite(value: Optional[float]) -> float:
        return 0.0 if value is None else float(value)

    return {
        "cli.import_s": cli_import_s,
        "cli.run_wall_s": cli_run_wall_s,
        "harness.build_s": span("build", "self_s"),
        # Everything ``run`` does itself: traffic draw and pre-draw,
        # injection, channel/credit delivery, eject collection, wake
        # horizons -- not the engine's cycles, not waiting for shards.
        "harness.run_self_s": (
            span("run") - span("finish") - busy("engine.run_cycle")
            - busy("shard.send") - busy("shard.gather")
        ),
        "harness.finish_s": span("finish", "self_s"),
        "harness.persist_s": span("persist"),
        "harness.latency_add_calls": calls("harness.latency_add"),
        "engine.cycles_run": cycles_run,
        "engine.cycles_skipped": skipped,
        "engine.ff_jumps": extra.get("stats.engine.ff_jumps") or 0.0,
        "engine.skip_frac": _ratio(skipped, skipped + cycles_run),
        "engine.component_steps": steps,
        "engine.run_cycle_self_s": (
            busy("engine.run_cycle") - leaves["engine.run_cycle"][2] * factor
        ),
        "engine.wake_calls": calls("engine.wake"),
        "engine.hook_emits": calls("engine.hook_emit"),
        "routers.compute_s": busy("routers.compute"),
        "routers.commit_s": busy("routers.commit"),
        "routers.steps": steps,
        "routers.us_per_step": 1e6 * _ratio(
            busy("routers.compute") + busy("routers.commit"), steps
        ),
        "routers.accept_calls": calls("routers.accept"),
        "routers.accept_s": busy("routers.accept"),
        "routers.flits_per_step": _ratio(calls("routers.accept"), steps),
        "routers.share": router_s / rep_s,
        "core.rr_arb_calls": calls("core.rr_arb"),
        "core.rr_arb_grant_ratio": _ratio(
            tally("core.rr_arb"), calls("core.rr_arb")
        ),
        "core.batch_arb_calls": calls("core.batch_arb"),
        "core.batch_arb_s": busy("core.batch_arb"),
        "core.batch_rows_per_call": _ratio(
            tally("core.batch_arb"), calls("core.batch_arb")
        ),
        "traffic.generate_calls": calls("traffic.generate"),
        "traffic.generate_s": busy("traffic.generate"),
        "traffic.peek_calls": calls("traffic.peek"),
        "traffic.peek_s": busy("traffic.peek"),
        "traffic.packets": tally("traffic.generate"),
        "network.topology_build_s": span("topology"),
        "network.switches": float(traced["switches"]),
        "network.hosts": float(traced["hosts"]),
        "shard.spawn_s": span("spawn"),
        "shard.send_calls": calls("shard.send"),
        "shard.send_s": busy("shard.send"),
        "shard.gather_calls": calls("shard.gather"),
        "shard.gather_s": busy("shard.gather"),
        "shard.exchanges_per_cycle": _ratio(
            calls("shard.gather"), cycles_run
        ),
        "shard.parent_self_s": rep_s - shard_s if sharded else 0.0,
        "shard.close_s": span("close"),
        "shard.child_cpu_s": traced["child_cpu_s"] * factor,
        "shard.worker_rss_mb": traced["worker_rss_mb"] if sharded else 0.0,
        "shard.vs_serial_ratio": shard_vs_serial,
        "workloads.build_s": span("workload"),
        "workloads.messages": extra.get("stats.workload.messages") or 0.0,
        "workloads.next_message_calls": calls("workloads.next_message"),
        "workloads.next_message_s": busy("workloads.next_message"),
        "workloads.deliver_calls": calls("workloads.deliver"),
        "workloads.deliver_s": busy("workloads.deliver"),
        "workloads.probe_calls": calls("workloads.probe"),
        "workloads.probe_s": busy("workloads.probe"),
        "workloads.makespan_cycles": (
            extra.get("stats.workload.makespan") or 0.0
        ),
        "sim.cycles": float(row["cycles"]),
        "sim.measured_flits": float(traced["flits"]),
        "sim.packets_measured": float(row["packets_measured"]),
        "sim.throughput_frac": row["throughput"],
        # None (NaN in the row) when no packet was measured: reads 0.
        "sim.avg_latency_cycles": finite(row["avg_latency"]),
        "sim.p99_latency_cycles": finite(row["p99_latency"]),
        "sim.saturated": float(row["saturated"]),
        "sim.result_crc32": float(traced["crc"]),
        "trace.overhead_frac": traced["cal_wall_s"] / untraced_wall_s - 1.0,
    }
