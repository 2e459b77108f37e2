"""Self-tests of the end-to-end benchmark (not part of tier-1).

    python -m pytest benchmarks/e2e/tests -q

The smoke runs use ``--scale 0.05``, which exists only for them: the
numbers of a scaled run mean nothing, only their presence and the
simulated counts are asserted.
"""

from __future__ import annotations

import json
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
for path in (str(ROOT / "src"), str(E2E)):
    if path not in sys.path:
        sys.path.insert(0, path)

import calib  # noqa: E402
import metrics  # noqa: E402
import trace  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
LINE = re.compile(r"^([A-Za-z0-9_.-]+)/([A-Za-z0-9_.-]+) (\S+) (\S+)$")


def run_bench(*args: str) -> dict:
    """Run the benchmark scaled down; its lines, last line and document."""
    done = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--scale", "0.05",
         "--seconds", "0", *args],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    return {
        "lines": lines[:-1],
        "final": json.loads(lines[-1]),
        "result": json.loads((E2E / "out" / "result.json").read_text()),
    }


@pytest.fixture(scope="module")
def smoke() -> dict:
    return run_bench("--seed", "7", "--trace", "1")


def test_every_metric_is_printed_once_with_its_unit(smoke):
    seen = {}
    for line in smoke["lines"]:
        match = LINE.match(line)
        if match is None:
            continue  # rep summaries and failure notes
        workload, metric, value, unit = match.groups()
        if metric in ("ops", "ops_failed"):
            continue
        assert (workload, metric) not in seen, f"{line!r} printed twice"
        seen[workload, metric] = unit
        float(value)
    wanted = {**END_TO_END, **PER_LAYER}
    assert len(PER_LAYER) == 70 and len(END_TO_END) == 6
    for workload in WORKLOADS:
        for metric, unit in wanted.items():
            assert seen.get((workload, metric)) == unit, (workload, metric)
    assert len(seen) == len(WORKLOADS) * len(wanted)


def test_final_line_carries_per_layer_metrics_when_traced(smoke):
    final = smoke["final"]
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["attempted"] >= 1
    assert set(final["metrics"]) == {
        f"{workload}/{metric}"
        for workload in WORKLOADS for metric in PER_LAYER
    }


def test_scaled_run_is_marked_and_bypassed_layers_read_zero(smoke):
    assert smoke["result"]["scale"] == 0.05
    values = {
        name: {m: e["value"] for m, e in w["metrics"].items()}
        for name, w in smoke["result"]["workloads"].items()
    }
    for name in WORKLOADS:
        sharded = name == "clos_mid_shard2_r16"
        assert (values[name]["shard.gather_calls"] > 0) == sharded
        assert (values[name]["shard.vs_serial_ratio"] > 0) == sharded
    hier = values["switch_hier_hi_r64"]
    assert hier["core.batch_arb_calls"] == 0 and hier["core.rr_arb_calls"] > 0
    assert hier["engine.cycles_skipped"] == 0 and hier["cli.run_wall_s"] > 0
    assert values["switch_buf_sat_r64_batch"]["core.batch_arb_calls"] > 0
    assert values["clos_idle_event_r64"]["engine.skip_frac"] > 0
    assert values["clos_decode_event_r16"]["workloads.deliver_calls"] > 0
    shard = values["clos_mid_shard2_r16"]
    assert shard["cpu_s"] > shard["shard.parent_self_s"] > 0
    # The twin, the traced rep and every rep produced the same row.
    for name in WORKLOADS:
        failures = smoke["result"]["workloads"][name]["failures"]
        assert not [f for f in failures if "differs" in f]
    for name in WORKLOADS:
        assert (E2E / "out" / f"trace-{name}.json").exists()


def test_untraced_single_workload_final_line_is_the_contract():
    run = run_bench("--workload", "switch_hier_hi_r64", "--trace", "0")
    metrics_out = run["final"]["metrics"]
    assert set(metrics_out) == set(END_TO_END)
    for name, entry in metrics_out.items():
        assert entry["unit"] == END_TO_END[name] and entry["value"] > 0


def _counts(run: dict, workload: str) -> dict:
    return {
        name: entry["value"]
        for name, entry in run["result"]["workloads"][workload]
        ["metrics"].items()
        if name.startswith(("sim.", "engine.")) and not name.endswith("_s")
    }


def test_counts_repeat_for_a_seed_and_move_with_it(smoke):
    picked = ["switch_hier_hi_r64", "clos_idle_event_r64"]
    flags = [arg for name in picked for arg in ("--workload", name)]
    again = run_bench("--seed", "7", "--trace", "1", *flags)
    other = run_bench("--seed", "8", "--trace", "1", *flags)
    for workload in picked:
        assert _counts(again, workload) == _counts(smoke, workload)
        assert (
            _counts(other, workload)["sim.result_crc32"]
            != _counts(smoke, workload)["sim.result_crc32"]
        )


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_span_self_time_is_duration_minus_children_and_leaves():
    def span(id, start, end, parent):
        one = trace.Span(id, f"s{id}", start, parent, 0)
        one.end = end
        return one

    rep = span(0, 0.0, 10.0, None)
    build = span(1, 1.0, 3.0, 0)
    run = span(2, 3.0, 9.0, 0)
    inner = span(3, 4.0, 6.0, 2)
    # Under ``run``: an outer leaf busy 2.0 s, 0.5 s of it inside a
    # nested leaf that itself reports busy 0.5 s: 2.0 s covered, once.
    run.leaves["engine.run_cycle"] = [4, 2.0, 0.5, 0]
    run.leaves["routers.commit"] = [8, 0.5, 0.0, 0]
    own = trace.self_times([rep, build, run, inner])
    assert own == {0: pytest.approx(2.0), 1: pytest.approx(2.0),
                   2: pytest.approx(2.0), 3: pytest.approx(2.0)}


def test_leaf_wrappers_track_nested_busy_and_child_time():
    clock = FakeClock()
    tracer = trace.Tracer(now=clock)

    def inner():
        clock.now += 1.0
        return None

    def outer():
        clock.now += 2.0
        traced_inner()
        traced_inner()
        return 5

    traced_inner = tracer._leaf_wrapper(inner, "core.rr_arb", trace._granted)
    traced_outer = tracer._leaf_wrapper(outer, "routers.commit", None)
    assert traced_outer() == 5  # outside a span: passes through, unrecorded
    with tracer.span("rep") as rep:
        assert traced_outer() == 5
    assert rep.leaves["routers.commit"] == [1, 4.0, 2.0, 0]
    assert rep.leaves["core.rr_arb"] == [2, 2.0, 0.0, 0]  # no grant won
    assert rep.duration == 4.0
    assert trace.self_times([rep])[rep.id] == pytest.approx(0.0)


def test_install_wraps_every_target_and_remove_restores_identity():
    import importlib

    def current(module, owner, attr):
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
        return vars(target)[attr]

    targets = [t[:3] for t in trace.SPAN_TARGETS + trace.LEAF_TARGETS]
    before = [current(*target) for target in targets]
    tracer = trace.Tracer()
    tracer.install()
    try:
        during = [current(*target) for target in targets]
    finally:
        tracer.remove()
    after = [current(*target) for target in targets]
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------


def test_kernel_arithmetic_is_frozen():
    assert calib.kernel(1000) == 465260
    assert (calib.KERNEL_ITERS, calib.CAL_REF_S, calib.SAMPLE_PERIOD_S) == (
        20_000, 0.004, 0.05
    )


def test_integrate_scales_each_stretch_by_its_neighbouring_bursts():
    ref = calib.CAL_REF_S
    # Bursts at reference speed, then a host running 2x slow.
    samples = [
        (-1.0, 0.0, ref), (1.0, 1.5, ref), (2.5, 3.0, 2 * ref),
        (4.0, 4.5, 2 * ref),
    ]
    raw, cal = calib.integrate(0.0, 4.0, samples, inline=True)
    assert raw == pytest.approx(3.0)  # the three gaps; bursts left out
    assert cal == pytest.approx(1.0 + 1.0 / 1.5 + 0.5)
    raw, cal = calib.integrate(0.0, 4.0, samples, inline=False)
    assert raw == pytest.approx(4.0)  # another process: the clock ran on
    assert cal == pytest.approx(1.0 + 1.0 / 1.5 + 0.5 + 0.5 + 0.25)
    # An operation shorter than one period: only the bracketing bursts.
    raw, cal = calib.integrate(
        0.25, 0.75, [(-1.0, 0.0, 2 * ref), (1.0, 1.5, 2 * ref)], inline=True
    )
    assert (raw, cal) == (pytest.approx(0.5), pytest.approx(0.25))


def test_sampler_samples_while_the_body_runs_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with calib.Sampler() as sampler:
        start = sampler.body_clock()
        while sampler.body_clock() - start < 0.2:
            calib.kernel(200)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 4  # before, after, and some between
    assert 0.15 < sampler.raw_s < 0.6
    assert sampler.cal_s == pytest.approx(sampler.raw_s * sampler.factor)


def test_end_to_end_metrics_are_medians_of_calibrated_reps():
    reps = [
        {"cal_wall_s": wall, "cal_cpu_s": 2 * wall, "raw_wall_s": 2 * wall,
         "raw_cpu_s": 4 * wall, "cycles": 1000, "flits": 500}
        for wall in (1.0, 4.0, 2.0)
    ]
    out = metrics.end_to_end(reps, [0.5, 0.3, 0.9], peak_rss_mb=40.0)
    assert out == {
        "setup_s": 0.5, "wall_s": 2.0, "cpu_s": 4.0,
        "sim_cycles_per_s": 500.0, "flits_per_s": 250.0, "peak_rss_mb": 40.0,
    }
    host = metrics.host_diagnostics(reps)
    assert host["host.cal_factor"] == 0.5 and host["host.reps"] == 3.0
    assert metrics.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)
