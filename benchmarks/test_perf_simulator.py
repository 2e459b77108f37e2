"""Simulator performance: speedup floors and overhead ceilings.

Not a paper figure — every test here asserts a *ratio* of two timings
taken in this process, interleaved (``common.paired_best``) so that
host speed cancels; each also asserts that its two legs are the same
simulation.  Absolute cycles per second, and their trajectory from PR
to PR, are the end-to-end benchmark's job (``benchmarks/e2e``).

The active-set tests compare the engine's one schedule (idle routers
parked, known-empty input ports skipped) against the test suite's
exhaustive oracle (``tests/exhaustive.py``: everything stepped and
scanned every cycle) applied to the same simulation.  Both must produce
the same simulation; the engine must be at least 1.5x faster on the
low-load configurations where parking pays.
"""

import pytest

from common import paired_best
from tests.exhaustive import exhaustive

from repro.core.config import RouterConfig
from repro.harness.experiment import SwitchSimulation
from repro.network.netsim import NetworkConfig, NetworkSimulation
from repro.routers.buffered import BufferedCrossbarRouter
from repro.routers.hierarchical import HierarchicalCrossbarRouter

# ----------------------------------------------------------------------
# Active-set scheduling speedup (and its results-identical contract)
# ----------------------------------------------------------------------

SPEEDUP_FLOOR = 1.5

#: The event scheduler must beat the cycle stepper by this much on the
#: radix-64 low-load Clos drive loop.
EVENT_FF_FLOOR = 5.0


# ----------------------------------------------------------------------
# Tracing overhead: the disabled hook guards must be (nearly) free
# ----------------------------------------------------------------------

#: Max fraction of run time the disabled emission guards may cost.
TRACE_OVERHEAD_CEILING = 0.05


def test_perf_tracing_disabled_overhead():
    """With no collector attached, the ``if hooks.stage_enter:``-style
    guards added for repro.trace must cost <= 5% of the run.

    A/B wall-time comparison of two full runs is hopeless at the 5%
    level (scheduler noise alone swings it by more), so the bound is
    measured directly: count how often the emission guards fire in a
    representative run (by subscribing counters to every hook event —
    one callback per would-be guard evaluation), measure the
    per-evaluation cost of a cold guard on the same bus type, and
    compare the product against the untraced wall time.
    """
    from repro.engine.hooks import EngineHooks
    from repro.trace import COUNT_ONLY, TraceCollector

    config = RouterConfig(radix=32)

    def run(tracer=None):
        sim = SwitchSimulation(
            HierarchicalCrossbarRouter(config), load=0.6, tracer=tracer,
        )
        for _ in range(400):
            sim.step()
        return sim.router.stats.flits_ejected

    # A disabled guard is an attribute load + empty-list truthiness.
    idle = EngineHooks()
    reps = 100_000

    def guards():
        for _ in range(reps):
            if idle.stage_enter:
                pass  # pragma: no cover - the list is empty

    (untraced, delivered), (guard_time, _) = paired_best(run, guards)
    assert delivered > 0
    per_eval = guard_time / reps

    # Attaching a collector must not change the simulation (passivity).
    traced_delivered = run(TraceCollector(trace_filter=COUNT_ONLY))
    assert traced_delivered == delivered, "tracing changed the simulation"

    # Count guard firings: each emitted event is one taken guard.
    events = [0]

    def count(*_args):
        events[0] += 1

    counting = SwitchSimulation(
        HierarchicalCrossbarRouter(config), load=0.6,
    )
    bus = counting.hooks
    for hook in ("on_flit_move", "on_stage_enter", "on_spec_outcome",
                 "on_grant", "on_credit", "on_cycle_start",
                 "on_cycle_end"):
        getattr(bus, hook)(count)
    for _ in range(400):
        counting.step()
    assert events[0] > 0

    overhead = per_eval * events[0] / untraced
    assert overhead <= TRACE_OVERHEAD_CEILING, (
        f"disabled-tracing guards cost {overhead:.1%} of the run "
        f"({events[0]} guard evaluations x {per_eval * 1e9:.0f}ns vs "
        f"{untraced:.3f}s; ceiling {TRACE_OVERHEAD_CEILING:.0%})"
    )


# ----------------------------------------------------------------------
# Fault-injection overhead: the faults-disabled guards must be free
# ----------------------------------------------------------------------

#: Max fraction of run time the faults-disabled guards may cost.
FAULTS_OVERHEAD_CEILING = 0.05


def test_perf_faults_disabled_overhead(monkeypatch):
    """With ``faults=None``, the repro.faults guards (``self._faults is
    not None`` in the harness, the ``_stuck_inputs`` truthiness test in
    router eligibility scans, ``drop_hook is not None`` in the credit
    pipes) must cost <= 5% of the run.

    Same approach as the tracing bound above: an A/B wall-clock
    comparison cannot resolve 5%, so the guard evaluations are counted
    — one more run of the same body with a counting stand-in on each
    of the three guard shapes — and multiplied by the per-evaluation
    cost of a disabled guard, measured cold.
    """
    from repro.core.credit import DelayedCreditPipe

    config = RouterConfig(radix=32)
    cycles = 400

    def run(sim_cls=SwitchSimulation, stuck=None):
        sim = sim_cls(
            HierarchicalCrossbarRouter(config), load=0.6, faults=None,
        )
        if stuck is not None:
            sim.router._stuck_inputs = stuck
        for _ in range(cycles):
            sim.step()
        return sim.router.stats.flits_ejected

    # Every read of a guarded attribute (and every truthiness test of
    # the stuck set) is one evaluation; each stand-in answers exactly
    # as the disabled guard does.
    counted = [0]

    def count_none(_self):
        counted[0] += 1
        return None

    def refuse(_self, value):
        assert value is None

    class _CountingSimulation(SwitchSimulation):
        _faults = property(count_none, refuse)

    class _CountingStuck(set):
        def __bool__(self):
            counted[0] += 1
            return False

    with monkeypatch.context() as patch:
        patch.setattr(DelayedCreditPipe, "drop_hook",
                      property(count_none, refuse))
        counted_delivered = run(_CountingSimulation, _CountingStuck())
    evals = counted[0]
    assert evals > 0

    # Per-evaluation cost of the two disabled-guard shapes, measured
    # inline exactly as the hot paths spell them (the routers inline
    # the stuck test rather than calling ``_input_stuck``, so no
    # function-call overhead belongs in the bound); take the slower
    # shape.
    class _Host:
        def __init__(self):
            self.fault_injector = None
            self.stuck = set()

    host = _Host()
    reps = 300_000

    def injector_guards():
        for _ in range(reps):
            if host.fault_injector is not None:
                pass  # pragma: no cover - guards are disabled

    def stuck_guards():
        for _ in range(reps):
            if host.stuck and (0, 0) in host.stuck:
                pass  # pragma: no cover - guards are disabled

    worst = (0.0, 0.0, 0.0)
    for guards in (injector_guards, stuck_guards):
        (baseline, delivered), (guard_time, _) = paired_best(run, guards)
        assert delivered == counted_delivered > 0, (
            "counting changed the simulation"
        )
        per_eval = guard_time / reps
        worst = max(worst, (per_eval * evals / baseline, per_eval, baseline))
    overhead, per_eval, baseline = worst
    assert overhead <= FAULTS_OVERHEAD_CEILING, (
        f"disabled-faults guards cost {overhead:.1%} of the run "
        f"({evals} guard evaluations x {per_eval * 1e9:.0f}ns "
        f"vs {baseline:.3f}s; ceiling {FAULTS_OVERHEAD_CEILING:.0%})"
    )


def test_perf_active_set_radix64_low_load():
    """Radix-64 switch at low load: parking must pay >= 1.5x."""
    def run(oracle):
        sim = SwitchSimulation(
            HierarchicalCrossbarRouter(RouterConfig(radix=64)), load=0.005,
        )
        if oracle:
            exhaustive(sim)
        for _ in range(2000):
            sim.step()
        return sim.router.stats.flits_ejected

    (oracle_s, ref), (active_s, delivered) = paired_best(
        lambda: run(True), lambda: run(False))
    assert delivered == ref, "active-set changed the simulation"
    assert delivered > 0
    speedup = oracle_s / active_s
    assert speedup >= SPEEDUP_FLOOR, (
        f"active-set speedup {speedup:.2f}x below {SPEEDUP_FLOOR}x "
        f"(exhaustive {oracle_s:.3f}s, active {active_s:.3f}s)"
    )


def test_perf_event_ff_clos_radix64():
    """Radix-64 Clos at very low load: fast-forward must pay >= 5x.

    The ratio compares the drive loops only — each round constructs a
    fresh simulation outside its clock: the contract under test is
    the per-cycle loop inversion, not construction (event mode's share
    of which, filling one state row per host for the bulk arrival
    pre-draw, is covered by the end-to-end benchmark's ``setup_s``).
    """
    load = 5e-5
    cycles = 2500

    def build(scheduler):
        return NetworkSimulation(
            NetworkConfig(radix=64, levels=2, num_vcs=2, packet_size=2,
                          seed=5),
            load, scheduler=scheduler,
        )

    def drive(sim):
        sim.run_until(cycles)
        resident = sum(r.occupancy() for r in sim.routers.values())
        return (len(sim._inflight), resident, sim._sched.component_steps)

    (cycle_time, ref), (event_time, checksum) = paired_best(
        (lambda: build("cycle"), drive), (lambda: build("event"), drive))
    assert checksum == ref, "scheduler changed the simulation"
    speedup = cycle_time / event_time
    assert speedup >= EVENT_FF_FLOOR, (
        f"fast-forward speedup {speedup:.2f}x below {EVENT_FF_FLOOR}x "
        f"(cycle {cycle_time:.3f}s, event {event_time:.3f}s)"
    )


#: Event mode's arrival pre-draw picks the bulk search or the scalar
#: loop from the packet rate.  Against the same run with numpy refused
#: (the scalar loop everywhere) it may cost at most this much more
#: where it chooses scalar too (it was 6.7x while bulk ran at every
#: rate) ...
PREDRAW_HIGH_RATE_CEILING = 1.25
#: ... and must be at least this much faster where it chooses bulk
#: (working ~2.5x).
PREDRAW_LOW_RATE_FLOOR = 1.3


@pytest.mark.parametrize("radix, load, cycles, bulk, ceiling", [
    (16, 0.05, 3000, False, PREDRAW_HIGH_RATE_CEILING),
    (64, 1e-4, 20000, True, 1.0 / PREDRAW_LOW_RATE_FLOOR),
])
def test_perf_event_predraw_vs_no_numpy(monkeypatch, radix, load, cycles,
                                        bulk, ceiling):
    """Event mode against its own no-numpy build, construction
    included (the pre-draw fills its state rows there)."""
    import repro.network.arrivals as arrivals

    if not arrivals.HAVE_NUMPY:
        pytest.skip("numpy unavailable; there is one leg only")

    def run(numpy):
        monkeypatch.setattr(arrivals, "HAVE_NUMPY", numpy)
        sim = NetworkSimulation(
            NetworkConfig(radix=radix, levels=2, num_vcs=2, seed=5),
            load, scheduler="event",
        )
        sim.run_until(cycles)
        assert sim.arrivals.bulk == (numpy and bulk)
        return (sim.arrivals.snapshot()["arrivals"]["cursor"],
                sim._sched.component_steps)

    (with_numpy, checksum), (refused, ref) = paired_best(
        lambda: run(True), lambda: run(False))
    assert checksum == ref, "numpy changed the simulation"
    ratio = with_numpy / refused
    assert ratio <= ceiling, (
        f"event mode takes {ratio:.2f}x its no-numpy build at load {load} "
        f"(ceiling {ceiling:.2f}x; numpy {with_numpy:.3f}s, refused "
        f"{refused:.3f}s)"
    )


#: The batched hot path must beat the scalar stages by this much on
#: the radix-64 deep-saturation buffered crossbar (working ~1.4-1.55x
#: since the scalar stages probe only what they hold).
BATCH_SPEEDUP_FLOOR = 1.2


def test_perf_batch_hot_path_radix64_high_load():
    """Radix-64 buffered crossbar in deep hotspot saturation: the
    struct-of-arrays batched path must pay >= 1.2x on the steady state.

    This is the regime the batched path exists for — and the one
    event-driven fast-forward cannot help with (it measures ~1x here:
    every router is busy every cycle, so there is nothing to skip).
    Four fully-hot outputs with eight VCs keep every input backlogged
    behind heads that lack credits, so the scalar path probes every
    head of every free input and every occupied crosspoint of the hot
    columns each cycle while only ~1 flit/cycle of
    shared per-flit harness work dilutes the ratio.  The warmup runs
    the switch to saturation outside the clock; the timed window
    compares the drive loops on the steady state.  The checksum
    doubles as a scalar-vs-batched identity assertion.
    """
    pytest.importorskip("numpy")
    from repro.traffic.patterns import Hotspot

    warmup, cycles = 1500, 400

    def saturate(batch):
        config = RouterConfig(radix=64, num_vcs=8, seed=5,
                              batch_hot_path=batch)
        sim = SwitchSimulation(
            BufferedCrossbarRouter(config), load=0.95, packet_size=4,
            pattern=Hotspot(64, num_hotspots=4, hot_fraction=1.0),
        )
        for _ in range(warmup):
            sim.step()
        return sim

    def drive(sim):
        for _ in range(cycles):
            sim.step()
        stats = sim.router.stats
        return (stats.flits_accepted, stats.flits_ejected,
                sim.router.occupancy())

    (scalar_time, ref), (batch_time, checksum) = paired_best(
        (lambda: saturate(False), drive), (lambda: saturate(True), drive))
    assert checksum == ref, "batched path changed the simulation"
    assert ref[1] > 0
    speedup = scalar_time / batch_time
    assert speedup >= BATCH_SPEEDUP_FLOOR, (
        f"batched hot path speedup {speedup:.2f}x below "
        f"{BATCH_SPEEDUP_FLOOR}x (scalar {scalar_time:.3f}s, batched "
        f"{batch_time:.3f}s)"
    )


def test_perf_active_set_clos_radix16():
    """2-level radix-16 Clos: parked stages must pay >= 1.5x."""
    def run(oracle):
        sim = NetworkSimulation(NetworkConfig(radix=16, levels=2), load=0.02)
        if oracle:
            exhaustive(sim)
        for _ in range(1500):
            sim.step()
        resident = sum(r.occupancy() for r in sim.routers.values())
        return (len(sim._inflight), resident)

    (oracle_s, ref), (active_s, checksum) = paired_best(
        lambda: run(True), lambda: run(False))
    assert checksum == ref, "active-set changed the simulation"
    speedup = oracle_s / active_s
    assert speedup >= SPEEDUP_FLOOR, (
        f"active-set speedup {speedup:.2f}x below {SPEEDUP_FLOOR}x "
        f"(exhaustive {oracle_s:.3f}s, active {active_s:.3f}s)"
    )
