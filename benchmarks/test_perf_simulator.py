"""Simulator performance: cycles per second for each router model.

Not a paper figure — this benchmark tracks the cost of the simulation
substrate itself, which determines how close to the paper's radix-64 /
long-window configuration a given machine can run.  pytest-benchmark's
statistics across rounds make regressions in the hot per-cycle loops
visible.

The active-set tests compare the engine's two schedules: active-set
(idle routers parked, known-empty input ports skipped) against the
exhaustive reference (everything scanned every cycle).  Both must
produce byte-identical results; the active-set schedule must be at
least 1.5x faster on the low-load configurations where parking pays.
"""

import time

import pytest

from common import BASE_CONFIG

from repro.core.config import RouterConfig
from repro.harness.experiment import SwitchSimulation
from repro.network.netsim import ClosNetworkSimulation, NetworkConfig
from repro.routers.baseline import BaselineRouter
from repro.routers.buffered import BufferedCrossbarRouter
from repro.routers.distributed import DistributedRouter
from repro.routers.hierarchical import HierarchicalCrossbarRouter
from repro.routers.shared_buffer import SharedBufferCrossbarRouter
from repro.routers.voq import VoqRouter

CYCLES = 300

ROUTERS = {
    "baseline": BaselineRouter,
    "distributed": DistributedRouter,
    "buffered": BufferedCrossbarRouter,
    "shared_buffer": SharedBufferCrossbarRouter,
    "hierarchical": HierarchicalCrossbarRouter,
    "voq": VoqRouter,
}


@pytest.mark.parametrize("name", sorted(ROUTERS))
def test_perf_router_step(benchmark, name):
    cls = ROUTERS[name]

    def run():
        sim = SwitchSimulation(cls(BASE_CONFIG), load=0.6)
        for _ in range(CYCLES):
            sim.step()
        return sim.router.stats.flits_ejected

    delivered = benchmark.pedantic(run, rounds=3, iterations=1)
    # Sanity: the simulated router actually moved traffic.
    assert delivered > 0


# ----------------------------------------------------------------------
# Active-set scheduling speedup (and its results-identical contract)
# ----------------------------------------------------------------------

SPEEDUP_FLOOR = 1.5

#: The event scheduler must beat the cycle stepper by this much on the
#: radix-64 low-load Clos drive loop (the working target is 10x).
EVENT_FF_FLOOR = 5.0

ROUNDS = 3


def _best_of(rounds, fn):
    """Minimum wall time over ``rounds`` runs (noise-robust ratio)."""
    times = []
    checksum = None
    for _ in range(rounds):
        start = time.perf_counter()  # lint: disable=R002
        value = fn()
        times.append(time.perf_counter() - start)  # lint: disable=R002
        if checksum is None:
            checksum = value
        else:
            assert value == checksum, "run is not deterministic"
    return min(times), checksum


# ----------------------------------------------------------------------
# Tracing overhead: the disabled hook guards must be (nearly) free
# ----------------------------------------------------------------------

#: Max fraction of run time the disabled emission guards may cost.
TRACE_OVERHEAD_CEILING = 0.05


def test_perf_tracing_disabled_overhead(benchmark):
    """With no collector attached, the ``if hooks.stage_enter:``-style
    guards added for repro.trace must cost <= 5% of the run.

    A/B wall-time comparison of two full runs is hopeless at the 5%
    level (scheduler noise alone swings pedantic means by more), so the
    bound is measured directly: count how often the emission guards
    fire in a representative run (by subscribing counters to every
    hook event — one callback per would-be guard evaluation), measure
    the per-evaluation cost of a cold guard on the same bus type, and
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

    delivered = benchmark.pedantic(run, rounds=ROUNDS, iterations=1)
    assert delivered > 0
    untraced, _ = _best_of(ROUNDS, run)

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

    # Per-evaluation cost of a disabled guard (attribute load + empty
    # list truthiness), min over rounds like the wall times above.
    idle = EngineHooks()
    reps = 100_000
    per_eval_times = []
    for _ in range(ROUNDS):
        start = time.perf_counter()  # lint: disable=R002
        for _ in range(reps):
            if idle.stage_enter:
                pass  # pragma: no cover - the list is empty
        per_eval_times.append(
            (time.perf_counter() - start) / reps  # lint: disable=R002
        )
    guard_cost = min(per_eval_times) * events[0]

    overhead = guard_cost / untraced
    assert overhead <= TRACE_OVERHEAD_CEILING, (
        f"disabled-tracing guards cost {overhead:.1%} of the run "
        f"({events[0]} guard evaluations x "
        f"{min(per_eval_times) * 1e9:.0f}ns vs {untraced:.3f}s; "
        f"ceiling {TRACE_OVERHEAD_CEILING:.0%})"
    )


# ----------------------------------------------------------------------
# Fault-injection overhead: the faults-disabled guards must be free
# ----------------------------------------------------------------------

#: Max fraction of run time the faults-disabled guards may cost.
FAULTS_OVERHEAD_CEILING = 0.05


def test_perf_faults_disabled_overhead(benchmark, monkeypatch):
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

    delivered = benchmark.pedantic(run, rounds=ROUNDS, iterations=1)
    assert delivered > 0
    baseline, _ = _best_of(ROUNDS, run)

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
    assert counted_delivered == delivered, "counting changed the simulation"
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
    shape_costs = []

    times = []
    for _ in range(ROUNDS):
        start = time.perf_counter()  # lint: disable=R002
        for _ in range(reps):
            if host.fault_injector is not None:
                pass  # pragma: no cover - guards are disabled
        times.append(
            (time.perf_counter() - start) / reps  # lint: disable=R002
        )
    shape_costs.append(min(times))

    times = []
    for _ in range(ROUNDS):
        start = time.perf_counter()  # lint: disable=R002
        for _ in range(reps):
            if host.stuck and (0, 0) in host.stuck:
                pass  # pragma: no cover - guards are disabled
        times.append(
            (time.perf_counter() - start) / reps  # lint: disable=R002
        )
    shape_costs.append(min(times))

    guard_cost = max(shape_costs) * evals

    overhead = guard_cost / baseline
    assert overhead <= FAULTS_OVERHEAD_CEILING, (
        f"disabled-faults guards cost {overhead:.1%} of the run "
        f"({evals} guard evaluations x {max(shape_costs) * 1e9:.0f}ns "
        f"vs {baseline:.3f}s; ceiling {FAULTS_OVERHEAD_CEILING:.0%})"
    )


def test_perf_active_set_radix64_low_load(benchmark):
    """Radix-64 switch at low load: parking must pay >= 1.5x."""
    def run(active_set):
        sim = SwitchSimulation(
            HierarchicalCrossbarRouter(RouterConfig(radix=64)),
            load=0.005, active_set=active_set,
        )
        for _ in range(2000):
            sim.step()
        return sim.router.stats.flits_ejected

    exhaustive, ref = _best_of(ROUNDS, lambda: run(False))

    def timed_active():
        return run(True)

    delivered = benchmark.pedantic(timed_active, rounds=ROUNDS,
                                   iterations=1)
    active, _ = _best_of(ROUNDS, timed_active)
    assert delivered == ref, "active-set changed the simulation"
    assert delivered > 0
    speedup = exhaustive / active
    assert speedup >= SPEEDUP_FLOOR, (
        f"active-set speedup {speedup:.2f}x below {SPEEDUP_FLOOR}x "
        f"(exhaustive {exhaustive:.3f}s, active {active:.3f}s)"
    )


def test_perf_event_ff_clos_radix64(benchmark):
    """Radix-64 Clos at very low load: fast-forward must pay >= 5x.

    The ratio compares the drive loops only — each round constructs a
    fresh simulation outside its clock: the contract under test is
    the per-cycle loop inversion, not construction (event mode's share
    of which, filling one state row per host for the bulk arrival
    pre-draw, is covered by the end-to-end benchmark's ``setup_s``).
    10x is the working target on this configuration; 5x is the
    asserted floor.
    """
    load = 5e-5
    cycles = 2500

    def run(scheduler):
        sim = ClosNetworkSimulation(
            NetworkConfig(radix=64, levels=2, num_vcs=2, packet_size=2,
                          seed=5),
            load, scheduler=scheduler,
        )
        start = time.perf_counter()  # lint: disable=R002
        sim.run_until(cycles)
        elapsed = time.perf_counter() - start  # lint: disable=R002
        resident = sum(r.occupancy() for r in sim.routers.values())
        checksum = (len(sim._inflight), resident,
                    sim._sched.component_steps)
        return elapsed, checksum

    def best_of(scheduler):
        best, checksum = None, None
        for _ in range(ROUNDS):
            elapsed, value = run(scheduler)
            best = elapsed if best is None else min(best, elapsed)
            if checksum is None:
                checksum = value
            else:
                assert value == checksum, "run is not deterministic"
        return best, checksum

    def timed_event():
        _, checksum = run("event")
        return checksum

    recorded = benchmark.pedantic(timed_event, rounds=ROUNDS, iterations=1)
    cycle_time, ref = best_of("cycle")
    event_time, checksum = best_of("event")
    assert recorded == checksum == ref, "scheduler changed the simulation"
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
    """Both legs run in this process, build included, alternating, so
    host speed cancels out of the ratio."""
    import repro.network.netsim as netsim

    if not netsim.HAVE_NUMPY:
        pytest.skip("numpy unavailable; there is one leg only")

    def run(numpy):
        monkeypatch.setattr(netsim, "HAVE_NUMPY", numpy)
        start = time.perf_counter()  # lint: disable=R002
        sim = ClosNetworkSimulation(
            NetworkConfig(radix=radix, levels=2, num_vcs=2, seed=5),
            load, scheduler="event",
        )
        sim.run_until(cycles)
        elapsed = time.perf_counter() - start  # lint: disable=R002
        assert (sim._rows is not None) == (numpy and bulk)
        return elapsed, (sim._arrival_cursor, sim._sched.component_steps)

    best = {True: float("inf"), False: float("inf")}
    checksum = None
    for round_ in range(ROUNDS):
        for numpy in ((True, False), (False, True))[round_ % 2]:
            elapsed, value = run(numpy)
            best[numpy] = min(best[numpy], elapsed)
            assert checksum in (None, value), "numpy changed the simulation"
            checksum = value
    ratio = best[True] / best[False]
    assert ratio <= ceiling, (
        f"event mode takes {ratio:.2f}x its no-numpy build at load {load} "
        f"(ceiling {ceiling:.2f}x; numpy {best[True]:.3f}s, refused "
        f"{best[False]:.3f}s)"
    )


#: The batched hot path must beat the scalar stages by this much on
#: the radix-64 deep-saturation buffered crossbar (working ~4.5x).
BATCH_SPEEDUP_FLOOR = 3.0


def test_perf_batch_hot_path_radix64_high_load(benchmark):
    """Radix-64 buffered crossbar in deep hotspot saturation: the
    struct-of-arrays batched path must pay >= 3x on the steady state.

    This is the regime the batched path exists for — and the one
    event-driven fast-forward cannot help with (it measures ~1x here:
    every router is busy every cycle, so there is nothing to skip).
    Four fully-hot outputs with eight VCs keep every input backlogged
    behind heads that lack credits, so the scalar path pays its full
    O(k*v) eligibility scans per cycle while only ~1 flit/cycle of
    shared per-flit harness work dilutes the ratio.  The warmup runs
    the switch to saturation outside the clock; the timed window
    compares the drive loops on the steady state, best-of-N against
    scheduler noise.  The checksum doubles as a scalar-vs-batched
    identity assertion.
    """
    pytest.importorskip("numpy")
    from repro.traffic.patterns import Hotspot

    warmup, cycles = 1500, 400

    def run(batch):
        config = RouterConfig(radix=64, num_vcs=8, seed=5,
                              batch_hot_path=batch)
        sim = SwitchSimulation(
            BufferedCrossbarRouter(config), load=0.95, packet_size=4,
            pattern=Hotspot(64, num_hotspots=4, hot_fraction=1.0),
        )
        for _ in range(warmup):
            sim.step()
        start = time.perf_counter()  # lint: disable=R002
        for _ in range(cycles):
            sim.step()
        elapsed = time.perf_counter() - start  # lint: disable=R002
        stats = sim.router.stats
        return elapsed, (stats.flits_accepted, stats.flits_ejected,
                         sim.router.occupancy())

    def best_of(batch):
        best, checksum = None, None
        for _ in range(ROUNDS):
            elapsed, value = run(batch)
            best = elapsed if best is None else min(best, elapsed)
            if checksum is None:
                checksum = value
            else:
                assert value == checksum, "run is not deterministic"
        return best, checksum

    def timed_batched():
        _, checksum = run(True)
        return checksum

    recorded = benchmark.pedantic(timed_batched, rounds=ROUNDS,
                                  iterations=1)
    scalar_time, ref = best_of(False)
    batch_time, checksum = best_of(True)
    assert recorded == checksum == ref, (
        "batched path changed the simulation"
    )
    assert ref[1] > 0
    speedup = scalar_time / batch_time
    assert speedup >= BATCH_SPEEDUP_FLOOR, (
        f"batched hot path speedup {speedup:.2f}x below "
        f"{BATCH_SPEEDUP_FLOOR}x (scalar {scalar_time:.3f}s, batched "
        f"{batch_time:.3f}s)"
    )


def test_perf_hierarchical_radix64_high_load(benchmark):
    """The paper's design point (radix 64, p=8) at load 0.9.

    The regime the occupancy-indexed hierarchical hot path exists for:
    every input is backlogged, yet each of the 64 subswitches sees
    under one flit per cycle, so per-cycle work must follow the
    resident flits rather than the k*(k/p)*v lanes.  Gated through the
    reference-normalized baseline; the flit-counter checksum pins that
    the run is the same simulation on every machine and round.
    """
    def run():
        sim = SwitchSimulation(
            HierarchicalCrossbarRouter(
                RouterConfig(radix=64, subswitch_size=8, seed=5)
            ),
            load=0.9,
        )
        for _ in range(400):
            sim.step()
        stats = sim.router.stats
        return (stats.flits_accepted, stats.flits_ejected,
                sim.router.occupancy())

    checksum = benchmark.pedantic(run, rounds=ROUNDS, iterations=1)
    assert checksum == (5565, 5159, 406)


def test_perf_active_set_clos_radix16(benchmark):
    """2-level radix-16 Clos: parked stages must pay >= 1.5x."""
    def run(active_set):
        sim = ClosNetworkSimulation(
            NetworkConfig(radix=16, levels=2), load=0.02,
            active_set=active_set,
        )
        for _ in range(1500):
            sim.step()
        resident = sum(r.occupancy() for r in sim.routers.values())
        return (len(sim._inflight), resident)

    exhaustive, ref = _best_of(ROUNDS, lambda: run(False))

    def timed_active():
        return run(True)

    checksum = benchmark.pedantic(timed_active, rounds=ROUNDS,
                                  iterations=1)
    active, _ = _best_of(ROUNDS, timed_active)
    assert checksum == ref, "active-set changed the simulation"
    speedup = exhaustive / active
    assert speedup >= SPEEDUP_FLOOR, (
        f"active-set speedup {speedup:.2f}x below {SPEEDUP_FLOOR}x "
        f"(exhaustive {exhaustive:.3f}s, active {active:.3f}s)"
    )
