"""Tests for the ``repro.engine`` two-phase simulation kernel.

Covers the three pieces every simulation layer now shares:

* :class:`~repro.engine.Component` — compute/commit phase ordering and
  the standalone ``step()`` compatibility path;
* :class:`~repro.engine.Scheduler` — active-set parking, wake-up, and
  the guarantee that parking never changes simulation results (checked
  against the step-everything oracle of ``tests/exhaustive.py``);
* :class:`~repro.engine.EngineHooks` — the event bus instrumentation
  attaches through.
"""

import pytest

from repro.core.config import RouterConfig
from repro.engine import Component, EngineHooks, EventScheduler, Scheduler
from repro.harness.experiment import SweepSettings, SwitchSimulation
from repro.network.netsim import NetworkConfig, NetworkSimulation
from repro.routers.hierarchical import HierarchicalCrossbarRouter
from tests.exhaustive import exhaustive

SMALL = RouterConfig(radix=8, num_vcs=2, subswitch_size=4,
                     local_group_size=4)
SETTINGS = SweepSettings(warmup=150, measure=300, drain=3000)


class Ticker(Component):
    """Minimal component: busy for its first ``work`` commits."""

    def __init__(self, work=0, journal=None, name="t"):
        super().__init__()
        self.work = work
        self.journal = journal if journal is not None else []
        self.name = name
        self.wakes = []

    def compute(self, cycle):
        self.journal.append(("compute", self.name, cycle))

    def commit(self, cycle):
        self.journal.append(("commit", self.name, cycle))
        if self.work:
            self.work -= 1
        self.cycle = cycle + 1

    def next_event(self, now):
        return now if self.work > 0 else None

    def on_wake(self, cycle):
        self.wakes.append(cycle)
        super().on_wake(cycle)


class TestComponent:
    def test_step_runs_compute_then_commit(self):
        t = Ticker(work=3)
        t.step()
        t.step()
        assert t.journal == [
            ("compute", "t", 0), ("commit", "t", 0),
            ("compute", "t", 1), ("commit", "t", 1),
        ]
        assert t.cycle == 2

    def test_step_fires_hooks_with_pre_and_post_cycle(self):
        t = Ticker(work=1)
        events = []
        t.hooks.on_cycle_start(lambda c: events.append(("start", c)))
        t.hooks.on_cycle_end(lambda c: events.append(("end", c)))
        t.step()
        assert events == [("start", 0), ("end", 1)]

    def test_base_component_is_abstract(self):
        c = Component()
        with pytest.raises(NotImplementedError):
            c.compute(0)
        with pytest.raises(NotImplementedError):
            c.commit(0)
        assert c.next_event(5) == 5


class TestScheduler:
    def test_all_computes_precede_all_commits(self):
        journal = []
        a = Ticker(work=2, journal=journal, name="a")
        b = Ticker(work=2, journal=journal, name="b")
        sched = Scheduler([a, b])
        sched.run_cycle(0)
        assert [e[0] for e in journal] == [
            "compute", "compute", "commit", "commit"
        ]
        # Phase order follows registration order.
        assert [e[1] for e in journal] == ["a", "b", "a", "b"]

    def test_idle_components_are_parked(self):
        t = Ticker(work=2)
        sched = Scheduler([t])
        for now in range(5):
            sched.run_cycle(now)
        # Stepped while busy (cycles 0-1), then parked.
        assert [e[2] for e in t.journal if e[0] == "compute"] == [0, 1]
        assert sched.active_count() == 0
        assert sched.cycles_run == 5
        assert sched.component_steps == 2

    def test_cycle_end_fires_even_when_everything_is_parked(self):
        hooks = EngineHooks()
        ends = []
        hooks.on_cycle_end(lambda c: ends.append(c))
        sched = Scheduler([Ticker(work=0)], hooks=hooks)
        for now in range(3):
            sched.run_cycle(now)
        assert ends == [1, 2, 3]

    def test_wake_reactivates_and_fast_forwards_clock(self):
        t = Ticker(work=1)
        sched = Scheduler([t])
        sched.run_cycle(0)
        assert sched.active_count() == 0
        t.work = 1
        sched.wake(t, 7)
        assert sched.active_count() == 1
        assert t.wakes == [7]
        assert t.cycle == 7
        sched.run_cycle(7)
        assert t.journal[-1] == ("commit", "t", 7)

    def test_wake_on_active_component_is_a_no_op(self):
        t = Ticker(work=5)
        sched = Scheduler([t])
        sched.wake(t, 3)
        assert t.wakes == []

    def test_exhaustive_oracle_steps_everything(self):
        """The tests-side oracle never parks (so never fast-forwards)
        at a load where the engine parks nearly everything."""
        cfg = NetworkConfig(radix=4, levels=2, num_vcs=2)
        for scheduler in ("cycle", "event"):
            self._assert_never_parks(SwitchSimulation(
                HierarchicalCrossbarRouter(SMALL), load=0.02,
                scheduler=scheduler,
            ))
            self._assert_never_parks(
                NetworkSimulation(cfg, load=0.02, scheduler=scheduler)
            )

    @staticmethod
    def _assert_never_parks(sim):
        sched = exhaustive(sim)._sched
        sim.run_until(400)
        assert sched.cycles_run == 400 and sched.cycles_skipped == 0
        assert sched.component_steps == 400 * len(sched.components)

    def test_register_after_construction(self):
        sched = Scheduler()
        t = Ticker(work=1)
        sched.register(t)
        sched.run_cycle(0)
        assert t.journal

    def test_wake_unregistered_component_names_the_component(self):
        """Regression: this used to surface as an opaque ``KeyError``
        from the scheduler's internal index, with no hint of which
        component the event was delivered to."""
        from repro.engine import UnregisteredComponentError

        sched = Scheduler([Ticker(work=1)])
        stray = Ticker(work=1, name="stray")
        with pytest.raises(UnregisteredComponentError) as exc:
            sched.wake(stray, 3)
        assert "Ticker" in str(exc.value)
        assert "'stray'" in str(exc.value)
        assert "register()" in str(exc.value)
        assert exc.value.component is stray


class Sleeper(Ticker):
    """Has work at the cycles in ``due`` and at no other."""

    def __init__(self, due, **kwargs):
        super().__init__(**kwargs)
        self.due = sorted(due)

    def next_event(self, now):
        return next((cycle for cycle in self.due if cycle >= now), None)


def _computed(component):
    return [cycle for phase, _, cycle in component.journal
            if phase == "compute"]


class TestSleep:
    """A later ``next_event`` answer sleeps the component on the timer
    heap: skipped until that cycle, or an earlier wake."""

    @pytest.mark.parametrize("cls", [Scheduler, EventScheduler])
    def test_stepped_only_at_the_cycles_it_names(self, cls):
        s = Sleeper([0, 3, 7])
        sched = cls([s])
        sched.run_until(10)
        assert _computed(s) == [0, 3, 7]
        # Each ring re-synchronizes the clock, as a wake does.
        assert s.wakes == [3, 7]
        assert sched.component_steps == 3
        assert sched.active_count() == 0

    def test_a_sleeper_counts_as_live_so_nothing_is_skipped(self):
        """Fast-forward jumps only when nothing is awake or asleep: the
        sleep costs the engine no skipped cycle it would not skip with
        the component stepped every cycle."""
        s = Sleeper([0, 50])
        sched = EventScheduler([s])
        sched.run_until(60)
        assert _computed(s) == [0, 50]
        assert sched.cycles_run == 51
        assert (sched.cycles_skipped, sched.ff_jumps) == (9, 1)

    def test_a_wake_cuts_the_sleep_short_and_the_old_timer_expires(self):
        s = Sleeper([0, 7])
        sched = Scheduler([s])
        for now in range(4):
            sched.run_cycle(now)
        sched.wake(s, 4)
        assert s.wakes == [4] and s.cycle == 4
        for now in range(4, 10):
            sched.run_cycle(now)
        # Stepped at 4 (the wake), then asleep again until 7: the
        # first timer for 7 rings once, its duplicate is dropped.
        assert _computed(s) == [0, 4, 7]
        assert s.wakes == [4, 7]

    def test_a_sleeper_is_captured_live_and_restored_awake(self):
        s = Sleeper([0, 9])
        sched = Scheduler([s])
        sched.run_until(3)
        state = sched.snapshot()
        assert state["active"] == [True] and state["mode"] == "cycle"
        twin = Sleeper([0, 9])
        restored = Scheduler([twin])
        restored.restore(state)
        assert twin.wakes == [3] and restored.active_count() == 1
        restored.run_until(10)
        # Woken early: cycle 3 runs as a no-op, then it sleeps to 9.
        assert _computed(twin) == [3, 9]

    @pytest.mark.parametrize("captured, mode", [
        ({"now": 0}, "cycle"), ({"now": 0, "wheel": []}, "event"),
        ({"now": 0, "mode": "event"}, "event"),
    ])
    def test_the_captured_mode_of_old_and_new_snapshots(self, captured, mode):
        """Captures written before the ``mode`` key name event mode by
        the (always empty) ``wheel`` key it used to write."""
        assert Scheduler.captured_mode(captured) == mode


class TestEngineHooks:
    def test_multiple_subscribers_all_fire(self):
        hooks = EngineHooks()
        seen = []
        hooks.on_flit_move(lambda *a: seen.append(("one", a)))
        hooks.on_flit_move(lambda *a: seen.append(("two", a)))
        hooks.emit_flit_move("accept", "flit", 3, 9)
        assert [s[0] for s in seen] == ["one", "two"]
        assert seen[0][1] == ("accept", "flit", 3, 9)

    def test_registration_returns_the_callback(self):
        hooks = EngineHooks()

        def cb(cycle):
            pass

        assert hooks.on_cycle_start(cb) is cb
        assert hooks.on_cycle_end(cb) is cb
        assert cb in hooks.cycle_start and cb in hooks.cycle_end


class TestActiveSetEquivalence:
    """Parking must be invisible in the results, at any load."""

    @pytest.mark.parametrize("load", [0.05, 0.6])
    def test_switch_results_identical(self, load):
        results = []
        for oracle in (False, True):
            sim = SwitchSimulation(HierarchicalCrossbarRouter(SMALL), load=load)
            if oracle:
                exhaustive(sim)
            results.append(sim.run(SETTINGS))
        on, off = results
        assert on.avg_latency == off.avg_latency
        assert on.throughput == off.throughput
        assert on.packets_measured == off.packets_measured
        assert on.extra == off.extra

    def test_low_load_switch_actually_parks(self):
        sim = SwitchSimulation(
            HierarchicalCrossbarRouter(SMALL), load=0.02,
        )
        sim.run(SETTINGS)
        assert sim._sched.component_steps < sim._sched.cycles_run

    def test_network_results_identical(self):
        cfg = NetworkConfig(radix=4, levels=2, num_vcs=2, packet_size=1)
        results = []
        for oracle in (False, True):
            sim = NetworkSimulation(cfg, load=0.2)
            if oracle:
                exhaustive(sim)
            results.append(sim.run(warmup=150, measure=250, drain=3000))
        on, off = results
        assert on.avg_latency == off.avg_latency
        assert on.throughput == off.throughput
        assert on.packets_measured == off.packets_measured

    def test_low_load_network_actually_parks(self):
        cfg = NetworkConfig(radix=4, levels=2, num_vcs=2)
        sim = NetworkSimulation(cfg, load=0.02)
        sim.run(warmup=150, measure=250, drain=3000)
        sched = sim._sched
        assert sched.component_steps < sched.cycles_run * len(sim.routers)


class TestTraceDeterminism:
    """The exported trace is a function of (config, seed) alone."""

    def _chrome_bytes(self, oracle=False, seed=9):
        from repro.core.flit import reset_packet_ids
        from repro.trace import TraceCollector, chrome_trace_json

        reset_packet_ids()
        collector = TraceCollector()
        sim = SwitchSimulation(
            HierarchicalCrossbarRouter(SMALL), load=0.35, seed=seed,
            tracer=collector,
        )
        if oracle:
            exhaustive(sim)
        sim.run(SETTINGS)
        return chrome_trace_json(collector)

    def test_same_seed_byte_identical(self):
        assert self._chrome_bytes() == self._chrome_bytes()

    def test_active_set_invisible_in_trace(self):
        """Scheduler parking must not perturb one traced timestamp."""
        assert self._chrome_bytes() == self._chrome_bytes(oracle=True)

    def test_different_seeds_diverge(self):
        assert self._chrome_bytes(seed=9) != self._chrome_bytes(seed=10)


class TestStatsExtraSurviveAggregation:
    def test_bumped_counters_fold_into_result_extra(self):
        router = HierarchicalCrossbarRouter(SMALL)
        sim = SwitchSimulation(router, load=0.3)
        router.stats.bump("speculative_misses", 7)
        result = sim.run(SETTINGS)
        assert result.extra["stats.speculative_misses"] == 7.0
        # Harness bookkeeping still present alongside.
        assert "undelivered" in result.extra

    def test_extras_render_in_reports(self):
        from repro.harness.experiment import SweepResult
        from repro.harness.report import format_extras

        router = HierarchicalCrossbarRouter(SMALL)
        sim = SwitchSimulation(router, load=0.3)
        router.stats.bump("speculative_misses", 7)
        sweep = SweepResult(label="hier", results=[sim.run(SETTINGS)])
        table = format_extras(sweep, title="counters")
        assert "stats.speculative_misses" in table
        assert "7" in table
        assert "undelivered" in table
