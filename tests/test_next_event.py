"""``next_event`` is the scheduler's only parking probe, and it is exact.

After every commit the scheduler asks each stepped component for the
next cycle it must run: that cycle keeps it awake, a later one puts it
to sleep until then (or until an earlier wake), and None parks it.
Sleeping skips cycles on which a component still holds work, so an
answer that comes late corrupts the run.  The ``exhaustive`` lane of
``tests/test_differential.py`` compares every stack against the oracle
that pins ``next_event`` to the cycle asked about; the runs here are
its pinned points, and check that the runs really reach the states the
probe exists for: a router whose occupied inputs are all still
serializing, and one whose flits have drained while credits or VC
releases are still in flight.
"""

import pytest

from repro.core.config import RouterConfig
from repro.core.flit import make_packet
from repro.engine import Scheduler
from repro.faults import FaultPlan, LinkFault
from repro.network.netsim import NetworkConfig
from repro.network.router import NetworkRouter, OutputLink
from repro.routers import BufferedCrossbarRouter

from tests.differential import ROUTERS, Run, build, compare, finish, start


def _record_answers(sim, describe=lambda component: None):
    """Wrap every component's ``next_event`` to log ``(now, answer,
    describe(component))``, the description taken when it answered;
    the probe is pure, so logging moves nothing."""
    log = []
    for component in sim._sched.components:
        probe = component.next_event

        def logged(now, component=component, probe=probe):
            answer = probe(now)
            log.append((now, answer, describe(component)))
            return answer

        component.next_event = logged
    return log


def _slept(log):
    return [entry for entry in log
            if entry[1] is not None and entry[1] > entry[0]]


def _answers(run, describe=lambda component: None):
    """The parking probe's answers over a plain run of ``run``."""
    sim = build(run)
    log = _record_answers(sim, describe)
    finish(start(sim, run))
    return log


def _switch(stack):
    """Radix 8 at a load that empties the router now and then, with a
    credit return slow enough to outlast the flits that sent it, and
    credit loss: a dropped credit's fault event and resync carry the
    cycle it was due on."""
    return Run(stack, credit_latency=12, seed=5, load=0.05, traced=True,
               faults=FaultPlan(credit_loss_rate=0.2), window=(60, 200, 600))


ORGANIZATIONS = [pytest.param(name, id=cls.__name__)
                 for name, cls in ROUTERS.items()]


class TestSwitchSleepEqualsExhaustive:
    """Every organization: the schedule that sleeps, parks and jumps
    reproduces the step-everything oracle byte for byte."""

    @pytest.mark.parametrize("stack", ORGANIZATIONS)
    def test_rows_extras_and_trace(self, stack):
        sim, oracle, _ = compare("exhaustive", _switch(stack))
        assert sim._sched.component_steps < oracle._sched.component_steps

    @pytest.mark.parametrize("stack", [
        pytest.param(name, id=ROUTERS[name].__name__)
        for name in ("buffered", "shared-buffer", "hierarchical")
    ])
    def test_credit_returns_put_an_empty_crossbar_to_sleep(self, stack):
        """With no flit resident, credits still on their way back are
        the crossbar's only work: it sleeps until the first is due
        instead of stepping every cycle until they land."""
        assert _slept(_answers(_switch(stack)))


def _router_state(router):
    """Flits resident, the earliest cycle an occupied input frees, and
    whether credits or VC releases are in flight."""
    busy_until = router.input_busy._busy_until
    return (
        router._resident,
        min((busy_until[i] for i in router._occupied), default=None),
        bool(router._credit_out or router._vc_release),
    )


#: Radix-8 Clos with a dead link, credit loss and a three-cycle credit
#: return, traced at its first leaf.
CLOS = Run(
    "clos", credit_latency=3, seed=13, load=0.35, traced=True,
    faults=FaultPlan(credit_loss_rate=0.05, links=(
        LinkFault(cycle=20, switch=(0, 1, 0), port=5, until=140),)),
    window=(40, 120, 2000),
)


class TestClosSleepEqualsExhaustive:
    def test_faulted_run(self):
        sim, oracle, seen = compare("exhaustive", CLOS)
        assert seen["extra"]["stats.faults.credit_lost"] > 0
        assert seen["extra"]["stats.faults.link_down"] > 0
        assert sim._sched.component_steps < oracle._sched.component_steps

    def test_the_run_reaches_both_sleep_states(self):
        """Sleeps with flits resident (every occupied input still
        serializing) and with none (only credits or VC releases in
        flight); before ``next_event`` was the parking probe, no run
        asked it in either state."""
        serializing = drained = 0
        for now, answer, (resident, frees, pending) in _slept(
                _answers(CLOS, _router_state)):
            if resident:
                serializing += 1
                assert answer <= frees
            else:
                drained += 1
                assert pending
        assert serializing > 0 and drained > 0


def _lone_router():
    """A two-port router whose output 1 ejects to a host (no credits)."""
    router = NetworkRouter(NetworkConfig(
        num_vcs=1, buffer_depth=4, flit_cycles=4, pipeline_delay=0,
        channel_latency=1,
    ), 2)
    delivered = []
    router.attach(1, OutputLink(
        1, lambda flit, arrival: delivered.append((flit, arrival)),
        downstream_depth=None,
    ))
    return router, delivered


class TestSerializingRouter:
    def test_reports_the_earliest_free_cycle_and_is_not_stepped_before(self):
        router, delivered = _lone_router()
        steps = []
        compute = router.compute

        def recording(cycle):
            steps.append(cycle)
            compute(cycle)

        router.compute = recording
        sched = Scheduler([router])
        for flit in make_packet(dest=0, size=3, route=[1]):
            router.accept(0, flit)
        sched.run_cycle(0)
        assert [arrival for _, arrival in delivered] == [5]
        # Input 0 serializes the head until cycle 4: nothing can move
        # before then, so the router sleeps rather than stepping.
        assert router.next_event(1) == 4
        assert sched.active_count() == 1
        for now in range(1, 12):
            sched.run_cycle(now)
        assert steps == [0, 4, 8]
        assert [arrival for _, arrival in delivered] == [5, 9, 13]
        # Drained: only the tail's VC release (due 12) is pending.
        assert router._resident == 0
        assert router.next_event(12) == 12
        sched.run_cycle(12)
        assert steps[-1] == 12
        assert router.next_event(13) is None
        assert sched.active_count() == 0

    def test_a_free_occupied_input_keeps_the_router_awake(self):
        router, _ = _lone_router()
        for flit in make_packet(dest=0, size=2, route=[1]):
            router.accept(0, flit)
        assert router.next_event(0) == 0
        router.compute(0)
        router.commit(0)
        # A second input fills while input 0 serializes: it is free.
        router.accept(1, make_packet(dest=0, size=1, route=[1])[0])
        assert router.next_event(1) == 1

    def test_resident_flits_without_an_indexed_input_keep_it_awake(self):
        router, _ = _lone_router()
        router.accept(0, make_packet(dest=0, size=1, route=[1])[0])
        router._occupied.clear()
        assert router.next_event(3) == 3


class TestEmptyCrossbar:
    """With no flit resident, a crossbar's only work is credit return."""

    def test_a_credit_waiting_for_its_bus_keeps_the_router_awake(self):
        """The bus grants one waiting credit per cycle, so it needs the
        very cycle asked about; once the credit is on the wire the
        router may sleep until it lands."""
        router = BufferedCrossbarRouter(RouterConfig(
            radix=4, num_vcs=1, subswitch_size=2, local_group_size=2,
            credit_latency=3,
        ))
        assert router.next_event(7) is None
        counter = router._credits[0][1][0]
        counter.consume()
        router._credit_buses[0].post(1, counter.restore)
        router._bus_live.add(0)
        assert router.next_event(7) == 7
        router._credit_buses[0].step(7)
        assert router.next_event(8) == 10
