"""The exhaustive reference schedule: the oracle for every skip rule.

The engine has one schedule.  It puts a component to sleep or parks
it when its ``next_event`` names a later cycle or None, the switch
stack skips an input whose ``Router._in_flits`` count is zero (and the
harness a port whose count says the bank is full), and
``NetworkRouter._allocate`` visits only the inputs in ``_occupied``.
Each skip claims to be invisible: the schedule that steps every
component every cycle and probes every input must produce the same
rows, extras, trace bytes and arbiter pointers.

:func:`exhaustive` builds that reference from outside, on an already
constructed simulation, with no hook in ``src/``:

* every scheduled component's ``next_event`` is pinned to the cycle it
  is asked about, so nothing sleeps or parks and the scheduler never
  fast-forwards;
* a switch's ``Router._in_flits`` becomes :class:`AlwaysActive`;
* every Clos router's ``_occupied`` becomes :class:`AllPorts`.

:func:`never_jump` is the narrower oracle for the scheduler's one
remaining skip, the fast-forward over spans in which everything is
parked: it keeps every other skip and only makes the clock step
through every cycle.  Every other differential runs on the one clock
``src/`` has, the jumping one.

Apply either before the first cycle runs.  Oracle runs are neither
sanitized (the sanitizer audits the very indices this replaces) nor
checkpointed.  Both are lanes of ``tests/differential.py``: the
``never_jump`` and ``exhaustive`` lanes of ``test_differential.py``
draw runs of every stack against them, and their pinned points live in
``test_event_scheduler.py``, ``test_next_event.py`` and the two
hot-path test files.  A few explicit checks beside the features the
jump crosses (the goldens, the workload families, the hierarchical
crossbar's sanitized runs) and the active-set speedup floors in
``benchmarks/test_perf_simulator.py`` call them directly.
"""

import math

from repro.network.netsim import NetworkSimulation

#: The result-row fields every differential compares.
ROW = (
    "offered_load", "avg_latency", "p99_latency", "max_latency",
    "throughput", "packets_measured", "cycles", "saturated",
)


class AlwaysActive:
    """Stand-in for ``Router._in_flits``.

    Reads as -1 for every port — truthy, and equal to no real count, so
    no input stage skips a port and the harness never reads a bank as
    full — and swallows the writes the count maintenance makes.
    """

    __slots__ = ()

    def __getitem__(self, port):
        return -1

    def __setitem__(self, port, value):
        return None


class AllPorts:
    """Stand-in for ``NetworkRouter._occupied``: iterates every port in
    ascending order and ignores ``add`` and ``discard``."""

    __slots__ = ("_ports",)

    def __init__(self, num_ports):
        self._ports = range(num_ports)

    def __iter__(self):
        return iter(self._ports)

    def add(self, port):
        return None

    def discard(self, port):
        return None


def _always_now(now):
    return now


def exhaustive(sim):
    """Put the built simulation ``sim`` (a ``SwitchSimulation`` or a
    serial ``NetworkSimulation``) on the step-everything schedule;
    returns ``sim``."""
    for component in sim._sched.components:
        component.next_event = _always_now
    if isinstance(sim, NetworkSimulation):
        for router in sim.routers.values():
            router._occupied = AllPorts(len(router.inputs))
    else:
        sim.router._in_flits = AlwaysActive()
    return sim


def never_jump(sim):
    """Make the built simulation ``sim`` step every cycle: ``now`` is
    registered as a wake source, so the horizon is always the current
    cycle and the scheduler never fast-forwards.  Components still
    sleep and park.  Returns ``sim``."""
    sim._sched.add_wake_source(_always_now)
    return sim


def engine_free(extra):
    """``extra`` without the ``stats.engine.*`` counters, which count
    what the schedule skipped and so are the one legitimate difference
    between a run and either oracle."""
    return {k: v for k, v in extra.items()
            if not k.startswith("stats.engine.")}


def row(result):
    """``result``'s :data:`ROW` fields as a dict.  A window in which no
    labeled packet arrives reports NaN latencies, and NaN never equals
    itself: it reads as None, so two such rows compare equal when every
    field matches."""
    values = {name: getattr(result, name) for name in ROW}
    return {name: None if isinstance(v, float) and math.isnan(v) else v
            for name, v in values.items()}
