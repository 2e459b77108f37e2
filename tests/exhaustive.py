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
through every cycle.

Apply either before the first cycle runs.  Oracle runs are neither
sanitized (the sanitizer audits the very indices this replaces) nor
checkpointed.  The differentials in ``test_switch_hot_path.py`` and
``test_network_hot_path.py``, the parking-equivalence tests and the
active-set speedup floors in ``benchmarks/test_perf_simulator.py`` all
compare against this one module.
"""

from repro.network.netsim import NetworkSimulation


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


#: The clocks a differential test runs: ``"event"`` is the simulation
#: as built, which jumps idle spans, and ``"cycle"`` is the same
#: simulation under :func:`never_jump`.
CLOCKS = ("cycle", "event")


def clocked(sim, clock):
    """``sim`` on ``clock``, one of :data:`CLOCKS`; returns ``sim``."""
    if clock not in CLOCKS:
        raise ValueError(f"unknown clock {clock!r}")
    return never_jump(sim) if clock == "cycle" else sim


def engine_free(extra):
    """``extra`` without the ``stats.engine.*`` counters, which count
    what the schedule skipped and so are the one legitimate difference
    between a run and either oracle."""
    return {k: v for k, v in extra.items()
            if not k.startswith("stats.engine.")}
