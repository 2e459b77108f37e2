"""The exhaustive reference schedule: the oracle for every skip rule.

The engine has one schedule.  It parks a component whose ``busy()``
goes False, the switch stack skips an input whose ``Router._in_flits``
count is zero (and the harness a port whose count says the bank is
full), and ``NetworkRouter._allocate`` visits only the inputs in
``_occupied``.  Each skip claims to be invisible: the schedule that
steps every component every cycle and probes every input must produce
the same rows, extras, trace bytes and arbiter pointers.

:func:`exhaustive` builds that reference from outside, on an already
constructed simulation, with no hook in ``src/``:

* every scheduled component's ``busy`` is pinned to True, so nothing
  parks and the event scheduler never fast-forwards;
* a switch's ``Router._in_flits`` becomes :class:`AlwaysActive`;
* every Clos router's ``_occupied`` becomes :class:`AllPorts`.

Apply it before the first cycle runs.  Oracle runs are neither
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


def _always_busy():
    return True


def exhaustive(sim):
    """Put the built simulation ``sim`` (a ``SwitchSimulation`` or a
    serial ``NetworkSimulation``) on the step-everything schedule;
    returns ``sim``."""
    for component in sim._sched.components:
        component.busy = _always_busy
    if isinstance(sim, NetworkSimulation):
        for router in sim.routers.values():
            router._occupied = AllPorts(len(router.inputs))
    else:
        sim.router._in_flits = AlwaysActive()
    return sim
