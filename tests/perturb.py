"""The order-independence oracle: shuffle the phases, over-poll the probes.

The two-phase split (``repro.engine.component``) claims that a cycle's
outcome does not depend on the order in which the scheduler evaluates
components; the probes claim that asking them more often changes
nothing.  The probes are the parking probe ``next_event``, the
scheduler's wake sources, and
``Workload.eligible``/``next_ready``/``ready_ranks``.  This module
perturbs an already constructed simulation from outside, with no hook
in ``src/``, so a test can compare its rows, extras, trace bytes and
hook-event stream against an unperturbed twin:

* :func:`shuffle_compute` defers every ``compute`` of a cycle and runs
  the deferred calls in a seeded order at the cycle's first ``commit``
  (every compute precedes every commit, so nothing else moves);
* :func:`shuffle_commit` permutes the scheduler's awake slots from a
  ``cycle_start`` subscriber, so both phases run in a seeded order —
  drawn over every registered slot, so which components happen to be
  awake does not change the orders it samples;
* :func:`over_poll` makes every probe run three extra times per call;
* :class:`EventRecord` digests every event on the simulation's bus
  and on each router's bus, in emission order.

Apply them before the first cycle runs, like ``tests/exhaustive.py``.
The compute shuffle and the over-poll are lanes of
``tests/differential.py`` (drawn over every stack by
``test_differential.py``, pinned in ``test_order_independence.py``);
the commit shuffle is applied directly by the strict commit-order
xfails of ``test_order_independence.py``.
"""

import hashlib

from repro.core.flit import Flit
from repro.core.rng import derive_rng
from repro.engine.hooks import EngineHooks

#: Extra calls :func:`over_poll` makes before each real probe call.
EXTRA_POLLS = 3

_WORKLOAD_PROBES = ("eligible", "next_ready", "ready_ranks")


def _routers(sim):
    routers = getattr(sim, "routers", None)
    return list(routers.values()) if routers is not None else [sim.router]


def shuffle_compute(sim, seed):
    """Run each cycle's ``compute`` calls in an order drawn from
    ``seed``; returns ``sim``."""
    rng = derive_rng(seed, "perturb", "compute")
    deferred = []

    def flush():
        rng.shuffle(deferred)
        for compute, cycle in deferred:
            compute(cycle)
        deferred.clear()

    for component in sim._sched.components:
        compute, commit = component.compute, component.commit

        def defer(cycle, compute=compute):
            deferred.append((compute, cycle))

        def commit_after_flush(cycle, commit=commit):
            if deferred:
                flush()
            commit(cycle)

        component.compute = defer
        component.commit = commit_after_flush
    return sim


def shuffle_commit(sim, seed):
    """Run each cycle's components (both phases) in an order drawn from
    ``seed``; returns ``sim``."""
    rng = derive_rng(seed, "perturb", "commit")
    sched = sim._sched

    def permute(cycle):
        slots = list(range(len(sched.components)))
        rng.shuffle(slots)
        awake = sched._active
        sched._active_slots = [slot for slot in slots if awake[slot]]

    sched.hooks.on_cycle_start(permute)
    return sim


def _polled(probe):
    def over(*args):
        for _ in range(EXTRA_POLLS):
            probe(*args)
        return probe(*args)
    return over


def over_poll(sim):
    """Call every component's ``next_event``, every wake source and
    the workload's probes ``EXTRA_POLLS`` extra times per call; returns
    ``sim``."""
    sched = sim._sched
    for component in sched.components:
        component.next_event = _polled(component.next_event)
    sched._wake_sources[:] = [_polled(s) for s in sched._wake_sources]
    workload = getattr(sim, "_workload", None)
    if workload is not None:
        for name in _WORKLOAD_PROBES:
            setattr(workload, name, _polled(getattr(workload, name)))
    return sim


def _plain(arg):
    if isinstance(arg, Flit):
        return (arg.packet_id, arg.flit_index, arg.src, arg.dest, arg.vc,
                arg.out_vc, arg.hops)
    return arg


class EventRecord:
    """Digest of every hook event on ``sim``'s bus and on each router's
    bus, interleaved in emission order; a flit is recorded by identity
    and position at the moment the event fires.

    Under a compute shuffle the whole stream must hold, since
    ``compute`` emits nothing and commit order is fixed.  A commit
    shuffle reorders it by construction: same-cycle deliveries carry
    sequence numbers drawn in commit order.
    """

    def __init__(self, sim):
        self._digest = hashlib.sha256()
        buses = [("sim", sim.hooks)]
        buses += [(i, r.hooks) for i, r in enumerate(_routers(sim))
                  if r.hooks is not sim.hooks]
        for label, hooks in buses:
            for kind in EngineHooks.__slots__:
                getattr(hooks, kind).append(self._recorder(label, kind))

    def _recorder(self, label, kind):
        update = self._digest.update

        def record(*args):
            event = (label, kind) + tuple(_plain(a) for a in args)
            update(repr(event).encode())
        return record

    def hexdigest(self):
        return self._digest.hexdigest()
