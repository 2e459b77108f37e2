"""Shared two-phase simulation kernel.

Both simulation stacks — the standalone switch organizations
(:mod:`repro.routers`) and the multi-router Clos network
(:mod:`repro.network`) — run on this kernel instead of hand-rolled
cycle loops:

``Component``
    The unit of simulation.  Each cycle splits into an explicit
    ``compute`` phase (read committed state, stage intents) and a
    ``commit`` phase (apply staged intents, advance).
``Scheduler``
    Drives a set of components with *active-set scheduling*: after each
    commit, :meth:`Component.next_event` keeps a component awake, puts
    it to sleep until a later cycle, or parks it until an external
    event (flit or credit arrival) wakes it.
``EventScheduler``
    The event-driven drive mode: behind the same ``run_until(cycle)``
    interface, fast-forwards over cycle spans in which every component
    is parked and no wake source (arrival predictor, in-flight
    delivery, fault schedule) has work due.  Byte-identical to the
    cycle stepper by construction.
``EngineHooks``
    A per-component event bus (cycle start/end, flit movement, switch
    grants, credit returns) that instrumentation — sanitizers, metrics,
    tracing — attaches through instead of wrapping or subclassing the
    simulated objects.
"""

from ..core.errors import UnregisteredComponentError
from .component import Component
from .hooks import EngineHooks
from .scheduler import EventScheduler, Scheduler, make_scheduler
from .shard import ShardPool, ShardWorkerError, partition

__all__ = [
    "Component",
    "EngineHooks",
    "EventScheduler",
    "Scheduler",
    "ShardPool",
    "ShardWorkerError",
    "UnregisteredComponentError",
    "make_scheduler",
    "partition",
]
