"""Every hook event runs, with its declared payload, under a strict
subscriber.

``EngineHooks.emit_*`` are plain methods, so an emit site passing the
wrong payload raises ``TypeError`` — but only once it runs, and an
event nobody subscribes to never runs its emit site at all.  Each stack
below gets one handler per event whose parameter list is exactly the
``emit_<event>`` signature (minus ``self``), is driven through a short
loaded run with faults, and must fire precisely the events its source
emits.
"""

import inspect
import re

import pytest

from repro.core.config import RouterConfig
from repro.engine import scheduler
from repro.engine.hooks import EngineHooks
from repro.faults import FaultPlan, StuckFault, injector, sample_link_faults
from repro.harness.experiment import SwitchSimulation
from repro.network.netsim import NetworkConfig, NetworkSimulation
from repro.routers.baseline import BaselineRouter
from repro.routers.buffered import BufferedCrossbarRouter
from repro.routers.distributed import DistributedRouter
from repro.routers.hierarchical import HierarchicalCrossbarRouter
from repro.routers.shared_buffer import SharedBufferCrossbarRouter
from repro.routers.voq import VoqRouter
from tests.exhaustive import CLOCKS, clocked

EVENTS = sorted(
    name[len("emit_"):] for name in vars(EngineHooks)
    if name.startswith("emit_")
)


def test_every_bus_has_an_emitter_and_a_subscriber():
    assert EVENTS == sorted(EngineHooks.__slots__)
    for event in EVENTS:
        assert hasattr(EngineHooks, "on_" + event)


def _strict_handler(event, fired):
    emit = inspect.signature(getattr(EngineHooks, "emit_" + event))
    payload = emit.replace(parameters=list(emit.parameters.values())[1:])

    def handler(*args, **kwargs):
        payload.bind(*args, **kwargs)  # TypeError on any other shape
        fired.add(event)

    return handler


def _subscribe(buses):
    fired = set()
    for hooks in buses:
        for event in EVENTS:
            getattr(hooks, "on_" + event)(_strict_handler(event, fired))
    return fired


def _emitted_by(*owners):
    """Events named by an ``emit_*`` call in the modules defining
    ``owners`` (classes, along their MRO, or modules)."""
    events = set()
    for owner in owners:
        for cls in getattr(owner, "__mro__", (owner,)):
            module = inspect.getmodule(cls)
            if module.__name__.startswith("repro."):
                source = inspect.getsource(module)
                events.update(re.findall(r"\.emit_(\w+)\(", source))
    return events


SWITCHES = [
    pytest.param(BaselineRouter, {}, id="baseline"),
    pytest.param(DistributedRouter, {"vc_allocator": "cva"},
                 id="distributed-cva"),
    pytest.param(DistributedRouter, {"vc_allocator": "ova"},
                 id="distributed-ova"),
    pytest.param(BufferedCrossbarRouter, {}, id="buffered"),
    pytest.param(SharedBufferCrossbarRouter, {}, id="shared-buffer"),
    pytest.param(HierarchicalCrossbarRouter, {}, id="hierarchical"),
    pytest.param(VoqRouter, {}, id="voq"),
]


@pytest.mark.parametrize("router_cls,options", SWITCHES)
def test_switch_fires_every_event_its_source_emits(router_cls, options):
    cfg = RouterConfig(radix=8, num_vcs=2, subswitch_size=4,
                       local_group_size=4, **options)
    # Credit loss is inert on organizations without credit taps.
    plan = FaultPlan(
        corrupt_rate=0.05, credit_loss_rate=0.05, credit_resync_timeout=8,
        stuck=(StuckFault(cycle=20, where=(1,), kind="input", until=60),),
    )
    sim = SwitchSimulation(router_cls(cfg), load=0.6, faults=plan, seed=3)
    fired = _subscribe([sim.hooks])
    for _ in range(300):
        sim.step()
    assert fired == _emitted_by(router_cls, scheduler, injector)


@pytest.mark.parametrize("clock", CLOCKS)
def test_clos_fires_every_event_its_source_emits(clock):
    cfg = NetworkConfig(radix=4, levels=2)
    topology = NetworkSimulation(cfg).topology
    plan = FaultPlan(
        corrupt_rate=0.05, credit_loss_rate=0.05, credit_resync_timeout=8,
        links=sample_link_faults(topology, seed=7, count=1, cycle=20,
                                 until=60),
    )
    sim = clocked(NetworkSimulation(cfg, 0.5, faults=plan), clock)
    routers = list(sim.routers.values())
    fired = _subscribe([sim.hooks] + [r.hooks for r in routers])
    for _ in range(300):
        sim.step()
    assert fired == _emitted_by(type(routers[0]), scheduler, injector)
