"""One generative differential: draw a run, build it, observe it, and
check that an oracle lane leaves every observation byte-identical.

Every shortcut that makes the simulator fast claims to leave a run's
rows, extras and trace bytes as they would be without it.  Each claim
is checked here the same way, against a *lane*: a schedule or a
perturbation that must change nothing.

* ``never_jump`` steps every cycle instead of fast-forwarding
  (``tests/exhaustive.py``);
* ``exhaustive`` steps every component every cycle and probes every
  input, so no sleep, park or occupancy index is trusted;
* ``shuffle_compute`` runs each cycle's computes in a seeded order and
  ``over_poll`` asks every probe four times (``tests/perturb.py``);
* ``checkpoint`` cuts the run at a drawn cycle, saves and loads it
  through a real file, walks the loaded twin against the original
  (:func:`restore_differences`) and finishes the twin.

A :class:`Run` names one simulation on one of :data:`STACKS` (the six
switch organizations and the Clos); :func:`runs` draws them for
Hypothesis, :func:`build` makes one and :func:`observe` reads it.  The
observation is the NaN-safe row, the extras (without ``stats.engine.*``
where the lane changes what the schedule skips), the fault-event log,
the Chrome-trace bytes and lifecycle records of a traced run, every
arbiter pointer of the switch or of every Clos router, and, where the lane keeps the hook-event
order, the :class:`~tests.perturb.EventRecord` digest.
"""

import functools
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from hypothesis import strategies as st

from repro.core.arbiter import RoundRobinArbiter
from repro.core.config import RouterConfig
from repro.core.flit import Flit
from repro.core.rng import Rng
from repro.faults import FaultPlan, StuckFault, sample_link_faults
from repro.harness import SwitchSimulation, SweepSettings, load_checkpoint
from repro.network.netsim import NetworkConfig, NetworkSimulation
from repro.network.topology import FoldedClos
from repro.routers import (
    BaselineRouter,
    BufferedCrossbarRouter,
    DistributedRouter,
    HierarchicalCrossbarRouter,
    SharedBufferCrossbarRouter,
    VoqRouter,
)
from repro.trace import TraceCollector, chrome_trace_json
from repro.workloads import all_reduce, all_to_all

from tests.exhaustive import engine_free, exhaustive, never_jump, row
from tests.perturb import EventRecord, over_poll, shuffle_compute

ROUTERS = {
    "baseline": BaselineRouter,
    "distributed": DistributedRouter,
    "buffered": BufferedCrossbarRouter,
    "shared-buffer": SharedBufferCrossbarRouter,
    "hierarchical": HierarchicalCrossbarRouter,
    "voq": VoqRouter,
}
STACKS = tuple(ROUTERS) + ("clos",)

#: Organizations whose crosspoint or subswitch buffers a stuck fault
#: can name, by ``(input, column)``.
_CROSSPOINTS = {"buffered", "shared-buffer", "hierarchical"}


@dataclass(frozen=True)
class Run:
    """One simulation: its stack, its configuration, what it carries
    and how long it runs.  ``None`` fields take the stack's default."""

    stack: str
    radix: int = 8
    levels: int = 2
    num_vcs: Optional[int] = 2
    depth: Optional[int] = None
    packet_size: int = 2
    flit_cycles: Optional[int] = None
    credit_latency: Optional[int] = None
    load: float = 0.3
    injection: str = "bernoulli"
    seed: int = 7
    faults: Optional[FaultPlan] = None
    #: A zero-argument callable returning a fresh workload (a workload
    #: is consumed by its run, so each build makes its own).
    workload: Optional[Callable] = None
    traced: bool = False
    window: Tuple[int, int, int] = (40, 80, 400)
    max_cycles: int = 50_000
    #: The cycle the checkpoint lane cuts at.
    cut: int = 60


def _given(**fields):
    return {name: value for name, value in fields.items()
            if value is not None}


def build(run: Run):
    """A fresh, unstarted simulation of ``run``."""
    workload = run.workload() if run.workload is not None else None
    if run.stack == "clos":
        config = NetworkConfig(**_given(
            radix=run.radix, levels=run.levels, num_vcs=run.num_vcs,
            buffer_depth=run.depth, packet_size=run.packet_size,
            flit_cycles=run.flit_cycles, credit_latency=run.credit_latency,
            seed=run.seed))
        tracer = TraceCollector(capacity=100000) if run.traced else None
        return NetworkSimulation(config, run.load, faults=run.faults,
                                 workload=workload, tracer=tracer)
    config = RouterConfig(**_given(
        radix=run.radix, num_vcs=run.num_vcs, input_buffer_depth=run.depth,
        subswitch_size=run.radix // 2, local_group_size=run.radix // 2,
        credit_latency=run.credit_latency, seed=run.seed))
    return SwitchSimulation(
        ROUTERS[run.stack](config), load=run.load,
        packet_size=run.packet_size, injection=run.injection,
        faults=run.faults, workload=workload,
        tracer=TraceCollector() if run.traced else None)


def start(sim, run: Run):
    if run.workload is not None:
        sim.start_workload_run(max_cycles=run.max_cycles)
    elif run.stack == "clos":
        sim.start_run(*run.window)
    else:
        sim.start_run(SweepSettings(*run.window))
    return sim


def started(run: Run):
    """A fresh simulation of ``run``, its program begun."""
    return start(build(run), run)


def finish(sim):
    assert sim.advance_run()
    return sim.finish_run()


def audit_counts(sim):
    """On a switch, check every cycle that ``Router._in_flits`` is what
    the input banks hold: the count every input stage trusts (unless
    the exhaustive oracle has replaced it)."""
    router = getattr(sim, "router", None)
    if router is None or not isinstance(router._in_flits, list):
        return

    def audit(cycle):
        assert router._in_flits == [len(bank) for bank in router.inputs], cycle
    sim.hooks.on_cycle_end(audit)


def arbiter_pointers(router):
    """Pointer of every round-robin arbiter reachable from ``router``
    (or a dict of routers, by key), however it nests them.  Attributes
    are walked by name: a loaded checkpoint need not keep their
    insertion order."""
    found, seen = [], set()

    def walk(node):
        if id(node) in seen or isinstance(
            node, (int, float, str, Flit, set, frozenset, deque, type(None))
        ):
            return
        seen.add(id(node))
        if isinstance(node, RoundRobinArbiter):
            found.append(node.pointer)
        elif isinstance(node, dict):
            for key in sorted(node, key=repr):
                walk(node[key])
        elif isinstance(node, (list, tuple)):
            for child in node:
                walk(child)
        else:
            names = list(getattr(node, "__dict__", ()))
            for klass in type(node).__mro__:
                names.extend(getattr(klass, "__slots__", ()))
            for name in sorted(set(names)):
                if name not in ("hooks", "fault_injector", "config"):
                    walk(getattr(node, name, None))

    walk(router)
    assert found
    return found


def _nan_free(extra):
    return {k: None if isinstance(v, float) and math.isnan(v) else v
            for k, v in extra.items()}


def observe(sim, result, record=None):
    """What a finished run of ``sim`` produced."""
    seen = {"row": row(result), "extra": _nan_free(result.extra)}
    tracer = sim._tracer
    if tracer is not None:
        seen["faults"] = list(tracer.fault_events)
        seen["chrome"] = chrome_trace_json(tracer)
        seen["records"] = repr(tracer.records(completed_only=False))
    seen["pointers"] = arbiter_pointers(
        sim.router if isinstance(sim, SwitchSimulation) else sim.routers)
    if record is not None:
        seen["events"] = record.hexdigest()
    return seen


def observed(run: Run, perturb=None, events=False):
    """Build ``run``, apply ``perturb`` (a callable on the built
    simulation) if given, run it (digesting every hook event when
    ``events``), and return the simulation and what it produced."""
    sim = build(run)
    if perturb is not None:
        perturb(sim)
    audit_counts(sim)
    record = EventRecord(sim) if events else None
    return sim, observe(sim, finish(start(sim, run)), record)


@functools.lru_cache(maxsize=16)
def plain(run: Run, events=False):
    """:func:`observed` unperturbed, run once per process."""
    return observed(run, events=events)


@dataclass(frozen=True)
class Lane:
    """An oracle: ``perturb(sim, seed)`` applied to a built simulation;
    whether the ``stats.engine.*`` extras must match too (they count
    what the schedule skipped, which a schedule lane changes); and
    whether the lane keeps the hook-event stream, order included."""

    perturb: Callable
    engine: bool = True
    events: bool = False


LANES = {
    "never_jump": Lane(lambda sim, seed: never_jump(sim), engine=False),
    "exhaustive": Lane(lambda sim, seed: exhaustive(sim), engine=False),
    "shuffle_compute": Lane(shuffle_compute, events=True),
    "over_poll": Lane(lambda sim, seed: over_poll(sim), events=True),
}


def kept(lane: str, seen):
    """``seen`` as ``lane`` must keep it: without ``stats.engine.*``
    on a schedule lane."""
    if lane in LANES and not LANES[lane].engine:
        return {**seen, "extra": engine_free(seen["extra"])}
    return seen


def compare(lane: str, run: Run, seed: int = 1, path=None):
    """Assert that ``run`` produces the same plainly and under ``lane``
    (a :data:`LANES` name, or ``"checkpoint"``, which writes to
    ``path``).  Returns the plain simulation, the lane's, and the plain
    observation."""
    if lane == "checkpoint":
        sim, expect = plain(run)
        other, got = resumed(run, path)
    else:
        oracle = LANES[lane]
        sim, expect = plain(run, oracle.events)
        other, got = observed(run, lambda s: oracle.perturb(s, seed),
                              oracle.events)
        expect, got = kept(lane, expect), kept(lane, got)
    assert got == expect
    return sim, other, expect


def resumed(run: Run, path):
    """Cut ``run`` at ``run.cut``, save it to ``path`` and load it back;
    the loaded twin must equal the original field for field.  Returns
    the twin, finished, and what it produced."""
    sim = started(run)
    done = sim.advance_run(stop_at=run.cut)
    sim.save_checkpoint(path)
    twin = load_checkpoint(path)
    assert restore_differences(sim, twin) == []
    if not done:
        assert twin.advance_run()
    return twin, observe(twin, twin.finish_run())


# ----------------------------------------------------------------------
# Restore fidelity
# ----------------------------------------------------------------------

_LEAVES = (int, float, complex, str, bytes, bool, type(None))
_BUILTIN_METHOD = type(len)
_CALLABLES = (type, type(build), type(math))


def _fields(obj):
    """``obj``'s ``__dict__`` plus its set ``__slots__``, in order."""
    fields = dict(getattr(obj, "__dict__", {}))
    for klass in type(obj).__mro__:
        for name in getattr(klass, "__slots__", ()):
            if name not in fields and hasattr(obj, name):
                fields[name] = getattr(obj, name)
    return fields


def _is_numpy(value):
    return type(value).__module__.split(".")[0] == "numpy"


def _same_leaf(a, b):
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return a == b


def restore_differences(original, twin):
    """Paths at which ``twin``'s state differs from ``original``'s: the
    object graphs are walked in the same order, ``Random`` by
    ``getstate()``, deques and tuples as lists, objects by ``__dict__``
    plus ``__slots__``, bound methods by function and receiver.  numpy
    objects are not entered."""
    found = []
    seen = set()
    stack = [("sim", original, twin)]
    while stack:
        path, a, b = stack.pop()
        if a is b:
            continue
        if type(a) is not type(b):
            found.append(f"{path}: {type(a).__name__} vs {type(b).__name__}")
            continue
        if isinstance(a, _LEAVES):
            if not _same_leaf(a, b):
                found.append(f"{path}: {a!r} vs {b!r}")
            continue
        pair = (id(a), id(b))
        if pair in seen or _is_numpy(a):
            continue
        seen.add(pair)
        children = []
        if isinstance(a, Rng):
            if a.getstate() != b.getstate():
                found.append(f"{path}: Random state")
        elif isinstance(a, (list, tuple, deque)):
            if len(a) != len(b):
                found.append(f"{path}: length {len(a)} vs {len(b)}")
            else:
                children = [(f"{path}[{i}]", x, y)
                            for i, (x, y) in enumerate(zip(a, b))]
        elif isinstance(a, dict):
            if len(a) != len(b):
                found.append(f"{path}: {len(a)} vs {len(b)} entries")
            else:
                for i, ((ka, va), (kb, vb)) in enumerate(
                    zip(a.items(), b.items())
                ):
                    children.append((f"{path}.key[{i}]", ka, kb))
                    children.append((f"{path}[{ka!r}]", va, vb))
        elif isinstance(a, (set, frozenset)):
            if a != b:
                found.append(f"{path}: set {sorted(map(repr, a ^ b))}")
        elif hasattr(a, "__func__") or isinstance(a, _BUILTIN_METHOD):
            func = getattr(a, "__func__", a.__name__)
            if func != getattr(b, "__func__", b.__name__):
                found.append(f"{path}: {a!r} vs {b!r}")
            else:
                children = [(f"{path}.__self__", a.__self__, b.__self__)]
        elif isinstance(a, _CALLABLES):
            found.append(f"{path}: {a!r} vs {b!r}")
        else:
            if not hasattr(a, "__dict__") and not hasattr(a, "__slots__"):
                if a != b:  # a builtin or extension value
                    found.append(f"{path}: {a!r} vs {b!r}")
                continue
            fa, fb = _fields(a), _fields(b)
            if set(fa) != set(fb):
                found.append(f"{path}: fields {sorted(set(fa) ^ set(fb))}")
                continue
            children = [(f"{path}.{field}", value, fb[field])
                        for field, value in fa.items()]
        for child in reversed(children):
            stack.append(child)
    return found


# ----------------------------------------------------------------------
# The draw
# ----------------------------------------------------------------------


def _until(draw, cycle):
    """No repair, or one within the run."""
    return draw(st.none() | st.integers(cycle + 1, cycle + 150))


@st.composite
def _switch_faults(draw, stack, radix, num_vcs):
    stuck = []
    for _ in range(draw(st.integers(0, 2))):
        cycle = draw(st.integers(0, 150))
        port = draw(st.integers(0, radix - 1))
        if stack in _CROSSPOINTS and draw(st.booleans()):
            # A hierarchical crossbar's subswitch columns: radix / p.
            cols = 2 if stack == "hierarchical" else radix
            where, kind = (port, draw(st.integers(0, cols - 1))), "crosspoint"
        else:
            where, kind = (port,), "input"
            if draw(st.booleans()):
                where += (draw(st.integers(0, num_vcs - 1)),)
        stuck.append(StuckFault(cycle=cycle, where=where, kind=kind,
                                until=_until(draw, cycle)))
    return tuple(stuck)


@st.composite
def _clos_links(draw, radix, seed):
    count = draw(st.integers(0, 2))
    if not count:
        return ()
    cycle = draw(st.integers(0, 150))
    return sample_link_faults(FoldedClos(radix, 2), seed=seed,
                              count=count, cycle=cycle,
                              until=_until(draw, cycle))


@st.composite
def runs(draw, stack):
    """A small run on ``stack``: radix 4 to 16, a few hundred cycles,
    maybe a fault plan of the kinds the stack applies, a workload, a
    tracer."""
    clos = stack == "clos"
    radix = draw(st.sampled_from([4, 8] if clos else [4, 8, 16]))
    num_vcs = draw(st.sampled_from([1, 2, 4]))
    seed = draw(st.integers(0, 2**16))
    corrupt = draw(st.sampled_from([0.0, 0.0, 0.02]))
    credit_loss = draw(st.sampled_from([0.0, 0.02, 0.1]))
    if clos:
        scheduled = dict(links=draw(_clos_links(radix, seed)))
    else:
        scheduled = dict(stuck=draw(_switch_faults(stack, radix, num_vcs)))
    faults = FaultPlan(corrupt_rate=corrupt, credit_loss_rate=credit_loss,
                       **scheduled)
    hosts = FoldedClos(radix, 2).num_hosts if clos else radix
    workload = draw(st.sampled_from([
        None, None, None,
        functools.partial(all_reduce, min(hosts, 8), size=2),
        functools.partial(all_to_all, min(hosts, 8), size=1),
    ]))
    window = (draw(st.integers(10, 60)), draw(st.integers(20, 120)), 400)
    return Run(
        stack=stack, radix=radix, num_vcs=num_vcs, seed=seed,
        depth=draw(st.sampled_from([1, 2, 4, 16] if not clos else [2, 4, 8])),
        packet_size=draw(st.integers(1, 3)),
        flit_cycles=draw(st.sampled_from([1, 4])) if clos else None,
        credit_latency=draw(st.sampled_from([1, 3] if clos else [1, 2, 12])),
        load=draw(st.sampled_from([0.02, 0.1, 0.3, 0.6, 0.9])),
        injection="bernoulli" if clos else draw(
            st.sampled_from(["bernoulli", "onoff"])),
        faults=faults if faults.enabled else None,
        workload=workload, traced=draw(st.booleans()), window=window,
        max_cycles=2000, cut=draw(st.integers(1, sum(window))),
    )
