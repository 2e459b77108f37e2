"""The checkpoint and stream contracts, checked on running simulations.

**Restore fidelity.**  A checkpoint is cut at several cycles of a run,
written with ``save_checkpoint`` (which pickles, so a lambda, a
generator, a lock or a bound method left on component state fails
here) and loaded into a twin.  The twin's object graph must then equal
the original's, walked in the same order: ``Random`` by
``getstate()``, deques and tuples as lists, objects by ``__dict__``
plus ``__slots__``, less the ``SNAPSHOT_WIRING`` names declared along
each class's MRO (live wiring a twin gets from its own constructor).
Exactly three differences are allowed, each named in
:func:`_allowed`.  numpy objects are not entered; the one numpy state
that matters, a bulk pre-draw's state rows, is compared on its own.

**Stream keys.**  Every RNG stream is ``derive_rng(seed, *names)``,
which calls ``repro.core.rng.derive_seed`` through its module global,
so one patch records every stream a build derives.  Within a build the
``(seed, *names)`` keys must be unique (two components on one key
draw one correlated sequence), and the keys must be the same in
another process under another ``PYTHONHASHSEED`` and for a second
build in the same process (no key from ``id()``, ``hash()`` or set
order).  No module or class holds a stream of its own.

**Back to back.**  Building, running and exporting a traced simulation
twice in one process gives the same rows, extras and Chrome bytes: a
simulation numbers its own packets.
"""

import importlib
import itertools
import json
import math
import os
import pkgutil
import subprocess
import sys
from collections import Counter, deque
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro
from repro.core import rng as rng_module
from repro.core.rng import Rng
from repro.core.config import RouterConfig
from repro.engine.component import Component
from repro.faults import FaultPlan, LinkFault, StuckFault, sample_link_faults
from repro.harness import SwitchSimulation, SweepSettings, load_checkpoint
from repro.network.arrivals import HAVE_NUMPY, HostArrivals
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
from repro.trace import TraceCollector, TraceFilter, chrome_trace_json
from repro.workloads import all_reduce

REPO_ROOT = Path(__file__).resolve().parents[1]

ALL_ROUTERS = [
    BaselineRouter,
    DistributedRouter,
    BufferedCrossbarRouter,
    SharedBufferCrossbarRouter,
    HierarchicalCrossbarRouter,
    VoqRouter,
]
SCHEDULERS = ["cycle", "event"]

FAULTS = FaultPlan(corrupt_rate=0.2, credit_loss_rate=0.05)
SWITCH_WINDOW = SweepSettings(warmup=40, measure=80, drain=400)


# ----------------------------------------------------------------------
# The simulations under test
# ----------------------------------------------------------------------


def _switch(router_cls, scheduler="cycle", faults=FAULTS, tracer=None,
            workload=None):
    cfg = RouterConfig(radix=8, num_vcs=2, subswitch_size=4,
                       local_group_size=4, seed=3)
    return SwitchSimulation(
        router_cls(cfg), load=0.0 if workload else 0.5, seed=3,
        scheduler=scheduler, faults=faults, tracer=tracer,
        workload=workload,
    )


def _stuck_switch(scheduler="cycle"):
    plan = FaultPlan(
        corrupt_rate=0.05,
        stuck=(
            StuckFault(cycle=20, where=(1, 0), kind="crosspoint", until=90),
            StuckFault(cycle=30, where=(2,), kind="input", until=70),
        ),
    )
    return _switch(BufferedCrossbarRouter, scheduler, faults=plan,
                   tracer=TraceCollector())


def _faulted_clos(scheduler="cycle"):
    """Radix 16 with corruption, credit loss and two dead links, traced
    at a leaf (the faulted Clos of ``test_order_independence.py``)."""
    plan = FaultPlan(
        corrupt_rate=0.01,
        credit_loss_rate=0.02,
        links=(
            LinkFault(cycle=30, switch=(0, 1, 0), port=9, until=120),
            LinkFault(cycle=50, switch=(1, 0, 2), port=0, until=90),
        ),
    )
    return NetworkSimulation(
        NetworkConfig(radix=16, levels=2, num_vcs=2, seed=11), load=0.3,
        faults=plan, scheduler=scheduler,
        tracer=TraceCollector(capacity=100000), trace_switch=(0, 0, 0),
    )


def _sampled_fault_clos(scheduler="cycle"):
    """Radix 8 with corruption, credit loss and links drawn by
    :func:`sample_link_faults` on the network's own seed."""
    cfg = NetworkConfig(radix=8, levels=2, num_vcs=2, seed=5)
    plan = FaultPlan(
        corrupt_rate=0.05, credit_loss_rate=0.05,
        links=sample_link_faults(FoldedClos(8, 2), seed=cfg.seed, count=2,
                                 cycle=20, until=80),
    )
    return NetworkSimulation(cfg, load=0.4, faults=plan,
                             scheduler=scheduler, tracer=TraceCollector(),
                             trace_switch=(1, 0, 0))


def _clos_workload(scheduler="cycle"):
    return NetworkSimulation(
        NetworkConfig(radix=8, levels=2, num_vcs=2, packet_size=2, seed=7),
        workload=all_reduce(16, size=2), scheduler=scheduler,
        faults=FAULTS,
    )


def _idle_bulk_clos():
    sim = NetworkSimulation(
        NetworkConfig(radix=16, levels=2, num_vcs=2, seed=11), load=1e-3,
        scheduler="event",
    )
    sim.start_run(warmup=500, measure=6000, drain=2000)
    return sim


def _start(sim):
    if sim._workload is not None:
        sim.start_workload_run(max_cycles=20000)
    elif isinstance(sim, SwitchSimulation):
        sim.start_run(SWITCH_WINDOW)
    else:
        sim.start_run(warmup=40, measure=100, drain=400)
    return sim


# ----------------------------------------------------------------------
# Restore fidelity
# ----------------------------------------------------------------------


_LEAVES = (int, float, complex, str, bytes, bool, type(None))
_BUILTIN_METHOD = type(len)
_CALLABLES = (type, type(_start), type(repro))


def _wiring(cls):
    """``SNAPSHOT_WIRING`` unioned along ``cls``'s MRO."""
    names = set()
    for klass in cls.__mro__:
        names.update(getattr(klass, "SNAPSHOT_WIRING", ()))
    return names


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


def _allowed(original, owner, name, a, b):
    """The three named ways a resumed twin may differ from its original.

    ``owner`` is the original's object holding ``name``; ``a`` is the
    original's value, ``b`` the twin's.
    """
    # 1. A component the original scheduler has asleep or parked keeps
    #    a lagging local clock; ``Scheduler.restore`` wakes every live
    #    component at the captured cycle.
    if name == "cycle" and isinstance(owner, Component):
        sched = original._sched
        slot = sched._index.get(id(owner))
        return (slot is not None and not sched._active[slot]
                and a < b == sched.now)
    if isinstance(owner, HostArrivals):
        # 2. The snapshot writes the arrival heap sorted (a sorted list
        #    is a valid heap), so only its order may differ.
        if name == "_heap":
            return sorted(a) == sorted(b)
        # 3. Without state rows the sync cursor is unused; the snapshot
        #    writes the cursor in its place.
        if name == "_sync_cursor":
            return not owner.bulk
    return False


def restore_differences(original, twin):
    """Paths at which ``twin``'s state differs from ``original``'s,
    beyond the differences :func:`_allowed` names."""
    found = []
    seen = set()
    stack = [("sim", None, None, original, twin)]
    while stack:
        path, owner, name, a, b = stack.pop()
        if a is b:
            continue
        if type(a) is not type(b):
            found.append(f"{path}: {type(a).__name__} vs {type(b).__name__}")
            continue
        if isinstance(a, _LEAVES):
            if not _same_leaf(a, b):
                if owner is None or not _allowed(original, owner, name, a, b):
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
        elif isinstance(a, itertools.count):
            if repr(a) != repr(b):
                found.append(f"{path}: {a!r} vs {b!r}")
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
            wiring = _wiring(type(a))
            if set(fa) - wiring != set(fb) - wiring:
                found.append(f"{path}: fields {sorted(set(fa) ^ set(fb))}")
                continue
            for field, value in fa.items():
                if field in wiring:
                    continue
                other = fb[field]
                if (not isinstance(value, _LEAVES)
                        and _allowed(original, a, field, value, other)):
                    continue
                stack.append((f"{path}.{field}", a, field, value, other))
            continue
        for child_path, x, y in reversed(children):
            stack.append((child_path, None, None, x, y))
    return found


FIDELITY_CASES = [
    pytest.param(
        lambda s, cls=cls: _switch(cls, s), s, id=f"{cls.__name__}-{s}"
    )
    for cls in ALL_ROUTERS for s in SCHEDULERS
] + [
    pytest.param(_faulted_clos, s, id=f"faulted-traced-clos-{s}")
    for s in SCHEDULERS
] + [
    pytest.param(_stuck_switch, "cycle", id="stuck-switch"),
    pytest.param(_clos_workload, "event", id="clos-workload"),
]


@pytest.mark.parametrize("build, scheduler", FIDELITY_CASES)
def test_restore_fidelity(tmp_path, build, scheduler):
    sim = _start(build(scheduler))
    path = tmp_path / "cut.ckpt"
    for cut in (30, 75, 160):
        if sim.advance_run(stop_at=cut):
            break
        sim.save_checkpoint(path)
        twin = load_checkpoint(path)
        assert restore_differences(sim, twin) == [], f"cut at {cut}"


@pytest.mark.skipif(not HAVE_NUMPY, reason="the bulk pre-draw needs numpy")
def test_restore_fidelity_idle_bulk_clos(tmp_path):
    sim = _idle_bulk_clos()
    assert sim.arrivals.bulk
    path = tmp_path / "cut.ckpt"
    for cut in (200, 900):
        assert not sim.advance_run(stop_at=cut)
        sim.save_checkpoint(path)
        twin = load_checkpoint(path)
        assert twin.arrivals.bulk
        assert restore_differences(sim, twin) == [], f"cut at {cut}"
        assert (twin.arrivals._rows.rows.tolist()
                == sim.arrivals._rows.rows.tolist())


# ----------------------------------------------------------------------
# Stream keys
# ----------------------------------------------------------------------


@contextmanager
def recorded_keys():
    """Record the ``(seed, *names)`` key of every stream derived while
    the context is open."""
    keys = []
    real = rng_module.derive_seed

    def recording(seed, *names):
        keys.append((seed, *names))
        return real(seed, *names)

    rng_module.derive_seed = recording
    try:
        yield keys
    finally:
        rng_module.derive_seed = real


#: name -> builder; each build is stepped for a while too, so streams
#: derived lazily are recorded along with the constructors'.
STREAM_BUILDS = {
    **{f"switch-{cls.__name__}": (
        lambda cls=cls: _switch(cls, tracer=TraceCollector()))
       for cls in ALL_ROUTERS},
    "switch-stuck": _stuck_switch,
    "switch-workload": lambda: _switch(
        BaselineRouter, "event", workload=all_reduce(8, size=2)),
    "clos": lambda: NetworkSimulation(
        NetworkConfig(radix=8, levels=2, seed=5), load=0.4),
    "clos-faulted-cycle": _sampled_fault_clos,
    "clos-faulted-event": lambda: _sampled_fault_clos("event"),
    "clos-workload": _clos_workload,
}


def stream_keys(name):
    """Every stream key that building ``name`` and running it derives;
    returns the keys and the simulation."""
    with recorded_keys() as keys:
        sim = _start(STREAM_BUILDS[name]())
        sim.advance_run(stop_at=60)
    return keys, sim


def all_stream_keys():
    """``repr`` of every build's keys, build by build (JSON-ready)."""
    return {name: [repr(k) for k in stream_keys(name)[0]]
            for name in sorted(STREAM_BUILDS)}


@pytest.mark.parametrize("name", sorted(STREAM_BUILDS))
def test_stream_keys_unique_within_a_build(name):
    keys, _ = stream_keys(name)
    assert keys
    twice = sorted(k for k, n in Counter(keys).items() if n > 1)
    assert twice == [], f"streams derived more than once: {twice}"


def test_stream_keys_repeat_in_a_second_build():
    held = {}
    for name in sorted(STREAM_BUILDS):
        first, held[name] = stream_keys(name)
        second, _ = stream_keys(name)
        assert first == second, name


def test_stream_keys_do_not_depend_on_the_process():
    code = (
        "import json, tests.test_state_contracts as c\n"
        "print(json.dumps(c.all_stream_keys()))\n"
    )
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT)]
        )
        env["PYTHONHASHSEED"] = hash_seed
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=str(REPO_ROOT), env=env,
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout))
    assert outputs[0] == outputs[1]
    assert outputs[0] == json.loads(json.dumps(all_stream_keys()))


def _repro_modules():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        try:
            yield importlib.import_module(info.name)
        except ImportError as exc:
            if exc.name != "numpy":
                raise


def test_no_module_or_class_holds_a_stream():
    """A stream at module or class level is shared by every simulation
    in the process, so what one run draws shifts the next."""
    shared = []
    for module in _repro_modules():
        for name, value in vars(module).items():
            if isinstance(value, Rng):
                shared.append(f"{module.__name__}.{name}")
            if (isinstance(value, type)
                    and value.__module__ == module.__name__):
                shared.extend(
                    f"{module.__name__}.{name}.{attr}"
                    for attr, held in vars(value).items()
                    if isinstance(held, Rng)
                )
    assert shared == []


# ----------------------------------------------------------------------
# Back to back
# ----------------------------------------------------------------------


def _observe(sim, tracer, result):
    """What a traced run produced: row, extras, Chrome bytes and the
    identity of every flit the tracer recorded."""
    records = [(rec.packet_id, rec.flit_index)
               for rec in tracer.records(completed_only=False)]
    return result, result.extra, chrome_trace_json(tracer), records


def _traced_switch_run():
    tracer = TraceCollector(trace_filter=TraceFilter(every_nth=3))
    sim = SwitchSimulation(
        HierarchicalCrossbarRouter(RouterConfig(radix=16, seed=5)),
        load=0.7, tracer=tracer,
    )
    result = sim.run(SweepSettings(warmup=40, measure=120, drain=400))
    return sim, _observe(sim, tracer, result)


def _traced_clos_run():
    tracer = TraceCollector(capacity=100000)
    sim = NetworkSimulation(
        NetworkConfig(radix=8, levels=2, num_vcs=2, seed=3), load=0.4,
        scheduler="event", tracer=tracer, trace_switch=(0, 0, 0),
    )
    result = sim.run(warmup=40, measure=120, drain=400)
    return sim, _observe(sim, tracer, result)


@pytest.mark.parametrize("run", [_traced_switch_run, _traced_clos_run],
                         ids=["switch", "clos"])
def test_back_to_back_runs_are_identical(run):
    first_sim, first = run()
    second_sim, second = run()
    assert second_sim is not first_sim
    assert first[3] == second[3]
    assert first[2] == second[2]
    assert (first[0], first[1]) == (second[0], second[1])
