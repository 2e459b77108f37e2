"""The checkpoint and stream contracts, checked on running simulations.

**Restore fidelity.**  A checkpoint is cut at several cycles of a run,
written with ``save_checkpoint`` (which pickles the simulation, so a
lambda, a generator or a lock left anywhere on it fails here) and
loaded as a twin.  The twin's object graph must then equal the
original's, walked in the same order: ``Random`` by ``getstate()``,
deques and tuples as lists, objects by ``__dict__`` plus
``__slots__``, bound methods by function and receiver.  No difference
is allowed.  numpy objects (the buffered crossbar's batch arrays) are
not entered.

**Stream keys.**  Every RNG stream is ``derive_rng(seed, *names)``,
which calls ``repro.core.rng.derive_seed`` through its module global,
so one patch records every stream a build derives.  Within a build the
``(seed, *names)`` keys must be unique (two components on one key
draw one correlated sequence), and the keys must be the same in
another process under another ``PYTHONHASHSEED`` and for a second
build in the same process (no key from ``id()``, ``hash()`` or set
order).  No module or class holds a stream of its own.

**Determinism.**  A source scan refuses what can only make a run
differ between processes: importing ``random`` outside
``repro/core/rng.py``, importing ``time``, ``datetime``, ``uuid`` or
``secrets`` anywhere, and calling ``os.urandom``, ``os.getpid`` or the
builtin ``hash``.  What the scan cannot see, a ``hash()`` or set order
reached some other way, shows as rows, extras or Chrome bytes that
differ between two processes with different ``PYTHONHASHSEED``.

**Back to back.**  Building, running and exporting a traced simulation
twice in one process gives the same rows, extras and Chrome bytes: a
simulation numbers its own packets.
"""

import ast
import importlib
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
from repro.faults import FaultPlan, LinkFault, StuckFault, sample_link_faults
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
from repro.trace import TraceCollector, TraceFilter, chrome_trace_json
from repro.workloads import all_reduce
from tests.exhaustive import CLOCKS, clocked

REPO_ROOT = Path(__file__).resolve().parents[1]

ALL_ROUTERS = [
    BaselineRouter,
    DistributedRouter,
    BufferedCrossbarRouter,
    SharedBufferCrossbarRouter,
    HierarchicalCrossbarRouter,
    VoqRouter,
]

FAULTS = FaultPlan(corrupt_rate=0.2, credit_loss_rate=0.05)
SWITCH_WINDOW = SweepSettings(warmup=40, measure=80, drain=400)


# ----------------------------------------------------------------------
# The simulations under test
# ----------------------------------------------------------------------


def _switch(router_cls, clock="event", faults=FAULTS, tracer=None,
            workload=None):
    cfg = RouterConfig(radix=8, num_vcs=2, subswitch_size=4,
                       local_group_size=4, seed=3)
    return clocked(SwitchSimulation(
        router_cls(cfg), load=0.0 if workload else 0.5, seed=3,
        faults=faults, tracer=tracer, workload=workload,
    ), clock)


def _stuck_switch(clock="event"):
    plan = FaultPlan(
        corrupt_rate=0.05,
        stuck=(
            StuckFault(cycle=20, where=(1, 0), kind="crosspoint", until=90),
            StuckFault(cycle=30, where=(2,), kind="input", until=70),
        ),
    )
    return _switch(BufferedCrossbarRouter, clock, faults=plan,
                   tracer=TraceCollector())


def _faulted_clos(clock="event"):
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
    return clocked(NetworkSimulation(
        NetworkConfig(radix=16, levels=2, num_vcs=2, seed=11), load=0.3,
        faults=plan,
        tracer=TraceCollector(capacity=100000), trace_switch=(0, 0, 0),
    ), clock)


def _sampled_fault_clos(clock="event"):
    """Radix 8 with corruption, credit loss and links drawn by
    :func:`sample_link_faults` on the network's own seed."""
    cfg = NetworkConfig(radix=8, levels=2, num_vcs=2, seed=5)
    plan = FaultPlan(
        corrupt_rate=0.05, credit_loss_rate=0.05,
        links=sample_link_faults(FoldedClos(8, 2), seed=cfg.seed, count=2,
                                 cycle=20, until=80),
    )
    return clocked(NetworkSimulation(cfg, load=0.4, faults=plan,
                                     tracer=TraceCollector(),
                                     trace_switch=(1, 0, 0)), clock)


def _clos_workload(clock="event"):
    return clocked(NetworkSimulation(
        NetworkConfig(radix=8, levels=2, num_vcs=2, packet_size=2, seed=7),
        workload=all_reduce(16, size=2), faults=FAULTS,
    ), clock)


def _idle_clos():
    sim = NetworkSimulation(
        NetworkConfig(radix=16, levels=2, num_vcs=2, seed=11), load=1e-3,
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
    """Paths at which ``twin``'s state differs from ``original``'s."""
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


FIDELITY_CASES = [
    pytest.param(
        lambda s, cls=cls: _switch(cls, s), s, id=f"{cls.__name__}-{s}"
    )
    for cls in ALL_ROUTERS for s in CLOCKS
] + [
    pytest.param(_faulted_clos, s, id=f"faulted-traced-clos-{s}")
    for s in CLOCKS
] + [
    pytest.param(_stuck_switch, "cycle", id="stuck-switch"),
    pytest.param(_clos_workload, "event", id="clos-workload"),
]


@pytest.mark.parametrize("build, clock", FIDELITY_CASES)
def test_restore_fidelity(tmp_path, build, clock):
    sim = _start(build(clock))
    path = tmp_path / "cut.ckpt"
    for cut in (30, 75, 160):
        if sim.advance_run(stop_at=cut):
            break
        sim.save_checkpoint(path)
        twin = load_checkpoint(path)
        assert restore_differences(sim, twin) == [], f"cut at {cut}"


def test_restore_fidelity_idle_clos(tmp_path):
    """Cut mid-gap, with most hosts' next arrivals far ahead."""
    sim = _idle_clos()
    path = tmp_path / "cut.ckpt"
    for cut in (200, 900):
        assert not sim.advance_run(stop_at=cut)
        assert sim.arrivals.next_due() > cut
        sim.save_checkpoint(path)
        twin = load_checkpoint(path)
        assert restore_differences(sim, twin) == [], f"cut at {cut}"
        assert twin.arrivals.queued() == sim.arrivals.queued()


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
    "clos-faulted-cycle": lambda: _sampled_fault_clos("cycle"),
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


#: Traced, faulted builds whose row, extras and Chrome bytes must be the
#: same in every process: a radix-8 event-mode Clos and a radix-8
#: buffered switch.
PROCESS_RUNS = ("clos-faulted-event", "switch-BufferedCrossbarRouter")


def process_runs():
    """``repr`` of each :data:`PROCESS_RUNS` result and its Chrome JSON."""
    runs = {}
    for name in PROCESS_RUNS:
        sim = _start(STREAM_BUILDS[name]())
        assert sim.advance_run()
        runs[name] = [repr(sim.finish_run()), chrome_trace_json(sim._tracer)]
    return runs


def test_stream_keys_do_not_depend_on_the_process():
    """Stream keys, and the rows, extras and Chrome bytes of
    :data:`PROCESS_RUNS`, are the same under two ``PYTHONHASHSEED``s."""
    code = (
        "import json, tests.test_state_contracts as c\n"
        "print(json.dumps([c.all_stream_keys(), c.process_runs()]))\n"
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
    assert outputs[0] == json.loads(
        json.dumps([all_stream_keys(), process_runs()])
    )


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
        tracer=tracer, trace_switch=(0, 0, 0),
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


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------


#: (module under ``repro/``, imported module) -> why it is allowed.
SCAN_ALLOWED = {
    ("core/rng.py", "random"): "the one home of every stream",
}
BANNED_MODULES = {"random", "time", "datetime", "uuid", "secrets"}
BANNED_NAMES = {"os.urandom", "os.getpid", "builtins.hash"}


def _refused(name, rel):
    top = name.split(".")[0]
    return ((top in BANNED_MODULES or name in BANNED_NAMES)
            and (rel, top) not in SCAN_ALLOWED)


def _scan(source, rel):
    """``line: name`` for each import or call in ``source`` (module
    ``rel`` under ``repro/``) that the determinism contract refuses."""
    nodes = list(ast.walk(ast.parse(source)))
    os_names = {a.asname or "os" for node in nodes
                if isinstance(node, ast.Import)
                for a in node.names if a.name == "os"}
    found = []
    for node in nodes:
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module] + [f"{node.module}.{a.name}"
                                     for a in node.names]
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "hash":
                names = ["builtins.hash"]
            elif (isinstance(func, ast.Attribute)
                  and isinstance(func.value, ast.Name)
                  and func.value.id in os_names):
                names = [f"os.{func.attr}"]
            else:
                continue
        else:
            continue
        found += [f"{node.lineno}: {name}" for name in names
                  if _refused(name, rel)]
    return found


def test_sources_read_no_clock_entropy_or_salted_hash():
    root = REPO_ROOT / "src" / "repro"
    found = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        found += [f"{rel}:{hit}" for hit in _scan(path.read_text(), rel)]
    assert found == []


def test_source_scan_sees_every_refused_form():
    source = (
        "import random\n"
        "from time import perf_counter\n"
        "import time as t\n"
        "import datetime, uuid, secrets\n"
        "import os as o\n"
        "from os import getpid, path\n"
        "o.urandom(8)\n"
        "o.path.join('a', 'b')\n"
        "hash('name')\n"
    )
    assert sorted(_scan(source, "routers/base.py")) == sorted([
        "1: random", "2: time", "2: time.perf_counter", "3: time",
        "4: datetime", "4: uuid", "4: secrets", "6: os.getpid",
        "7: os.urandom", "9: builtins.hash",
    ])
    assert "1: random" not in _scan(source, "core/rng.py")
