"""What the end-to-end benchmark reaches into ``src/`` for still resolves.

``benchmarks/e2e/`` is changed only together with the benchmark itself,
and it names parts of ``src/`` directly: its tracer wraps methods it
looks up with ``vars(cls)[attr]`` (a method hoisted out of the class
body it names is a ``KeyError``), and its workload builders pass
keywords such as ``NetworkSimulation(scheduler="event")``.  A change to
``src/`` that breaks one of those fails here, in tier-1, rather than
first in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.engine.scheduler import EventScheduler, Scheduler
from repro.network.netsim import NetworkConfig, NetworkSimulation

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


def _load(name):
    """Import ``benchmarks/e2e/<name>.py`` under a private module name
    (``trace`` would otherwise collide with the standard library's)."""
    spec = importlib.util.spec_from_file_location(
        f"_e2e_{name}", E2E / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def e2e():
    """The benchmark's tracer and workload modules; ``clock`` (which the
    tracer imports by its bare name) is found on the benchmark's own
    directory."""
    sys.path.insert(0, str(E2E))
    try:
        yield _load("trace"), _load("workloads")
    finally:
        sys.path.remove(str(E2E))
        for name in ("_e2e_trace", "_e2e_workloads"):
            sys.modules.pop(name, None)


def _target(module, owner, attr):
    target = importlib.import_module(module)
    if owner is not None:
        target = getattr(target, owner)
    return target, attr


def test_tracer_installs_on_every_target_and_builds_every_workload(e2e):
    trace, workloads = e2e
    targets = [
        _target(module, owner, attr)
        for module, owner, attr, *_ in trace.SPAN_TARGETS + trace.LEAF_TARGETS
    ]
    originals = [vars(owner)[attr] for owner, attr in targets]
    tracer = trace.Tracer()
    tracer.install()
    try:
        for spec in workloads.SPECS.values():
            sim = spec.build(1, 0.05, workloads.no_span)
            twin = spec.twin(1) if spec.twin is not None else None
            for built in (sim, twin):
                close = getattr(built, "close", None)
                if close is not None:
                    close()
    finally:
        tracer.remove()
    assert [vars(owner)[attr] for owner, attr in targets] == originals


def test_event_scheduler_is_the_scheduler():
    assert EventScheduler is Scheduler


def test_network_scheduler_keyword_accepts_only_event():
    config = NetworkConfig(radix=4, levels=2)
    assert NetworkSimulation(config, scheduler="event")._sched.now == 0
    with pytest.raises(ValueError, match="unknown scheduler 'cycle'"):
        NetworkSimulation(config, scheduler="cycle")
