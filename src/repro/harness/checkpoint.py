"""Checkpoint files: persist a paused simulation and resume it later.

A checkpoint is one pickle holding four keys:

* ``format`` — the integer format version (:data:`CHECKPOINT_FORMAT`);
* ``kind`` — ``"switch"`` (:class:`~repro.harness.SwitchSimulation`)
  or ``"network"``
  (:class:`~repro.network.netsim.NetworkSimulation`);
* ``spec`` — the constructor arguments needed to rebuild an
  *equivalent* simulation (router class and config or network config
  and topology, traffic pattern, fault plan, workload, tracer
  parameters, scheduler mode);
* ``state`` — the simulation's :meth:`snapshot` bundle, including the
  staged run program, so a run paused mid-flight resumes exactly
  where it stopped.

:func:`load_checkpoint` rebuilds the simulation from ``spec`` and then
applies ``state``; the resumed run is byte-identical to one that never
stopped (the differential tests in ``tests/test_checkpoint.py`` pin
this for every router organization, both schedulers, and the Clos
network).  Sanitized simulations refuse to checkpoint or restore —
rerun the simulation with ``sanitize=True`` instead.  A file cut short
(a truncated body) fails to load with a one-line ``ValueError``.
"""

from __future__ import annotations

import os
import pickle
import pickletools
from itertools import islice
from typing import Any, Dict, Optional

#: On-disk format version; bumped whenever the payload layout changes
#: — including when a component grows derived state that restore
#: (attribute-by-attribute) would leave at its constructor value.
#: Format 2: the hierarchical crossbar's occupancy indices; a format-1
#: file restored onto them would hide every buffered flit from the
#: router's hot path.  Format 3: ``MirroredFlitQueue`` and
#: ``BatchArbiterBank``, pickled by format-2 files written under
#: ``batch_hot_path``, lost slots along with the Clos and VOQ twins.
#: Format 4: the run state both stacks share (measurement flags and
#: counters, latency sample) moved from the per-stack ``harness`` dict
#: to the bundle's top level, and a network measure program carries
#: ``min_drain_fraction`` like a switch one.  Older format-4 specs carry
#: a key for the retired step-everything schedule; rebuild ignores it
#: (that schedule is byte-identical, and its all-active scheduler
#: snapshot only lets components park at their next commit).
CHECKPOINT_FORMAT = 4


def save_checkpoint(sim, path) -> None:
    """Write ``sim``'s full state (and rebuild spec) to ``path``.

    The pickle is written to ``<path>.tmp``, synced to disk, and only
    then renamed onto ``path``: a failure or a kill mid-write leaves the
    previous checkpoint at ``path`` intact.
    """
    payload = {
        "format": CHECKPOINT_FORMAT,
        "kind": _kind(sim),
        "spec": _spec(sim),
        "state": sim.snapshot(),
    }
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            pickle.dump(payload, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _peek_format(fh) -> Optional[int]:
    """The payload's ``format``, read off the opcode stream without
    constructing anything: a file whose pickled classes have since
    changed shape fails *inside* ``pickle.load``, before the loaded
    payload's version could be looked at.  ``format`` is the first key
    written, so it sits in the first few opcodes (None if absent)."""
    seen_key = False
    for op, arg, _pos in islice(pickletools.genops(fh), 12):
        if seen_key and op.name != "MEMOIZE":
            return arg if isinstance(arg, int) else None
        seen_key = seen_key or arg == "format"
    return None


def load_checkpoint(path):
    """Rebuild the simulation saved at ``path`` and restore its state.

    Returns a :class:`~repro.harness.SwitchSimulation` or
    :class:`~repro.network.netsim.NetworkSimulation` positioned at the
    saved cycle; continue with :meth:`advance_run`/:meth:`finish_run`
    (or plain stepping when no run program was active).
    """
    with open(path, "rb") as fh:
        fmt = _peek_format(fh)
        if fmt != CHECKPOINT_FORMAT:
            raise ValueError(
                f"unsupported checkpoint format {fmt!r} "
                f"(this build reads format {CHECKPOINT_FORMAT})"
            )
        fh.seek(0)
        try:
            payload = pickle.load(fh)
        except (EOFError, pickle.UnpicklingError) as exc:
            raise ValueError(
                f"checkpoint {path} is truncated or corrupt: {exc}"
            ) from exc
    kind = payload["kind"]
    if kind == "switch":
        sim = _build_switch(payload["spec"])
    elif kind == "network":
        sim = _build_network(payload["spec"])
    else:
        raise ValueError(f"unknown checkpoint kind {kind!r}")
    sim.restore(payload["state"])
    return sim


# ----------------------------------------------------------------------
# Spec capture / rebuild
# ----------------------------------------------------------------------


def _kind(sim) -> str:
    from ..network.netsim import NetworkSimulation
    from .experiment import SwitchSimulation

    if isinstance(sim, NetworkSimulation):
        return "network"
    if isinstance(sim, SwitchSimulation):
        return "switch"
    raise TypeError(f"cannot checkpoint a {type(sim).__name__}")


def _spec(sim) -> Dict[str, Any]:
    if _kind(sim) == "network":
        return _network_spec(sim)
    return _switch_spec(sim)


def _scheduler_mode(sched) -> str:
    from ..engine.scheduler import EventScheduler

    return "event" if isinstance(sched, EventScheduler) else "cycle"


def _tracer_spec(tracer):
    if tracer is None:
        return None
    return {"capacity": tracer.capacity, "trace_filter": tracer.filter}


def _build_tracer(spec):
    if spec is None:
        return None
    from ..trace import TraceCollector

    return TraceCollector(
        capacity=spec["capacity"], trace_filter=spec["trace_filter"]
    )


def _switch_spec(sim) -> Dict[str, Any]:
    spec = dict(sim._build_spec)
    spec.update(
        router_cls=type(sim.router),
        router_config=sim.router.config,
        scheduler=_scheduler_mode(sim._sched),
        faults=None if sim._faults is None else sim._faults.plan,
        workload=sim._workload,
        tracer=_tracer_spec(sim._tracer),
    )
    return spec


def _build_switch(spec: Dict[str, Any]):
    from .experiment import SwitchSimulation

    router = spec["router_cls"](spec["router_config"])
    return SwitchSimulation(
        router,
        load=spec["load"],
        packet_size=spec["packet_size"],
        pattern=spec["pattern"],
        injection=spec["injection"],
        avg_burst=spec["avg_burst"],
        seed=spec["seed"],
        tracer=_build_tracer(spec["tracer"]),
        faults=spec["faults"],
        scheduler=spec["scheduler"],
        workload=spec["workload"],
    )


def _network_spec(sim) -> Dict[str, Any]:
    return {
        "config": sim.config,
        "load": sim.load,
        "topology": sim.topology,
        "host_pattern": sim._host_pattern,
        "scheduler": _scheduler_mode(sim._sched),
        "faults": None if sim._faults is None else sim._faults.plan,
        "workload": sim._workload,
        "tracer": _tracer_spec(sim._tracer),
        "trace_switch": sim._trace_switch,
    }


def _build_network(spec: Dict[str, Any]):
    from ..network.netsim import NetworkSimulation

    return NetworkSimulation(
        spec["config"],
        spec["load"],
        topology=spec["topology"],
        host_pattern=spec["host_pattern"],
        faults=spec["faults"],
        scheduler=spec["scheduler"],
        workload=spec["workload"],
        tracer=_build_tracer(spec["tracer"]),
        trace_switch=spec["trace_switch"],
    )
