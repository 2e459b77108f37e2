"""Tracing from outside: timing wrappers on the layers' public calls.

Nothing in ``src/`` knows it is being traced.  :meth:`Tracer.install`
replaces public entry points of each layer with wrappers *before* the
simulation is constructed and :meth:`Tracer.remove` puts the originals
back.  Two kinds of wrapper:

* **spans** at coarse boundaries (``rep``, ``build``, ``run``, each
  ``run_until``, ``finish``, ``persist``, shard ``spawn``/``close``,
  ``topology``, ``workload``): one record ``(name, start, end, parent,
  rep_id)`` each;
* **leaves** on hot calls (a router's ``compute``/``commit``, an
  arbiter's ``arbitrate``, ...): far too many for a record apiece, so
  they are aggregated per enclosing span as ``[calls, busy_s,
  child_s, extra]`` -- ``child_s`` is the part of ``busy_s`` spent in
  other traced calls made from inside, ``extra`` a per-leaf tally
  (grants won, rows arbitrated, packets generated).

Self time is duration minus child coverage, for spans
(:func:`self_times`) and leaves (``busy_s - child_s``) alike.
Everything stays in memory until the rep is over.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import clock

#: (module, class or None for a module function, attribute, span name).
SPAN_TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.harness.experiment", "SwitchSimulation", "__init__", "build"),
    ("repro.harness.experiment", "SwitchSimulation", "run", "run"),
    ("repro.harness.experiment", "SwitchSimulation", "run_workload", "run"),
    ("repro.harness.experiment", "SwitchSimulation", "finish_run", "finish"),
    ("repro.network.netsim", "NetworkSimulation", "__init__", "build"),
    ("repro.network.netsim", "NetworkSimulation", "run", "run"),
    ("repro.network.netsim", "NetworkSimulation", "run_workload", "run"),
    ("repro.network.netsim", "NetworkSimulation", "finish_run", "finish"),
    ("repro.network.sharded", "ShardedNetworkSimulation", "__init__", "build"),
    ("repro.network.sharded", "ShardedNetworkSimulation", "finish_run",
     "finish"),
    ("repro.engine.scheduler", "Scheduler", "run_until", "run_until"),
    ("repro.engine.scheduler", "EventScheduler", "run_until", "run_until"),
    ("repro.engine.shard", "ShardPool", "__init__", "spawn"),
    ("repro.engine.shard", "ShardPool", "close", "close"),
    ("repro.harness.persistence", None, "save_sweeps", "persist"),
)

#: What a leaf tallies in its ``extra`` slot, given (args, result).
Tally = Callable[[tuple, Any], int]


def _granted(args: tuple, result: Any) -> int:
    return result is not None


def _bank_rows(args: tuple, result: Any) -> int:
    return len(args[1])  # (self, requests) / (self, rows, requests)


#: (module, class, attribute, leaf name, tally or None).
LEAF_TARGETS: Tuple[Tuple[str, str, str, str, Optional[Tally]], ...] = (
    ("repro.engine.scheduler", "Scheduler", "run_cycle", "engine.run_cycle",
     None),
    ("repro.engine.scheduler", "Scheduler", "wake", "engine.wake", None),
    ("repro.routers.base", "Router", "compute", "routers.compute", None),
    ("repro.routers.base", "Router", "commit", "routers.commit", None),
    ("repro.routers.base", "Router", "accept", "routers.accept", None),
    ("repro.network.router", "NetworkRouter", "compute", "routers.compute",
     None),
    ("repro.network.router", "NetworkRouter", "commit", "routers.commit",
     None),
    ("repro.network.router", "NetworkRouter", "accept", "routers.accept",
     None),
    ("repro.core.arbiter", "RoundRobinArbiter", "arbitrate", "core.rr_arb",
     _granted),
    ("repro.core.arbiter", "BatchArbiterBank", "arbitrate_all",
     "core.batch_arb", _bank_rows),
    ("repro.core.arbiter", "BatchArbiterBank", "arbitrate_rows",
     "core.batch_arb", _bank_rows),
    ("repro.traffic.source", "TrafficSource", "generate", "traffic.generate",
     _granted),
    ("repro.traffic.source", "TrafficSource", "peek_arrival", "traffic.peek",
     None),
    ("repro.engine.shard", "ShardPool", "send", "shard.send", None),
    ("repro.engine.shard", "ShardPool", "gather", "shard.gather", None),
    ("repro.workloads.base", "Workload", "next_message",
     "workloads.next_message", None),
    ("repro.workloads.base", "Workload", "deliver", "workloads.deliver", None),
    ("repro.workloads.base", "Workload", "eligible", "workloads.probe", None),
    ("repro.workloads.base", "Workload", "next_ready", "workloads.probe",
     None),
    ("repro.workloads.base", "Workload", "ready_ranks", "workloads.probe",
     None),
    ("repro.harness.stats", "LatencySample", "add", "harness.latency_add",
     None),
) + tuple(
    ("repro.engine.hooks", "EngineHooks", f"emit_{event}", "engine.hook_emit",
     None)
    for event in (
        "cycle_start", "cycle_end", "flit_move", "grant", "credit",
        "stage_enter", "spec_outcome", "fault_inject", "fault_recover",
    )
)

LEAF_NAMES = tuple(sorted({target[3] for target in LEAF_TARGETS}))


class Span:
    """One coarse boundary crossing."""

    __slots__ = ("id", "name", "start", "end", "parent", "rep_id", "leaves")

    def __init__(self, id: int, name: str, start: float,
                 parent: Optional[int], rep_id: int) -> None:
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rep_id = rep_id
        #: leaf name -> [calls, busy_s, child_s, extra]
        self.leaves: Dict[str, List[float]] = {
            name: [0, 0.0, 0.0, 0] for name in LEAF_NAMES
        }

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id, "name": self.name, "start": self.start,
            "end": self.end, "parent": self.parent, "rep_id": self.rep_id,
            "leaves": {
                name: cell for name, cell in self.leaves.items() if cell[0]
            },
        }


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus what child spans and leaves cover.

    A leaf's ``busy_s - child_s`` is the time it covers that no leaf
    nested inside it also claims, so summing it over a span's leaves
    counts every traced instant once.
    """
    own = {span.id: span.duration for span in spans}
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
        for calls, busy_s, child_s, extra in span.leaves.values():
            own[span.id] -= busy_s - child_s
    return own


class Tracer:
    """Spans and leaf aggregates of the reps run while installed."""

    def __init__(self, now: Callable[[], float] = clock.wall) -> None:
        self._now = now
        self.spans: List[Span] = []
        self.rep_id = 0
        self._open: List[Span] = []
        #: Leaf cells of the innermost open span (what leaves write to).
        self._cells: Optional[Dict[str, List[float]]] = None
        #: Seconds of traced calls finished inside the running leaf.
        self._child_s = 0.0
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), name, self._now(), parent, self.rep_id)
        self.spans.append(span)
        self._open.append(span)
        outer_cells = self._cells
        self._cells = span.leaves
        try:
            yield span
        finally:
            span.end = self._now()
            self._open.pop()
            self._cells = outer_cells

    def _span_wrapper(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # A subclass's override calling up to its traced base (a
            # sharded __init__ or finish_run) is one boundary, not two.
            if self._open and self._open[-1].name == name:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _leaf_wrapper(
        self, fn: Callable, name: str, tally: Optional[Tally]
    ) -> Callable:
        now = self._now

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cells = self._cells
            if cells is None:  # outside any span: not part of a rep
                return fn(*args, **kwargs)
            outer_child_s = self._child_s
            self._child_s = 0.0
            start = now()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                busy_s = now() - start
                cell = cells[name]
                cell[0] += 1
                cell[1] += busy_s
                cell[2] += self._child_s
                if tally is not None:
                    cell[3] += tally(args, result)
                self._child_s = outer_child_s + busy_s
        return wrapper

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; call before constructing the simulation."""
        for module, owner, attr, name in SPAN_TARGETS:
            self._patch(module, owner, attr,
                        lambda fn, name=name: self._span_wrapper(fn, name))
        for module, owner, attr, name, tally in LEAF_TARGETS:
            self._patch(module, owner, attr,
                        lambda fn, name=name, tally=tally:
                        self._leaf_wrapper(fn, name, tally))

    def _patch(self, module: str, owner: Optional[str], attr: str,
               wrap: Callable[[Callable], Callable]) -> None:
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
        original = vars(target)[attr]
        self._patched.append((target, attr, original))
        setattr(target, attr, wrap(original))

    def remove(self) -> None:
        """Put every original back (identity-restoring, idempotent)."""
        while self._patched:
            target, attr, original = self._patched.pop()
            setattr(target, attr, original)

    # -- reading -------------------------------------------------------

    def leaf_totals(self, rep_id: int) -> Dict[str, List[float]]:
        """Leaf name -> [calls, busy_s, child_s, extra] summed over a rep."""
        totals = {name: [0, 0.0, 0.0, 0] for name in LEAF_NAMES}
        for span in self.spans:
            if span.rep_id != rep_id:
                continue
            for name, cell in span.leaves.items():
                total = totals[name]
                for i, value in enumerate(cell):
                    total[i] += value
        return totals

    def span_totals(self, rep_id: int) -> Dict[str, Dict[str, float]]:
        """Span name -> {count, duration_s, self_s} summed over a rep."""
        spans = [span for span in self.spans if span.rep_id == rep_id]
        own = self_times(spans)
        totals: Dict[str, Dict[str, float]] = {}
        for span in spans:
            total = totals.setdefault(
                span.name, {"count": 0, "duration_s": 0.0, "self_s": 0.0}
            )
            total["count"] += 1
            total["duration_s"] += span.duration
            total["self_s"] += own[span.id]
        return totals

    def as_dict(self) -> Dict[str, Any]:
        return {"spans": [span.as_dict() for span in self.spans]}
