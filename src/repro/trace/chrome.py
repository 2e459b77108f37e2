"""Chrome trace-event JSON export for flit lifecycle records.

Serializes a :class:`~repro.trace.collector.TraceCollector`'s records
in the Chrome Trace Event Format ("JSON Object Format"), loadable in
Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``:

* every (port, stage) pair becomes one track (a ``tid`` under a single
  ``pid``), named by ``"M"`` thread-name metadata events;
* every stage span of every completed flit becomes one ``"X"``
  (complete) event with ``ts`` = stage-entry cycle and ``dur`` = cycles
  spent in the stage (one simulated cycle is rendered as 1 µs, the
  trace format's native unit);
* packet id, flit index, VC, and the packet's src/dest ports ride in
  ``args`` so Perfetto's query engine can slice by them — and so the
  export round-trips through
  :func:`repro.workloads.replay.from_chrome_trace`; workload flow and
  phase annotations (:meth:`TraceCollector.annotate_packet`) merge
  into the same ``args``;
* fault injections and recoveries (the collector's ``fault_events``
  log, see :mod:`repro.faults`) become ``"i"`` (instant) events on a
  dedicated ``faults`` track so degradation windows line up visually
  with the flit spans they perturb.

The output is deterministic: events are emitted in a canonical sort
order and serialized with sorted keys, so identical seeds produce
byte-identical JSON (pinned by ``tests/test_engine.py``).
"""

from __future__ import annotations

import json
from typing import IO, Dict, List, Tuple, Union

from .breakdown import stage_spans
from .collector import TraceCollector

#: The fault track lives under its own pid so its tid can never
#: collide with the (port, stage) track ids under pid 0.
FAULT_PID = 1


def chrome_trace_events(collector: TraceCollector) -> List[dict]:
    """The trace-event list: metadata first, then sorted span events."""
    stage_index = _stage_indexer(collector)
    n_stages = max(1, len(stage_index))
    events: List[dict] = []
    used_tracks: Dict[int, Tuple[int, str]] = {}
    for rec in collector.records(completed_only=True):
        for stage, start, end, port in stage_spans(rec):
            idx = stage_index.setdefault(stage, len(stage_index))
            tid = port * n_stages + idx
            used_tracks[tid] = (port, stage)
            # src/dest make the export replayable (see
            # repro.workloads.replay.from_chrome_trace); annotations
            # carry workload flow/phase labels when present.
            args = {
                "packet": rec.packet_id,
                "flit": rec.flit_index,
                "vc": rec.vc,
                "src": rec.src,
                "dest": rec.dest,
            }
            args.update(collector.annotations.get(rec.packet_id, {}))
            events.append({
                "name": stage,
                "ph": "X",
                "ts": start,
                "dur": end - start,
                "pid": 0,
                "tid": tid,
                "args": args,
            })
    events.sort(key=lambda e: (
        e["ts"], e["tid"], e["name"], e["args"]["packet"], e["args"]["flit"],
    ))
    meta: List[dict] = [{
        "name": "process_name",
        "ph": "M",
        "pid": 0,
        "args": {"name": collector.label or "router"},
    }]
    for tid in sorted(used_tracks):
        port, stage = used_tracks[tid]
        meta.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": tid,
            "args": {"name": f"port {port} · {stage}"},
        })
    fault_events = _fault_instant_events(collector)
    if fault_events:
        meta.append({
            "name": "process_name",
            "ph": "M",
            "pid": FAULT_PID,
            "args": {"name": "faults"},
        })
        meta.append({
            "name": "thread_name",
            "ph": "M",
            "pid": FAULT_PID,
            "tid": 0,
            "args": {"name": "fault events"},
        })
    return meta + events + fault_events


def _fault_instant_events(collector: TraceCollector) -> List[dict]:
    """Instant ("i") events for the collector's fault-event log.

    Already deterministic in content (the injector emits in cycle
    order); re-sorted on a canonical key anyway so the byte-identical
    guarantee never depends on injector emission order.
    """
    events = [
        {
            "name": f"{kind} {direction}",
            "ph": "i",
            "ts": cycle,
            "pid": FAULT_PID,
            "tid": 0,
            "s": "p",
            "args": {"where": list(where)},
        }
        for direction, kind, where, cycle in collector.fault_events
    ]
    events.sort(key=lambda e: (e["ts"], e["name"], str(e["args"]["where"])))
    return events


def _stage_indexer(collector: TraceCollector) -> Dict[str, int]:
    """Stage -> track slot, seeded from the router's declared pipeline.

    Stages outside the declaration (none today) get slots appended in
    first-seen order, which is deterministic.
    """
    return {
        stage: idx for idx, stage in enumerate(collector.declared_stages)
    }


def to_chrome_trace(collector: TraceCollector) -> dict:
    """The full trace document (``traceEvents`` envelope)."""
    return {
        "traceEvents": chrome_trace_events(collector),
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.trace", "timeUnit": "cycles"},
    }


def chrome_trace_json(collector: TraceCollector) -> str:
    """Deterministic JSON serialization of :func:`to_chrome_trace`."""
    return json.dumps(
        to_chrome_trace(collector), sort_keys=True, separators=(",", ":")
    )


def dump_chrome_trace(
    collector: TraceCollector, out: Union[str, IO[str]]
) -> int:
    """Write the trace JSON to a path or file object; returns #events."""
    doc = to_chrome_trace(collector)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    if hasattr(out, "write"):
        out.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return len(doc["traceEvents"])
