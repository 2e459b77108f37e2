"""Dependency-driven workload DAGs.

A :class:`Workload` replaces the open-loop injection process with a
directed acyclic graph of *messages*: each node names a source rank, a
destination rank, and a size in flits, and becomes eligible to send
only once all of its dependencies have been **delivered** (tail flit
ejected at the destination) plus an optional think/compute delay.
Offered load is therefore an output of the simulation, not an input —
the closed-loop behavior that open-loop sweeps cannot show.

The runtime contract mirrors the traffic layer's pre-drawn arrival
model so both drive loops work unchanged:

* :meth:`Workload.eligible` is a **pure** probe (``tests/perturb.py``
  over-polls it):
  it reports the earliest cycle >= ``now`` at which a rank has a
  message ready, and is consulted by the harness's ``_next_work`` wake
  source, so :class:`~repro.engine.EventScheduler` fast-forward never
  jumps over a send cycle.
* :meth:`Workload.next_message` pops ready messages; the harness calls
  it only on executed cycles, which both schedulers execute
  identically.
* :meth:`Workload.deliver` completes a node and releases its
  successors; deliveries happen on executed cycles too (a flit in
  flight keeps its router busy), so the DAG evolves byte-identically
  in cycle and event mode by construction.

Acyclicity is guaranteed structurally: :meth:`WorkloadBuilder.add`
only accepts dependencies on nodes that already exist, so every edge
points backwards in insertion order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Message:
    """One ready-to-send message popped from a :class:`Workload`."""

    node: int  #: node id inside the workload DAG
    src: int
    dest: int
    size: int  #: flits
    flow: str  #: flow label ("" = unlabeled)
    phase: str  #: phase label ("" = unlabeled)


class _Node:
    """One DAG node (internal representation)."""

    __slots__ = (
        "idx", "src", "dest", "size", "delay", "at", "flow", "phase",
        "succs", "indegree", "ready_at", "sent_at", "delivered_at",
    )

    def __init__(
        self,
        idx: int,
        src: int,
        dest: int,
        size: int,
        delay: int,
        at: Optional[int],
        flow: str,
        phase: str,
    ) -> None:
        self.idx = idx
        self.src = src
        self.dest = dest
        self.size = size
        self.delay = delay
        self.at = at
        self.flow = flow
        self.phase = phase
        self.succs: List[int] = []
        self.indegree = 0
        self.ready_at = -1  #: set when the node becomes eligible
        self.sent_at = -1  #: cycle the harness popped it for injection
        self.delivered_at = -1  #: cycle the tail flit ejected


class WorkloadBuilder:
    """Incrementally assembles a :class:`Workload` DAG.

    Dependencies may only reference nodes added earlier, so the graph
    is acyclic by construction — there is no way to express a cycle.
    """

    def __init__(self, num_ranks: int, name: str = "workload",
                 allow_self: bool = False) -> None:
        if num_ranks < 2:
            raise ValueError(f"num_ranks must be >= 2, got {num_ranks}")
        self.num_ranks = num_ranks
        self.name = name
        #: Self-sends (src == dest) are almost always construction bugs
        #: in synthetic DAGs, but a *switch* trace legitimately records
        #: a packet entering and leaving the same port number — replay
        #: opts in.
        self.allow_self = allow_self
        self._nodes: List[_Node] = []

    def __len__(self) -> int:
        return len(self._nodes)

    def add(
        self,
        src: int,
        dest: int,
        size: int = 1,
        deps: Sequence[int] = (),
        delay: int = 0,
        at: Optional[int] = None,
        flow: str = "",
        phase: str = "",
    ) -> int:
        """Append one message node; returns its id.

        ``deps`` are delivered-before edges; ``delay`` is think/compute
        time added after the last dependency delivers; ``at`` pins a
        dependency-free node to an absolute release cycle (trace
        replay).
        """
        n = len(self._nodes)
        if not 0 <= src < self.num_ranks:
            raise ValueError(f"src {src} outside [0, {self.num_ranks})")
        if not 0 <= dest < self.num_ranks:
            raise ValueError(f"dest {dest} outside [0, {self.num_ranks})")
        if src == dest and not self.allow_self:
            raise ValueError(f"node {n}: src == dest == {src}")
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        if at is not None and deps:
            raise ValueError("absolute release (`at`) requires no deps")
        if at is not None and at < 0:
            raise ValueError(f"at must be >= 0, got {at}")
        node = _Node(n, src, dest, size, delay, at, flow, phase)
        for dep in deps:
            if not 0 <= dep < n:
                raise ValueError(
                    f"node {n}: dep {dep} must name an earlier node"
                )
            self._nodes[dep].succs.append(n)
            node.indegree += 1
        self._nodes.append(node)
        return n

    def build(self) -> "Workload":
        if not self._nodes:
            raise ValueError("workload has no messages")
        return Workload(self.num_ranks, self._nodes, self.name)


class Workload:
    """Runtime state of one dependency-driven workload.

    Shared by every rank's :class:`~repro.workloads.source.
    WorkloadSource` (or the network harness): per-rank ready heaps of
    ``(ready_at, node_id)`` feed the probes, and delivery callbacks
    release successors.  Construct via :class:`WorkloadBuilder` or the
    family factories in :mod:`repro.workloads`.
    """

    def __init__(
        self, num_ranks: int, nodes: List[_Node], name: str = "workload"
    ) -> None:
        self.num_ranks = num_ranks
        self.name = name
        self._nodes = nodes
        self._ready: List[List[Tuple[int, int]]] = [
            [] for _ in range(num_ranks)
        ]
        self._by_packet: Dict[int, int] = {}
        self._delivered = 0
        self.flits_total = sum(n.size for n in nodes)
        #: True when any message sends a rank to itself — fine on a
        #: switch (ports are independent), unroutable on a network.
        self.has_self_sends = any(n.src == n.dest for n in nodes)
        for node in nodes:
            if node.indegree == 0:
                node.ready_at = node.at if node.at is not None else node.delay
                heapq.heappush(
                    self._ready[node.src], (node.ready_at, node.idx)
                )

    # ------------------------------------------------------------------
    # Pure probes (wake horizons; tests/perturb.py over-polls them)
    # ------------------------------------------------------------------

    def eligible(self, rank: int, now: int) -> Optional[int]:
        """Earliest cycle >= ``now`` at which ``rank`` can send, or None.

        Pure: reports the per-rank ready-heap head without popping it,
        so the event scheduler may probe it any number of times.
        """
        heap = self._ready[rank]
        if not heap:
            return None
        ready = heap[0][0]
        return ready if ready > now else now

    def next_ready(self, now: int) -> Optional[int]:
        """Earliest send horizon over all ranks (network wake source)."""
        horizon: Optional[int] = None
        for heap in self._ready:
            if heap:
                ready = heap[0][0]
                if horizon is None or ready < horizon:
                    horizon = ready
        if horizon is None:
            return None
        return horizon if horizon > now else now

    def ready_ranks(self, now: int) -> List[int]:
        """Ranks with a message ready at ``now``, ascending (pure)."""
        return [
            rank
            for rank in range(self.num_ranks)
            if self._ready[rank] and self._ready[rank][0][0] <= now
        ]

    def done(self) -> bool:
        """True once every message has been delivered."""
        return self._delivered == len(self._nodes)

    @property
    def remaining(self) -> int:
        return len(self._nodes) - self._delivered

    @property
    def messages(self) -> int:
        return len(self._nodes)

    # ------------------------------------------------------------------
    # Mutating transitions (executed cycles only)
    # ------------------------------------------------------------------

    def next_message(self, rank: int, now: int) -> Optional[Message]:
        """Pop ``rank``'s next ready message, or None if none is due."""
        heap = self._ready[rank]
        if not heap or heap[0][0] > now:
            return None
        _, idx = heapq.heappop(heap)
        node = self._nodes[idx]
        node.sent_at = now
        return Message(
            node=idx, src=node.src, dest=node.dest, size=node.size,
            flow=node.flow, phase=node.phase,
        )

    def sent(self, node_id: int, packet_id: int, now: int) -> None:
        """Bind the packet id minted for node ``node_id``."""
        self._by_packet[packet_id] = node_id

    def deliver(self, packet_id: int, now: int) -> bool:
        """Complete the node behind ``packet_id``; release successors.

        Returns False (and does nothing) for packet ids the workload
        does not own, so harnesses can call it for every ejected tail.
        """
        idx = self._by_packet.get(packet_id)
        if idx is None:
            return False
        node = self._nodes[idx]
        node.delivered_at = now
        self._delivered += 1
        for succ_idx in node.succs:
            succ = self._nodes[succ_idx]
            succ.indegree -= 1
            if succ.indegree == 0:
                succ.ready_at = now + succ.delay
                heapq.heappush(
                    self._ready[succ.src], (succ.ready_at, succ_idx)
                )
        return True

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def message_latencies(self) -> List[int]:
        """Send-to-delivery latency of every delivered message."""
        return [
            n.delivered_at - n.sent_at
            for n in self._nodes
            if n.delivered_at >= 0
        ]

    def makespan(self) -> int:
        """Cycle of the last delivery so far (0 before any)."""
        return max(
            (n.delivered_at for n in self._nodes if n.delivered_at >= 0),
            default=0,
        )

    def stats(self) -> Dict[str, int]:
        """Aggregate ``workload.*`` counters (integer-valued, for the
        :class:`~repro.routers.base.RouterStats` extra convention).

        One pass over the nodes collects the message latencies, the
        makespan, each flow's first-send to last-delivery span, each
        phase's span and its completion skew (the spread of the
        per-destination-rank final deliveries).  A flow or phase with
        an undelivered node is left out, and a phase's first send
        ignores unsent nodes.
        """
        unsent = 2 ** 62
        latencies: List[int] = []
        makespan = 0
        flows: Dict[str, List[int]] = {}  # flow -> [first send, last delivery]
        open_flows = set()
        # phase -> [first send, last delivery, {dest rank: last delivery}]
        phases: Dict[str, list] = {}
        open_phases = set()
        for n in self._nodes:
            done = n.delivered_at
            if done >= 0:
                latencies.append(done - n.sent_at)
                if done > makespan:
                    makespan = done
            flow = n.flow
            if flow:
                if done < 0:
                    open_flows.add(flow)
                else:
                    span = flows.get(flow)
                    if span is None:
                        flows[flow] = [n.sent_at, done]
                    else:
                        if n.sent_at < span[0]:
                            span[0] = n.sent_at
                        if done > span[1]:
                            span[1] = done
            phase = n.phase
            if phase:
                if done < 0:
                    open_phases.add(phase)
                else:
                    entry = phases.get(phase)
                    if entry is None:
                        entry = phases[phase] = [unsent, -1, {}]
                    if 0 <= n.sent_at < entry[0]:
                        entry[0] = n.sent_at
                    if done > entry[1]:
                        entry[1] = done
                    ranks = entry[2]
                    if done > ranks.get(n.dest, -1):
                        ranks[n.dest] = done
        out: Dict[str, int] = {
            "workload.messages": len(self._nodes),
            "workload.flits": self.flits_total,
            "workload.delivered": self._delivered,
            "workload.makespan": makespan,
        }
        if latencies:
            latencies.sort()
            out["workload.msg_p50"] = _percentile(latencies, 50.0)
            out["workload.msg_p99"] = _percentile(latencies, 99.0)
            out["workload.msg_max"] = latencies[-1]
        spans = sorted(
            last - first for flow, (first, last) in flows.items()
            if flow not in open_flows
        )
        if spans:
            out["workload.flows"] = len(spans)
            out["workload.flow_p50"] = _percentile(spans, 50.0)
            out["workload.flow_p99"] = _percentile(spans, 99.0)
        complete = [
            entry for phase, entry in phases.items()
            if phase not in open_phases
        ]
        steps = sorted(
            last - first for first, last, _ in complete if first < unsent
        )
        if steps:
            out["workload.phases"] = len(steps)
            out["workload.step_mean"] = round(sum(steps) / len(steps))
            out["workload.step_max"] = steps[-1]
        skews = sorted(
            max(ranks.values()) - min(ranks.values())
            for _, _, ranks in complete
        )
        if skews:
            out["workload.skew_mean"] = round(sum(skews) / len(skews))
            out["workload.skew_max"] = skews[-1]
        return out

    def fold_stats(self, stats) -> None:
        """Fold :meth:`stats` into ``RouterStats.extra`` counters."""
        for name, value in self.stats().items():
            stats.bump(name, value)

    def annotate(self, collector) -> None:
        """Label the collector's packets with flow/phase annotations.

        The Chrome export merges these into each span's ``args`` (see
        :func:`repro.trace.chrome.chrome_trace_events`); packets
        without annotations render exactly as before.
        """
        for packet_id, idx in self._by_packet.items():
            node = self._nodes[idx]
            labels: Dict[str, str] = {}
            if node.flow:
                labels["flow"] = node.flow
            if node.phase:
                labels["phase"] = node.phase
            if labels:
                collector.annotate_packet(packet_id, **labels)

    # ------------------------------------------------------------------
    # Introspection (tests, tooling)
    # ------------------------------------------------------------------

    def sends_per_rank(self) -> List[int]:
        counts = [0] * self.num_ranks
        for n in self._nodes:
            counts[n.src] += 1
        return counts

    def receives_per_rank(self) -> List[int]:
        counts = [0] * self.num_ranks
        for n in self._nodes:
            counts[n.dest] += 1
        return counts

    def edges(self) -> Iterable[Tuple[int, int]]:
        """(dep, node) edges — every edge points backwards by id."""
        for n in self._nodes:
            for succ in n.succs:
                yield n.idx, succ


def _percentile(data: List[int], q: float) -> int:
    """Nearest-rank style percentile on pre-sorted ints (rounded)."""
    if len(data) == 1:
        return data[0]
    pos = (q / 100.0) * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    frac = pos - lo
    return round(data[lo] * (1.0 - frac) + data[hi] * frac)
