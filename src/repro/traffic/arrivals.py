"""The arrival queue: every source's next packet, in one calendar.

Both stacks draw their synthetic traffic here — the switch one stream
per input port, the network one per host (Section 4.3's Bernoulli
injection, or Table 1's ON/OFF process).  Each index ``i`` pairs a
private stream with an injection process, and the queue holds exactly
one arrival per index whose process can still fire: the cycle of its
next packet, drawn as a gap
(:meth:`~repro.traffic.injection.InjectionProcess.next_gap`) when the
previous one was consumed.  A stream is read in the order gap,
destination, gap, ...: the consumer draws the packet's destination
from :attr:`ArrivalQueue.streams` ``[i]`` while :meth:`due` has the
index out, and the next gap is drawn after.

Arrivals are filed by cycle: one bucket of indices per cycle that has
any, and a heap of those cycles.  Near saturation most sources are due
every few cycles, so a cycle's arrivals cost one heap operation
between them instead of one each.

Every executed cycle pops what is due (:meth:`due`), in ascending
index order, and the scheduler takes :meth:`next_due` as a wake
horizon, so it never jumps over an arrival and pops exactly what a
never-jump run pops.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.errors import InvariantViolation
from ..core.rng import Rng
from .injection import Bernoulli, InjectionProcess


class ArrivalQueue:
    """Per-index (stream, process) arrivals, earliest first."""

    def __init__(
        self, streams: Sequence[Rng], processes: Sequence[InjectionProcess]
    ) -> None:
        if len(streams) != len(processes):
            raise ValueError(
                f"{len(streams)} streams for {len(processes)} processes"
            )
        self.streams: List[Rng] = list(streams)
        self.processes: List[InjectionProcess] = list(processes)
        #: Cycle -> the indices whose next arrival falls on it.
        self._at: Dict[int, List[int]] = {}
        #: Heap of the cycles ``_at`` holds.
        self._cycles: List[int] = []
        for index, process in enumerate(self.processes):
            gap = process.next_gap(self.streams[index])
            if gap is not None:
                self._file(gap, index)

    def _file(self, cycle: int, index: int) -> None:
        bucket = self._at.get(cycle)
        if bucket is None:
            self._at[cycle] = [index]
            heapq.heappush(self._cycles, cycle)
        else:
            bucket.append(index)

    def next_due(self) -> Optional[int]:
        """Cycle of the earliest queued arrival (None: none queued)."""
        return self._cycles[0] if self._cycles else None

    def due(self, now: int) -> Iterator[int]:
        """The indices with an arrival at ``now``, ascending.

        Each index's next arrival is drawn when the caller comes back
        for the following one — after the destination draw, so both
        land on the index's one stream in order.
        """
        cycles = self._cycles
        if not cycles or cycles[0] > now:
            return
        if cycles[0] != now:
            raise InvariantViolation(
                "a cycle with an arrival was skipped", cycle=now,
                check="event-schedule", arrival=cycles[0],
                index=min(self._at[cycles[0]]),
            )
        heapq.heappop(cycles)
        at, streams, processes = self._at, self.streams, self.processes
        nxt = now + 1
        for index in sorted(at.pop(now)):
            yield index
            gap = processes[index].next_gap(streams[index])
            if gap is not None:
                # _file, inlined: once per packet.
                bucket = at.get(nxt + gap)
                if bucket is None:
                    at[nxt + gap] = [index]
                    heapq.heappush(cycles, nxt + gap)
                else:
                    bucket.append(index)

    def queued(self) -> List[Tuple[int, int]]:
        """Every queued ``(cycle, index)``, in the order they come due."""
        return sorted((cycle, index) for cycle, bucket in self._at.items()
                      for index in bucket)

    def stop(self) -> None:
        """Drop every queued arrival: no process fires again."""
        self._at = {}
        self._cycles = []
        self.processes = [Bernoulli(0.0)] * len(self.processes)

    def audit(self, cycle: int) -> None:
        """Check the queue at the clock ``cycle`` (every cycle before
        it has executed): the cycle heap lists exactly the non-empty
        buckets, each index whose process has a positive rate holds
        exactly one arrival, no other index holds one, and none is due
        before ``cycle``."""
        at = self._at
        if (len(self._cycles) != len(at) or set(self._cycles) != set(at)
                or not all(at.values())):
            raise InvariantViolation(
                "the arrival queue's cycle heap does not list its buckets",
                cycle=cycle, check="arrival-queue",
                cycles=sorted(self._cycles), buckets=sorted(at),
            )
        counts: Dict[int, int] = {}
        for arrival, index in self.queued():
            counts[index] = counts.get(index, 0) + 1
            if arrival < cycle:
                raise InvariantViolation(
                    f"index {index}'s arrival at cycle {arrival} was "
                    f"never generated",
                    cycle=cycle, check="arrival-queue", index=index,
                    arrival=arrival,
                )
        processes = self.processes
        for index in sorted(set(counts).union(range(len(processes)))):
            fires = index < len(processes) and processes[index].rate > 0.0
            if counts.get(index, 0) != fires:
                raise InvariantViolation(
                    f"index {index} has {counts.get(index, 0)} queued "
                    f"arrivals, expected {int(fires)}",
                    cycle=cycle, check="arrival-queue", index=index,
                    queued=counts.get(index, 0),
                )


__all__ = ["ArrivalQueue"]
