"""The network stack's host arrival process (Section 4.3's Bernoulli
injection, one private RNG stream per host).

Cycle mode polls every host every cycle (:meth:`HostArrivals.poll`).
Event mode pre-draws each host's next arrival into a binary heap of
(cycle, host) so the scheduler can fast-forward to it — the per-host
draws are exactly the ones polling would make, so prediction is
byte-equivalent to the lazy path, and heap order reproduces the
host-order iteration of the polling loop.  Redraws are bounded by the
run window (:meth:`HostArrivals.extend`) so a very low rate never
forces draws far past the simulated horizon: a host with no arrival
inside the window parks and resumes its stream when the window grows.

Where it is measured ahead (numpy present, rate below
:data:`BULK_MAX_RATE`) the pre-drawn polls come off one numpy Mersenne
generator over a row of state per host
(:class:`~repro.core.rng.StreamRows`) instead of one Python-level draw
per host per cycle.  The invariant everything here keeps, and
:meth:`HostArrivals.audit` checks: a host's Python stream sits at its
*sync* cycle, its state row at its *cursor*, and only polls separate
the two — an arrival hands the row to the stream for the consumer's
destination draw and takes it back.  Without rows the Python stream
itself is at the cursor.
"""

from __future__ import annotations

import copy
import heapq
from typing import Iterator, List, Optional, Set, Tuple

from ..core.arbiter import HAVE_NUMPY
from ..core.errors import InvariantViolation, invariant
from ..core.rng import Rng, StreamRows, derive_rng

#: Polls one vectorized step of the pre-draw samples: a hit re-draws
#: less than this, and no temporary outgrows it (8192 doubles stay
#: cache-resident, which halves the cost per element).
DRAW_CHUNK = 8192

#: Packet rate (arrivals per host per cycle) below which event mode
#: searches for arrivals in bulk.  Each arrival costs the bulk path a
#: fixed hand-over (row to Python for the destination draw and back,
#: one chunk drawn twice) that the scalar loop does not pay; measured
#: on radix-16 and radix-64 Clos networks, build + run, bulk is 0.86x
#: / 0.95x scalar at 2.5e-4 and 1.09x / 1.11x at 3.5e-4
#: (docs/architecture.md, "Pre-draw cost model").
BULK_MAX_RATE = 3e-4


class HostArrivals:
    """Per-host Bernoulli arrival streams, polled or pre-drawn.

    ``predraw`` fixes the mode: False, the owner calls :meth:`poll`
    every cycle; True, it calls :meth:`extend` before running into a
    window, reads :meth:`next_due` as its wake horizon and calls
    :meth:`due` on the cycles it executes.  Either way the hosts come
    back in ascending order with :attr:`streams` ``[host]`` positioned
    right after the poll that hit.
    """

    def __init__(
        self, seed: int, hosts: int, rate: float, predraw: bool
    ) -> None:
        #: Arrivals per host per cycle.
        self.rate = rate
        self.streams: List[Rng] = [
            derive_rng(seed, "net", host) for host in range(hosts)
        ]
        self.predraw = predraw
        self._heap: List[Tuple[int, int]] = []
        #: First cycle each host has not polled yet.
        self._cursor = [0] * hosts
        self._draw_limit = 0
        #: Hosts with no arrival before ``_draw_limit``.
        self._undrawn: Set[int] = set()
        self._rows: Optional[StreamRows] = None
        #: Cycle each host's Python stream stands at (rows only).
        self._sync_cursor = [0] * hosts
        # A zero rate never fires: nothing to park, no rows to fill.
        if predraw and rate > 0.0:
            self._undrawn.update(range(hosts))
            if HAVE_NUMPY and rate < BULK_MAX_RATE:
                rows = StreamRows(self.streams, DRAW_CHUNK)
                if rows.usable:
                    self._rows = rows

    @property
    def bulk(self) -> bool:
        """Whether pre-drawn polls come off numpy state rows."""
        return self._rows is not None

    def poll(self, now: int) -> Iterator[int]:
        """Poll every host's process for cycle ``now``; yields the hits."""
        rate = self.rate
        for host, stream in enumerate(self.streams):
            if stream.random() < rate:
                yield host

    def extend(self, end: int) -> None:
        """Grow the pre-draw window to cover ``[0, end)``: parked hosts
        resume their streams from where they stopped, and any hit
        inside the new window enters the heap."""
        if not self.predraw or end <= self._draw_limit:
            return
        self._draw_limit = end
        for host in sorted(self._undrawn):
            self._arm(host)

    def next_due(self) -> Optional[int]:
        """Cycle of the earliest pre-drawn arrival (None: none queued)."""
        return self._heap[0][0] if self._heap else None

    def due(self, now: int) -> Iterator[int]:
        """The hosts whose pre-drawn arrival is ``now``.

        Each host's next arrival is drawn when the caller comes back
        for the following one — after its destination draw, so both
        land on one contiguous per-host stream.
        """
        heap, rows = self._heap, self._rows
        while heap and heap[0][0] <= now:
            arrival, host = heapq.heappop(heap)
            invariant(arrival == now, "fast-forward skipped a host arrival",
                      cycle=now, check="event-schedule", host=host,
                      arrival=arrival)
            if rows is None:
                yield host
            else:
                stream = self.streams[host]
                rows.pull(host, stream)
                yield host
                rows.push(host, stream)
                self._sync_cursor[host] = self._cursor[host]
            self._arm(host)

    def _arm(self, host: int) -> None:
        """Pre-draw ``host``'s next arrival inside the window: queue it,
        or park the host with its cursor at the window edge.

        Consumes exactly the per-cycle polls :meth:`poll` would make
        from the host's stream — off its state row when the bulk path
        is on, else one ``random()`` at a time.
        """
        rate, cycle, limit = self.rate, self._cursor[host], self._draw_limit
        hit = None
        if rate > 0.0 and cycle < limit:
            if self._rows is not None:
                hit = self._rows.search(host, rate, limit - cycle)
            else:
                rnd = self.streams[host].random
                for poll in range(limit - cycle):
                    if rnd() < rate:
                        hit = poll
                        break
            self._cursor[host] = limit if hit is None else cycle + hit + 1
        if hit is None:
            self._undrawn.add(host)
        else:
            self._undrawn.discard(host)
            heapq.heappush(self._heap, (cycle + hit, host))

    def audit(self, cycle: int) -> None:
        """Check the sync invariant for the hosts that generated in the
        cycle just ended (their sync cycle is this clock), by making
        the polls since on a copy of the Python stream: they must end
        on the row's state and miss — all but the last, which is the
        host's queued arrival if it has one."""
        if self._rows is None:
            return
        for host, sync in enumerate(self._sync_cursor):
            if sync != cycle:
                continue
            cursor = self._cursor[host]
            oracle = copy.copy(self.streams[host])
            hits = [
                poll for poll in range(sync, cursor)
                if oracle.random() < self.rate
            ]
            if (
                self._rows.rows[host].tolist() != list(oracle.getstate()[1])
                or hits != ([] if host in self._undrawn else [cursor - 1])
            ):
                raise InvariantViolation(
                    f"host {host}'s state row is not its Python stream "
                    f"plus the {cursor - sync} polls pre-drawn since "
                    f"their last sync",
                    cycle=cycle,
                    check="arrival-stream",
                    host=host,
                    sync_cursor=sync,
                    arrival_cursor=cursor,
                    hits=hits,
                )


__all__ = ["HostArrivals", "BULK_MAX_RATE", "DRAW_CHUNK"]
