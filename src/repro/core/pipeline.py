"""Fixed-latency pipeline stages.

The high-radix router pipelines of Figure 7 separate request issue from
grant by several cycles (wire stage, local output arbitration, global
output arbitration).  ``DelayLine`` models any such fixed-latency stage:
items inserted at cycle ``t`` become visible at cycle ``t + latency``.
"""

from __future__ import annotations

import copy
import itertools
from bisect import insort
from collections import deque
from typing import Any, Callable, Deque, Dict, Generic, List, Optional, Tuple, TypeVar

T = TypeVar("T")


class DelayLine(Generic[T]):
    """Queue whose items mature after a fixed (or explicit) delay.

    Entries ``(due, counter, item)`` are kept in ``(due, counter)``
    order in a FIFO, so same-cycle items drain in insertion order.  A
    fixed latency makes due cycles monotonic in push order, so a push
    appends; an item due before the tail (an explicit :meth:`push_at`,
    e.g. an OVA grant that carries an extra cycle of VC-check latency
    alongside ordinary grants) is inserted in order instead.  The
    counter is unique, so an insertion never compares two items.
    """

    __slots__ = ("latency", "_queue", "_counter")

    def __init__(self, latency: int) -> None:
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        self.latency = latency
        self._queue: Deque[Tuple[int, int, T]] = deque()
        self._counter = itertools.count()

    def push(self, now: int, item: T) -> None:
        """Insert ``item`` at cycle ``now``; it matures at ``now + latency``."""
        # push_at's body, inlined: a router pushes here on every hop.
        due = now + self.latency
        queue = self._queue
        if queue and due < queue[-1][0]:
            insort(queue, (due, next(self._counter), item))
        else:
            queue.append((due, next(self._counter), item))

    def push_at(self, due: int, item: T) -> None:
        """Insert ``item`` maturing at an explicit cycle."""
        queue = self._queue
        if queue and due < queue[-1][0]:
            insort(queue, (due, next(self._counter), item))
        else:
            queue.append((due, next(self._counter), item))

    def pop_ready(self, now: int) -> List[T]:
        """Remove and return every item that has matured by cycle ``now``."""
        queue = self._queue
        ready: List[T] = []
        while queue and queue[0][0] <= now:
            ready.append(queue.popleft()[2])
        return ready

    def peek_ready(self, now: int) -> List[T]:
        """Return matured items without removing them, in pop order."""
        return [item for _, item in self.pending(now)]

    def pending(self, now: int) -> List[Tuple[int, T]]:
        """``(due, item)`` pairs maturing by ``now``, in pop order.

        The sequence matches exactly what successive :meth:`pop_ready`
        calls will deliver — the sharded engine pre-draws per-credit
        fault decisions against this order.  Pure read.
        """
        ready: List[Tuple[int, T]] = []
        for due, _, item in self._queue:
            if due > now:
                break
            ready.append((due, item))
        return ready

    def next_due(self) -> "int | None":
        """Maturity cycle of the earliest queued item, or None.

        The delay line's contribution to its component's
        :meth:`~repro.engine.Component.next_event`: a component whose
        only pending work sits in delay lines must next run at the
        earliest ``next_due`` among them.  Pure read — the FIFO head
        is the minimum by construction.
        """
        return self._queue[0][0] if self._queue else None

    def items(self) -> List[T]:
        """Every queued item, matured or not (for invariant probes)."""
        return [item for _, _, item in self._queue]

    def dump(
        self, encode: Optional[Callable[[T], Any]] = None
    ) -> Dict[str, Any]:
        """Serializable capture: entries (sorted), counter position.

        ``encode`` maps each item to a picklable stand-in (e.g. a sink
        callback to its port index); identity when omitted.  The
        insertion counters are kept verbatim so a :meth:`load` twin
        pops in exactly the original order.
        """
        return {
            "latency": self.latency,
            "counter": next(copy.copy(self._counter)),
            "entries": [
                (due, cnt, item if encode is None else encode(item))
                for due, cnt, item in self._queue
            ],
        }

    @classmethod
    def load(
        cls,
        state: Dict[str, Any],
        decode: Optional[Callable[[Any], T]] = None,
    ) -> "DelayLine[T]":
        """Rebuild a delay line from a :meth:`dump` capture."""
        line: "DelayLine[T]" = cls(state["latency"])
        line._queue = deque(sorted(
            (due, cnt, item if decode is None else decode(item))
            for due, cnt, item in state["entries"]
        ))
        line._counter = itertools.count(state["counter"])
        return line

    def __setstate__(self, state: Tuple[None, Dict[str, Any]]) -> None:
        """Unpickle.  A capture written while the queue was a binary
        heap carries it as ``_heap``, in heap order; it is sorted into
        the FIFO."""
        slots = dict(state[1])
        heap = slots.pop("_heap", None)
        if heap is not None:
            slots["_queue"] = deque(sorted(heap))
        for name, value in slots.items():
            setattr(self, name, value)

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)


class BusyTracker:
    """Tracks multi-cycle occupancy of a shared resource.

    A switch grant occupies its input row and output column for
    ``flit_cycles`` cycles; ``BusyTracker`` answers "is this resource
    free at cycle t" and records reservations.
    """

    __slots__ = ("_busy_until",)

    def __init__(self, count: int) -> None:
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self._busy_until = [0] * count

    def free(self, idx: int, now: int) -> bool:
        """True if resource ``idx`` is idle at cycle ``now``."""
        return self._busy_until[idx] <= now

    def reserve(self, idx: int, now: int, duration: int) -> None:
        """Occupy resource ``idx`` for ``duration`` cycles starting now."""
        if not self.free(idx, now):
            raise RuntimeError(
                f"resource {idx} reserved while busy until "
                f"{self._busy_until[idx]} (now={now})"
            )
        self._busy_until[idx] = now + duration

    def extend(self, idx: int, until: int) -> None:
        """Hold resource ``idx`` busy at least until cycle ``until``."""
        if until > self._busy_until[idx]:
            self._busy_until[idx] = until

    def busy_until(self, idx: int) -> int:
        return self._busy_until[idx]

    def any_busy(self, now: int) -> bool:
        return any(b > now for b in self._busy_until)

    def __len__(self) -> int:
        return len(self._busy_until)
