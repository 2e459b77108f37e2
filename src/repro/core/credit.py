"""Credit-based flow control.

Section 5.2 of the paper: "each input keeps a separate free buffer
counter for each of the crosspoint buffers in its row.  For each flit
sent to one of these buffers, the corresponding free count is
decremented...  when a flit departs a crosspoint buffer, a credit is
returned to increment the input's free buffer count."

``CreditCounter`` is the per-buffer free count kept at the sender.
``CreditReturnBus`` models the shared per-input-row credit return bus:
all crosspoints on a row share one bus, a single credit can be returned
per cycle, and crosspoints that lose the bus arbitration retry on later
cycles.  ``DelayedCreditPipe`` models a fixed credit wire delay for the
ideal (dedicated-wire) comparison.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, List, Set, Tuple

from .errors import InvariantViolation


class CreditCounter:
    """Free-slot counter for one downstream buffer, kept at the sender.

    ``stuck`` models a fault: a stuck downstream buffer stops accepting
    new flits, which at the sender looks exactly like running out of
    credits.  Flits already buffered downstream still drain (credits
    still ``restore``), so conservation invariants are untouched.
    """

    __slots__ = ("capacity", "_free", "stuck")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._free = capacity
        self.stuck = False

    @property
    def free(self) -> int:
        return self._free

    @property
    def available(self) -> bool:
        return self._free > 0 and not self.stuck

    def consume(self) -> None:
        """Spend one credit (a flit was sent downstream)."""
        if self._free <= 0:
            raise RuntimeError("credit underflow: sent a flit without credit")
        self._free -= 1

    def restore(self) -> None:
        """Return one credit (a flit departed the downstream buffer)."""
        if self._free >= self.capacity:
            raise RuntimeError(
                "credit overflow: returned more credits than capacity"
            )
        self._free += 1


class DelayedCreditPipe:
    """A fixed-latency pipe delivering credits to ``sink`` callbacks.

    Used for the idealized dedicated-wire credit return of Section 5.2
    and for inter-router credits in the network simulator.

    ``drop_hook`` is the fault-injection tap: when set, it is called
    with each sink about to be delivered and may claim it by returning
    True — the credit is then *lost* on the wire (the hook owns it and
    is responsible for eventual resync).  Default None: zero-cost path.
    """

    __slots__ = ("latency", "_inflight", "drop_hook")

    def __init__(self, latency: int) -> None:
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        self.latency = latency
        self._inflight: Deque[Tuple[int, Callable[[], None]]] = deque()
        self.drop_hook: "Callable[[Callable[[], None]], bool] | None" = None

    def send(self, now: int, sink: Callable[[], None]) -> None:
        """Schedule ``sink()`` to fire ``latency`` cycles from ``now``."""
        self._inflight.append((now + self.latency, sink))

    def step(self, now: int) -> int:
        """Deliver all credits due at ``now``; returns how many fired."""
        fired = 0
        while self._inflight and self._inflight[0][0] <= now:
            _, sink = self._inflight.popleft()
            if self.drop_hook is not None and self.drop_hook(sink):
                continue
            sink()
            fired += 1
        return fired

    def pending(self) -> int:
        return len(self._inflight)

    def next_due(self) -> "int | None":
        """Delivery cycle of the earliest in-flight credit, or None.

        Horizon for event-driven scheduling: the FIFO head is the
        minimum because a fixed latency makes due cycles monotonic in
        send order.  Pure read.
        """
        return self._inflight[0][0] if self._inflight else None

    def pending_sinks(self) -> List[Callable[[], None]]:
        """Undelivered sink callbacks (for credit-conservation probes)."""
        return [sink for _, sink in self._inflight]


class CreditReturnBus:
    """Shared credit-return bus for one input row of crosspoints.

    At most one credit crosses the bus per cycle.  Crosspoints holding
    pending credits arbitrate in round-robin order; a crosspoint that
    loses simply retries — the paper notes that because each flit takes
    four cycles to traverse the input row, a loser has three spare
    cycles to re-arbitrate without hurting throughput.

    ``_waiting``, the sources with a non-empty queue, is what a step
    arbitrates among: it costs the crosspoints holding a credit, not
    the row's width.  Derived state; :meth:`reindex` rebuilds it.
    """

    __slots__ = ("num_sources", "latency", "_pending", "_waiting", "_rr",
                 "_pipe")

    def __init__(self, num_sources: int, latency: int = 1) -> None:
        if num_sources < 1:
            raise ValueError(f"num_sources must be >= 1, got {num_sources}")
        if latency < 1:
            # A zero-latency bus would deliver a credit inside the same
            # step() that granted it the bus, violating the two-phase
            # contract (decisions this cycle would see this cycle's
            # arbitration).  Dedicated wires with latency 0 are modeled
            # by DelayedCreditPipe instead.
            raise ValueError(f"bus latency must be >= 1, got {latency}")
        self.num_sources = num_sources
        self.latency = latency
        # _pending[s] holds callbacks waiting at source s for the bus.
        self._pending: List[Deque[Callable[[], None]]] = [
            deque() for _ in range(num_sources)
        ]
        self._waiting: Set[int] = set()
        self._rr = 0
        self._pipe = DelayedCreditPipe(latency)

    def post(self, source: int, sink: Callable[[], None]) -> None:
        """Queue a credit at crosspoint ``source`` for bus arbitration."""
        self._pending[source].append(sink)
        self._waiting.add(source)

    def reindex(self) -> None:
        """Rebuild ``_waiting`` from the queues (after a restore)."""
        self._waiting = {s for s, queue in enumerate(self._pending) if queue}

    @property
    def drop_hook(self):
        """Fault tap on the bus wire (see DelayedCreditPipe.drop_hook)."""
        return self._pipe.drop_hook

    @drop_hook.setter
    def drop_hook(self, hook) -> None:
        self._pipe.drop_hook = hook

    def step(self, now: int) -> None:
        """One cycle: grant the bus to one source, deliver due credits."""
        waiting = self._waiting
        if waiting:
            rr, n = self._rr, self.num_sources
            self.grant_to(min(waiting, key=lambda s: (s - rr) % n), now)
        self._pipe.step(now)

    def grant_to(self, source: int, now: int) -> None:
        """Bus grant: ``source`` wins this cycle (the batched hot path
        arbitrates every row bus in one pass, then applies each winner
        here, keeping ``_rr`` in lockstep with its arbiter)."""
        queue = self._pending[source]
        sink = queue.popleft()
        if not queue:
            self._waiting.discard(source)
        self._pipe.send(now, sink)
        self._rr = (source + 1) % self.num_sources

    def deliver(self, now: int) -> None:
        """Deliver due credits without arbitrating (batched step tail)."""
        self._pipe.step(now)

    def backlog(self) -> int:
        """Credits still waiting for the bus (excludes in-flight ones)."""
        return sum(len(q) for q in self._pending)

    def pending_sinks(self) -> List[Callable[[], None]]:
        """Every undelivered sink: waiting for the bus or on the wire."""
        waiting = [sink for q in self._pending for sink in q]
        return waiting + self._pipe.pending_sinks()

    def next_due(self, now: int) -> "int | None":
        """Earliest cycle at which the bus has deliverable work.

        Credits waiting for bus arbitration need cycle ``now`` (one
        crosses per cycle); otherwise the in-flight wire head is the
        horizon.  Pure read.
        """
        if self._waiting:
            return now
        return self._pipe.next_due()

    def idle(self) -> bool:
        return not self._waiting and self._pipe.pending() == 0


def audit_credit_books(
    counters: List[CreditCounter],
    held: List[int],
    owed: Iterable[CreditCounter],
    cycle: int,
    where: Callable[[int], Tuple[str, Dict[str, Any]]],
) -> None:
    """Check ``free + held == capacity`` for every counter of one book.

    ``held[n]`` counts the flits buffered at, or travelling toward, the
    buffer ``counters[n]`` guards, and ``owed`` names a counter once
    for each credit travelling back to it, as a router's audit found
    them.  A mismatch raises ``credit-conservation``, located by
    ``where(n)`` as ``(label, context)``.  Only the counters that do not
    balance on ``held`` alone look up the credits owed (those with a
    credit on the wing, and real violations); a counter owed credits it
    balances without is a surplus, found after.
    """
    pending: Dict[int, int] = {}
    for counter in owed:
        pending[id(counter)] = pending.get(id(counter), 0) + 1
    for counter, flits in [
        (c, h) for c, h in zip(counters, held) if c._free + h != c.capacity
    ]:
        flits += pending.pop(id(counter), 0)
        if counter._free + flits != counter.capacity:
            raise _unbalanced(counters.index(counter), counter, flits,
                              cycle, where)
    if pending:
        for n, counter in enumerate(counters):
            if id(counter) in pending:
                raise _unbalanced(n, counter, held[n] + pending[id(counter)],
                                  cycle, where)


def _unbalanced(n, counter, held, cycle, where) -> InvariantViolation:
    label, context = where(n)
    free, capacity = counter.free, counter.capacity
    return InvariantViolation(
        f"credit conservation violated at {label}: {free} free + {held} "
        f"held != {capacity} capacity "
        f"({'leak' if free + held < capacity else 'surplus'})",
        cycle=cycle, check="credit-conservation", free=free, held=held,
        capacity=capacity, **context,
    )
