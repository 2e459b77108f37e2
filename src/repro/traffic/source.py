"""Per-input packet sources.

A :class:`TrafficSource` sits in front of one router input: each cycle
it may generate a packet (injection process), picks its destination
(traffic pattern), splits it into flits, and queues the flits in an
unbounded source FIFO.  The harness drains this FIFO into the router's
input buffers at channel bandwidth (one flit per ``flit_cycles``
cycles), assigning each packet an input VC round-robin among VCs with
buffer space — the standard injection-queue model that matches the
paper's latency measurement (latency runs from packet *generation* to
tail-flit ejection, so source queueing counts).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from ..core.flit import Flit, make_packet
from ..core.rng import derive_rng
from .injection import InjectionProcess
from .patterns import TrafficPattern


class TrafficSource:
    """Generates packets for one input port."""

    def __init__(
        self,
        input_id: int,
        pattern: TrafficPattern,
        injection: InjectionProcess,
        packet_size: int,
        seed: int,
    ) -> None:
        if packet_size < 1:
            raise ValueError(f"packet_size must be >= 1, got {packet_size}")
        self.input_id = input_id
        self.pattern = pattern
        self.injection = injection
        # A stateful process (MarkovOnOff) reused across ports or runs
        # must not carry mid-burst state into this source.
        injection.reset()
        self.packet_size = packet_size
        self.queue: Deque[Flit] = deque()
        self._rng = derive_rng(seed, "traffic", input_id)
        self.packets_generated = 0
        self.flits_generated = 0
        # Peak injection-queue depth (flits); queue length only grows
        # inside generate(), so sampling here captures the true peak.
        self.peak_backlog = 0
        # Next-arrival prediction state: the injection process is
        # polled ahead of time along this source's private RNG stream.
        # ``_cursor`` is the first cycle whose poll has not been drawn
        # yet; ``_next_arrival`` caches the pre-drawn hit (None = not
        # drawn yet, or the process never fires).
        self._cursor = 0
        self._next_arrival: Optional[int] = None

    def _draw_next(self, start: int) -> Optional[int]:
        """Pre-draw the injection process until its next hit >= ``start``.

        Consumes exactly the draws that polling ``should_inject`` once
        per cycle from ``start`` onward would consume — pre-drawing
        reorders nothing within the stream, so batch prediction is
        byte-equivalent to the lazy cycle-by-cycle polling it replaces
        (the goldens pin this).  A zero-rate process never fires, so
        return None without drawing rather than looping forever.
        """
        if self.injection.rate == 0.0:
            return None
        misses = self.injection.misses_before_hit(self._rng)
        cycle = max(self._cursor, start) + misses
        self._cursor = cycle + 1
        return cycle

    def peek_arrival(self, now: int) -> Optional[int]:
        """Cycle >= ``now`` of the next packet generation, or None.

        The next-arrival horizon consumed by event-driven scheduling:
        an :class:`~repro.engine.EventScheduler` wake source reports
        this so fast-forward never jumps over a generation cycle.
        Draws (and caches) the prediction on first use.
        """
        if self._next_arrival is None or self._next_arrival < now:
            self._next_arrival = self._draw_next(now)
        return self._next_arrival

    def generate(
        self, now: int, measured: bool, new_id: Callable[[], int]
    ) -> Optional[int]:
        """Generate one packet at cycle ``now`` if the process fires.

        Returns the packet id (taken from ``new_id``) if a packet was
        generated, else None.
        ``measured`` marks the packet as part of the measurement sample.
        Driven either every cycle (cycle stepper) or only on executed
        cycles (event mode) — skipping cycles before the pre-drawn
        arrival is a no-op here, so both drive modes see identical
        generation times and RNG streams.
        """
        arrival = self._next_arrival
        if arrival is None or arrival < now:
            arrival = self._next_arrival = self._draw_next(now)
        if arrival != now:
            return None
        self._next_arrival = None
        dest = self.pattern.dest(self.input_id, self._rng)
        flits = make_packet(
            dest=dest,
            size=self.packet_size,
            src=self.input_id,
            created_at=now,
            measured=measured,
            packet_id=new_id(),
        )
        self.queue.extend(flits)
        self.packets_generated += 1
        self.flits_generated += len(flits)
        backlog = len(self.queue)
        if backlog > self.peak_backlog:
            self.peak_backlog = backlog
        return flits[0].packet_id

    def head(self) -> Optional[Flit]:
        """Next flit waiting to enter the router, or None."""
        return self.queue[0] if self.queue else None

    def pop(self) -> Flit:
        return self.queue.popleft()

    def backlog(self) -> int:
        """Flits waiting in the (unbounded) source queue."""
        return len(self.queue)
