"""Per-input packet sources.

A :class:`TrafficSource` sits in front of one router input: on the
cycles its injection process fires (timed by the simulation's
:class:`~repro.traffic.arrivals.ArrivalQueue`) it generates a packet,
picks its destination (traffic pattern), splits it into flits, and
queues the flits in an unbounded source FIFO.  The harness drains this
FIFO into the router's input buffers at channel bandwidth (one flit
per ``flit_cycles`` cycles), assigning each packet an input VC
round-robin among VCs with buffer space — the standard injection-queue
model that matches the paper's latency measurement (latency runs from
packet *generation* to tail-flit ejection, so source queueing counts).
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
        #: The private stream of this input: arrival gaps and
        #: destinations, in that order per packet.
        self.stream = derive_rng(seed, "traffic", input_id)
        self.packets_generated = 0
        self.flits_generated = 0
        # Peak injection-queue depth (flits); queue length only grows
        # inside generate(), so sampling here captures the true peak.
        self.peak_backlog = 0

    def peek_arrival(self, now: int) -> Optional[int]:
        """Not a horizon: always None.  A simulation times this source's
        packets with its :class:`~repro.traffic.arrivals.ArrivalQueue`;
        the method stays in the class body only for tracing that looks
        it up there."""
        return None

    def generate(
        self, now: int, measured: bool, new_id: Callable[[], int]
    ) -> int:
        """Generate one packet at cycle ``now``; returns its id.

        Called on each cycle the source's arrival falls on.  The
        destination is drawn from :attr:`stream` (the one the arrival
        gaps come from), the id from ``new_id``; ``measured`` marks the
        packet as part of the measurement sample.
        """
        dest = self.pattern.dest(self.input_id, self.stream)
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
