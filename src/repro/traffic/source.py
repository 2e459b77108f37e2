"""Per-host synthetic packet sources.

A :class:`TrafficSource` makes the synthetic packets of one switch
input or Clos host: on the cycles its injection process fires (timed by
the simulation's :class:`~repro.traffic.arrivals.ArrivalQueue`) it
picks the packet's destination (traffic pattern), optionally its source
route, and splits it into flits.  The simulation queues those flits in
the host's unbounded source FIFO
(:class:`~repro.harness.program.StagedRun` owns the FIFOs of both
stacks) and drains it into the router's input buffers at channel
bandwidth — the standard injection-queue model that matches the paper's
latency measurement (latency runs from packet *generation* to tail-flit
ejection, so source queueing counts).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..core.flit import Flit, make_packet
from ..core.rng import Rng
from .injection import InjectionProcess
from .patterns import TrafficPattern

#: ``route(src, dest)``: a packet's source route (a list of output ports).
RouteFn = Callable[[int, int], List[int]]


class TrafficSource:
    """Makes the synthetic packets of one input port or host."""

    def __init__(
        self,
        input_id: int,
        pattern: TrafficPattern,
        injection: InjectionProcess,
        packet_size: int,
        stream: Rng,
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
        #: The private stream of this input: arrival gaps and
        #: destinations, in that order per packet.
        self.stream = stream
        self.packets_generated = 0
        self.flits_generated = 0

    def peek_arrival(self, now: int) -> Optional[int]:
        """Not a horizon: always None.  A simulation times this source's
        packets with its :class:`~repro.traffic.arrivals.ArrivalQueue`;
        the method stays in the class body only for tracing that looks
        it up there."""
        return None

    def generate(
        self,
        now: int,
        measured: bool,
        new_id: Callable[[], int],
        route: Optional[RouteFn] = None,
    ) -> List[Flit]:
        """Make one packet at cycle ``now``; returns its flits.

        Called on each cycle the source's arrival falls on.  The
        destination is drawn from :attr:`stream` (the one the arrival
        gaps come from), then the source route, if ``route`` is given,
        as ``route(input_id, dest)``; the id comes from ``new_id``.
        ``measured`` marks the packet as part of the measurement sample.
        """
        dest = self.pattern.dest(self.input_id, self.stream)
        flits = make_packet(
            dest=dest,
            size=self.packet_size,
            src=self.input_id,
            created_at=now,
            measured=measured,
            packet_id=new_id(),
            route=None if route is None else route(self.input_id, dest),
        )
        self.packets_generated += 1
        self.flits_generated += len(flits)
        return flits
