"""Flits and packets: the units of data moved by the router.

The paper (Section 3) breaks packets into one or more fixed-size *flits*
(flow-control digits).  The *head* flit carries routing information and
triggers per-packet actions (route computation, virtual-channel
allocation); *body* flits follow the head; the *tail* flit releases the
virtual channel when it departs.  A single-flit packet is simultaneously
head and tail.

``Flit`` is deliberately a small mutable record: the simulator annotates
it in place as it advances (allocated output VC, measurement label,
timestamps) rather than re-wrapping it at each stage.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional

#: Ids for packets made without an explicit ``packet_id`` (tests and
#: standalone use).  Simulations number their own packets.
_packet_ids = itertools.count()


def reset_packet_ids() -> None:
    """Restart the ids :func:`make_packet` hands out when called
    without ``packet_id``.  A simulation's packets are numbered from 0
    by the simulation itself, whatever ran before it."""
    global _packet_ids
    _packet_ids = itertools.count()


@dataclass(init=False)
class Flit:
    """One flow-control digit.

    Attributes:
        packet_id: Identifier shared by all flits of the same packet.
        flit_index: Position of this flit within its packet (0 = head).
        is_head: True for the first flit of the packet.
        is_tail: True for the last flit of the packet.
        src: Input port the flit arrived on (or source node id in a
            network simulation).
        dest: Destination output port (or destination node id).
        vc: Input virtual channel currently holding the flit.
        out_vc: Output virtual channel allocated to the packet, or None
            until virtual-channel allocation succeeds.
        created_at: Cycle the packet was generated at its source.
        injected_at: Cycle the flit entered the router input buffer.
        measured: True if the packet belongs to the measurement sample
            (packets injected during the measurement window; see
            Section 4.3 of the paper).
        hops: Number of routers traversed so far (network simulations).
        route: Remaining output ports to take, head first (network
            simulations with source routing).

    Slotted, since every hop reads several fields: the fields are
    declared without defaults (a slot cannot carry a class-level
    default), and ``__init__`` supplies them.
    """

    __slots__ = (
        "packet_id", "flit_index", "is_head", "is_tail", "src", "dest",
        "vc", "out_vc", "created_at", "injected_at", "measured", "hops",
        "route",
    )

    packet_id: int
    flit_index: int
    is_head: bool
    is_tail: bool
    src: int
    dest: int
    vc: int
    out_vc: Optional[int]
    created_at: int
    injected_at: int
    measured: bool
    hops: int
    route: List[int]

    def __init__(
        self,
        packet_id: int,
        flit_index: int,
        is_head: bool,
        is_tail: bool,
        src: int,
        dest: int,
        vc: int = 0,
        out_vc: Optional[int] = None,
        created_at: int = 0,
        injected_at: int = 0,
        measured: bool = False,
        hops: int = 0,
        route: Optional[List[int]] = None,
    ) -> None:
        self.packet_id = packet_id
        self.flit_index = flit_index
        self.is_head = is_head
        self.is_tail = is_tail
        self.src = src
        self.dest = dest
        self.vc = vc
        self.out_vc = out_vc
        self.created_at = created_at
        self.injected_at = injected_at
        self.measured = measured
        self.hops = hops
        self.route = [] if route is None else route

    @property
    def is_body(self) -> bool:
        """True if the flit is neither head nor tail (middle of a packet)."""
        return not self.is_head and not self.is_tail

    def clone_for_stats(self) -> "Flit":
        """Shallow snapshot used by instrumentation hooks."""
        return Flit(
            packet_id=self.packet_id,
            flit_index=self.flit_index,
            is_head=self.is_head,
            is_tail=self.is_tail,
            src=self.src,
            dest=self.dest,
            vc=self.vc,
            out_vc=self.out_vc,
            created_at=self.created_at,
            injected_at=self.injected_at,
            measured=self.measured,
            hops=self.hops,
            route=list(self.route),
        )

    def to_wire(self) -> tuple:
        """Every field, in declaration order, as one flat tuple.

        The form a flit takes on a pipe between processes: a quarter of
        the bytes and a fifth of the time of the default dataclass
        pickle, and a relay can pass it on without rebuilding the flit.
        """
        return (
            self.packet_id, self.flit_index, self.is_head, self.is_tail,
            self.src, self.dest, self.vc, self.out_vc, self.created_at,
            self.injected_at, self.measured, self.hops, self.route,
        )

    @classmethod
    def from_wire(cls, fields: tuple) -> "Flit":
        """Rebuild the flit :meth:`to_wire` flattened."""
        return cls(*fields)


def make_packet(
    dest: int,
    size: int,
    src: int = 0,
    created_at: int = 0,
    measured: bool = False,
    packet_id: Optional[int] = None,
    route: Optional[List[int]] = None,
) -> List[Flit]:
    """Create the flits of a ``size``-flit packet bound for ``dest``.

    Args:
        dest: Destination output port (or node).
        size: Number of flits in the packet; must be >= 1.
        src: Source input port (or node).
        created_at: Generation timestamp recorded on every flit.
        measured: Whether the packet is part of the measurement sample.
        packet_id: Explicit packet id; drawn from a module-level
            counter when omitted.
        route: Optional source route (list of output ports), copied onto
            every flit.

    Returns:
        List of flits, head first.
    """
    if size < 1:
        raise ValueError(f"packet size must be >= 1, got {size}")
    pid = next(_packet_ids) if packet_id is None else packet_id
    last = size - 1
    return [
        Flit(pid, i, i == 0, i == last, src, dest, 0, None, created_at, 0,
             measured, 0, list(route) if route else [])
        for i in range(size)
    ]
