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

import copy
import itertools
from dataclasses import dataclass, field
from typing import List, Optional

_packet_ids = itertools.count()


def reset_packet_ids() -> None:
    """Reset the global packet-id counter (useful for reproducible tests)."""
    global _packet_ids
    _packet_ids = itertools.count()


def packet_id_state() -> int:
    """The next packet id the global counter will hand out.

    Peeked via a copy so the counter itself never advances; paired
    with :func:`set_packet_id_state` to checkpoint/restore the global
    allocation stream.
    """
    return next(copy.copy(_packet_ids))


def set_packet_id_state(next_id: int) -> None:
    """Restart the global packet-id counter at ``next_id``."""
    global _packet_ids
    _packet_ids = itertools.count(next_id)


@dataclass
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
    """

    packet_id: int
    flit_index: int
    is_head: bool
    is_tail: bool
    src: int
    dest: int
    vc: int = 0
    out_vc: Optional[int] = None
    created_at: int = 0
    injected_at: int = 0
    measured: bool = False
    hops: int = 0
    route: List[int] = field(default_factory=list)

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
        packet_id: Explicit packet id; allocated from a global counter
            when omitted.
        route: Optional source route (list of output ports), copied onto
            every flit.

    Returns:
        List of flits, head first.
    """
    if size < 1:
        raise ValueError(f"packet size must be >= 1, got {size}")
    pid = next(_packet_ids) if packet_id is None else packet_id
    flits = []
    for i in range(size):
        flits.append(
            Flit(
                packet_id=pid,
                flit_index=i,
                is_head=(i == 0),
                is_tail=(i == size - 1),
                src=src,
                dest=dest,
                created_at=created_at,
                measured=measured,
                route=list(route) if route else [],
            )
        )
    return flits
