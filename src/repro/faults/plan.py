"""Deterministic fault plans.

A :class:`FaultPlan` is a *description* of faults to inject into a
simulation: rate-based transient faults (flit corruption on the host
channels, credit loss on the return wires) drawn from seed-derived
:func:`~repro.core.rng.derive_rng` streams, plus explicitly scheduled
structural faults (stuck crosspoint/subswitch/input buffers, dead
network links).  The plan itself is immutable and holds no state; the
injectors in :mod:`repro.faults.injector` interpret it against a live
simulation.

Determinism contract: the same seed and the same plan produce the same
fault schedule, the same recovery actions, and byte-identical final
statistics — including with active-set scheduling on or off.  Every
random decision is drawn from a stream keyed by stable names (port
index, router name), never from object identity, and every draw happens
at a schedule-independent point (host-channel transmission attempts,
committed credit deliveries).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.rng import derive_rng

#: Fault kinds, as reported on the ``fault_inject`` hook event.
CORRUPT = "corrupt"
CREDIT_LOSS = "credit_loss"
STUCK = "stuck"
LINK_DOWN = "link_down"

#: Recovery kinds, as reported on the ``fault_recover`` hook event.
RETRANSMIT = "retransmit"
CREDIT_RESYNC = "credit_resync"
UNSTUCK = "unstuck"
LINK_UP = "link_up"


@dataclass(frozen=True)
class StuckFault:
    """One scheduled stuck-buffer fault inside a switch.

    ``kind="crosspoint"`` sticks downstream buffers by address: ``where``
    indexes into the router's crosspoint/subswitch credit array (e.g.
    ``(i, j)`` sticks every VC of crosspoint *(i, j)* of the buffered
    crossbar; ``(i, j, vc)`` one VC lane; ``(i, col)`` a subswitch input
    buffer of the hierarchical model).  A stuck buffer stops *accepting*
    flits — its flits still drain and its credits still return, so
    conservation invariants hold throughout.

    ``kind="input"`` wedges the read port of input buffer ``where``
    (``(port,)`` for all VCs, ``(port, vc)`` for one): buffered flits
    stop draining until the fault clears.  This is the stuck-buffer
    analogue for organizations without crosspoint buffers.
    """

    cycle: int
    where: Tuple[int, ...]
    kind: str = "crosspoint"
    until: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("crosspoint", "input"):
            raise ValueError(f"unknown stuck-fault kind {self.kind!r}")
        if self.cycle < 0:
            raise ValueError(f"cycle must be >= 0, got {self.cycle}")
        if self.until is not None and self.until <= self.cycle:
            raise ValueError(
                f"until ({self.until}) must be > cycle ({self.cycle})"
            )
        if not self.where:
            raise ValueError("where must name at least one index")


@dataclass(frozen=True)
class LinkFault:
    """One scheduled dead-link fault in a network simulation.

    The output link at ``port`` of switch ``switch`` goes down at
    ``cycle`` (it stops transmitting; flits already queued toward it
    wait) and — when ``until`` is set — comes back up at ``until``.
    Routes computed while the link is down avoid it (graceful
    degradation); flits routed before the failure wait for recovery.
    """

    cycle: int
    switch: object
    port: int
    until: Optional[int] = None

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise ValueError(f"cycle must be >= 0, got {self.cycle}")
        if self.until is not None and self.until <= self.cycle:
            raise ValueError(
                f"until ({self.until}) must be > cycle ({self.cycle})"
            )


@dataclass(frozen=True)
class FaultPlan:
    """What to break, how often, and how recovery is parameterized.

    Rates are per-event probabilities: ``corrupt_rate`` per host-channel
    transmission attempt, in [0, 1) — a channel that corrupts every
    attempt never delivers, and a dead channel is what ``links``
    models — and ``credit_loss_rate`` per delivered credit, in [0, 1]
    (resync recovers every lost credit).
    ``seed`` keys the fault streams; None inherits the simulation seed,
    so one seed reproduces traffic *and* faults together.
    """

    corrupt_rate: float = 0.0
    credit_loss_rate: float = 0.0
    #: Cycles a sender backs off after the first detected corruption;
    #: doubles (``retransmit_backoff``) per consecutive corruption, up
    #: to ``retransmit_cap`` cycles.
    retransmit_timeout: int = 4
    retransmit_backoff: float = 2.0
    retransmit_cap: int = 64
    #: Cycles after which a lost credit is re-delivered out of band
    #: (the modeled credit-resync handshake).
    credit_resync_timeout: int = 32
    stuck: Tuple[StuckFault, ...] = ()
    links: Tuple[LinkFault, ...] = ()
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.corrupt_rate < 1.0:
            raise ValueError(
                f"corrupt_rate {self.corrupt_rate} outside [0, 1)"
            )
        if not 0.0 <= self.credit_loss_rate <= 1.0:
            raise ValueError(
                f"credit_loss_rate {self.credit_loss_rate} outside [0, 1]"
            )
        if self.retransmit_timeout < 1:
            raise ValueError(
                f"retransmit_timeout must be >= 1, "
                f"got {self.retransmit_timeout}"
            )
        if self.retransmit_backoff < 1.0:
            raise ValueError(
                f"retransmit_backoff must be >= 1, "
                f"got {self.retransmit_backoff}"
            )
        if self.retransmit_cap < self.retransmit_timeout:
            raise ValueError(
                f"retransmit_cap ({self.retransmit_cap}) must be >= "
                f"retransmit_timeout ({self.retransmit_timeout})"
            )
        if self.credit_resync_timeout < 1:
            raise ValueError(
                f"credit_resync_timeout must be >= 1, "
                f"got {self.credit_resync_timeout}"
            )

    @property
    def enabled(self) -> bool:
        """True when the plan can inject anything at all.

        A disabled plan is treated exactly like no plan: the simulation
        takes the zero-cost path and stays byte-identical to a run with
        no fault machinery attached.
        """
        return bool(
            self.corrupt_rate > 0.0
            or self.credit_loss_rate > 0.0
            or self.stuck
            or self.links
        )

    def retry_delay(self, attempts: int) -> int:
        """Sender back-off after ``attempts`` consecutive corruptions."""
        try:
            delay = int(self.retransmit_timeout * (
                self.retransmit_backoff ** max(0, attempts - 1)
            ))
        except OverflowError:
            # The float left its range (about 1,024 doublings) long
            # after the delay reached the cap.
            return self.retransmit_cap
        return min(self.retransmit_cap, delay)


# ----------------------------------------------------------------------
# CRC-8 (the modeled link-level detection code)
# ----------------------------------------------------------------------

_CRC8_POLY = 0x07  # x^8 + x^2 + x + 1 (CRC-8/SMBUS)


def crc8(data: bytes) -> int:
    """Bitwise CRC-8 (poly 0x07, init 0) over ``data``."""
    crc = 0
    for byte in data:
        crc ^= byte
        for _ in range(8):
            if crc & 0x80:
                crc = ((crc << 1) ^ _CRC8_POLY) & 0xFF
            else:
                crc = (crc << 1) & 0xFF
    return crc


def flit_checksum(flit) -> int:
    """CRC-8 over a flit's identifying fields.

    Models the per-flit check symbol a link-level retransmission
    protocol would carry; a corrupted transmission XORs a nonzero error
    syndrome onto this, which the receiver detects (CRC-8 catches all
    single-byte errors, which is the only error model injected).
    """
    payload = (
        flit.packet_id & 0xFFFFFFFF,
        flit.flit_index & 0xFFFF,
        flit.dest & 0xFFFF,
        flit.vc & 0xFF,
    )
    data = bytearray()
    for value in payload:
        while True:
            data.append(value & 0xFF)
            value >>= 8
            if not value:
                break
    return crc8(bytes(data))


def sample_link_faults(
    topology,
    seed: int,
    count: int,
    cycle: int,
    until: Optional[int] = None,
) -> Tuple[LinkFault, ...]:
    """Draw ``count`` distinct inter-switch links to kill at ``cycle``.

    Deterministic in ``seed``; host-facing ports are excluded so the
    failure is always routable-around in a multipath topology.
    """
    rng = derive_rng(seed, "fault", "links")
    candidates: List[Tuple[object, int]] = []
    for sid in topology.switch_ids():
        for port in topology.wired_ports(sid):
            if topology.neighbor(sid, port).switch is not None:
                candidates.append((sid, port))
    if count > len(candidates):
        raise ValueError(
            f"asked for {count} link faults but the topology has only "
            f"{len(candidates)} inter-switch links"
        )
    picked = []
    for _ in range(count):
        picked.append(candidates.pop(rng.randrange(len(candidates))))
    return tuple(
        LinkFault(cycle=cycle, switch=sid, port=port, until=until)
        for sid, port in picked
    )
