"""Deterministic fault injection and graceful degradation.

The paper's flow-control machinery (credit-based crosspoint flow
control, Section 5.2; speculation retry, Section 4.4) defines natural
recovery semantics; this package exercises them under loss.  A
:class:`FaultPlan` describes transient faults (flit corruption on host
channels, credit loss on the return wires) drawn from seed-derived RNG
streams plus scheduled structural faults (stuck buffers, dead network
links); :class:`SwitchFaultInjector` / :class:`NetworkFaultInjector`
interpret the plan against a live simulation, emitting
``fault_inject`` / ``fault_recover`` on the
:class:`~repro.engine.hooks.EngineHooks` bus and counting everything
into ``stats.faults.*`` extras.

Replayability is the design center: same seed + same plan gives
byte-identical fault schedules, recovery actions, and final results —
see ``docs/faults.md``.
"""

from .injector import NetworkFaultInjector, SwitchFaultInjector
from .plan import (
    CORRUPT,
    CREDIT_LOSS,
    CREDIT_RESYNC,
    LINK_DOWN,
    LINK_UP,
    RETRANSMIT,
    STUCK,
    UNSTUCK,
    FaultPlan,
    LinkFault,
    StuckFault,
    sample_link_faults,
)

__all__ = [
    "FaultPlan",
    "StuckFault",
    "LinkFault",
    "SwitchFaultInjector",
    "NetworkFaultInjector",
    "sample_link_faults",
    "CORRUPT",
    "CREDIT_LOSS",
    "STUCK",
    "LINK_DOWN",
    "RETRANSMIT",
    "CREDIT_RESYNC",
    "UNSTUCK",
    "LINK_UP",
]
