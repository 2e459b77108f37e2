"""Event bus for engine instrumentation.

Hot-path design: each event kind is a plain list of callbacks exposed
as a public attribute, so emitters guard with a cheap truthiness test
(``if hooks.flit_move:``) and pay nothing when nobody is listening.
Callbacks run synchronously in registration order; a callback raising
(e.g. a sanitizer surfacing an :class:`InvariantViolation`) propagates
to whoever advanced the simulation, exactly like the old wrapper-based
checks did.

Event signatures:

======================  ================================================
``cycle_start(cycle)``  fired before a component's compute phase
``cycle_end(cycle)``    fired after commit; ``cycle`` is the
                        *post-increment* value (state is "as of the end
                        of cycle ``cycle - 1``")
``flit_move(kind, flit, port, cycle)``
                        flit crossed the component boundary; ``kind``
                        is ``"accept"`` (entered on input ``port``) or
                        ``"eject"`` (left toward output ``port``)
``grant(flit, out_port, cycle)``
                        switch allocation granted; the flit starts its
                        crossbar traversal this cycle
``credit(port, vc, cycle)``
                        a credit matured and was returned upstream for
                        ``(port, vc)``
``stage_enter(flit, stage, port, cycle)``
                        the flit entered a named pipeline stage
                        (``"RC"``, ``"SA"``, ``"XB"``, ``"ROW"``,
                        ``"SUB"``, ``"ST"`` — see each router's
                        ``TRACE_STAGES``) at ``cycle``; ``port`` is the
                        input port for ingress stages and the output
                        port once a destination is decided
``spec_outcome(kind, hit, port, cycle)``
                        a speculative allocation of ``kind`` (``"cva"``,
                        ``"ova"``, ``"xpva"``, ``"subva"``) resolved as
                        a hit (``hit=True``) or was killed/NACKed
``fault_inject(kind, where, cycle)``
                        the fault injector applied a fault of ``kind``
                        (``"corrupt"``, ``"credit_loss"``, ``"stuck"``,
                        ``"link_down"``) at location ``where`` (a small
                        tuple of stable indices, e.g. ``(port,)`` or
                        ``(port, vc)``)
``fault_recover(kind, where, cycle)``
                        a fault was recovered from: ``kind`` is
                        ``"retransmit"``, ``"credit_resync"``,
                        ``"unstuck"`` or ``"link_up"``
======================  ================================================

All emissions happen during the commit phase (or in externally driven
entry points such as ``accept``) — never during ``compute``, which must
stay pure.  The order-independence oracle (``tests/perturb.py``) tests
this: shuffling the computes must not move any event in the stream.
"""

from __future__ import annotations

from typing import Callable, List


class EngineHooks:
    """Callback registry for one emitter (a router or a scheduler)."""

    __slots__ = (
        "cycle_start", "cycle_end", "flit_move", "grant", "credit",
        "stage_enter", "spec_outcome", "fault_inject", "fault_recover",
    )

    def __init__(self) -> None:
        self.cycle_start: List[Callable] = []
        self.cycle_end: List[Callable] = []
        self.flit_move: List[Callable] = []
        self.grant: List[Callable] = []
        self.credit: List[Callable] = []
        self.stage_enter: List[Callable] = []
        self.spec_outcome: List[Callable] = []
        self.fault_inject: List[Callable] = []
        self.fault_recover: List[Callable] = []

    def on_cycle_start(self, fn: Callable) -> Callable:
        self.cycle_start.append(fn)
        return fn

    def on_cycle_end(self, fn: Callable) -> Callable:
        self.cycle_end.append(fn)
        return fn

    def on_flit_move(self, fn: Callable) -> Callable:
        self.flit_move.append(fn)
        return fn

    def on_grant(self, fn: Callable) -> Callable:
        self.grant.append(fn)
        return fn

    def on_credit(self, fn: Callable) -> Callable:
        self.credit.append(fn)
        return fn

    def on_stage_enter(self, fn: Callable) -> Callable:
        self.stage_enter.append(fn)
        return fn

    def on_spec_outcome(self, fn: Callable) -> Callable:
        self.spec_outcome.append(fn)
        return fn

    def on_fault_inject(self, fn: Callable) -> Callable:
        self.fault_inject.append(fn)
        return fn

    def on_fault_recover(self, fn: Callable) -> Callable:
        self.fault_recover.append(fn)
        return fn

    def emit_cycle_start(self, cycle: int) -> None:
        for fn in self.cycle_start:
            fn(cycle)

    def emit_cycle_end(self, cycle: int) -> None:
        for fn in self.cycle_end:
            fn(cycle)

    def emit_flit_move(self, kind: str, flit, port: int, cycle: int) -> None:
        for fn in self.flit_move:
            fn(kind, flit, port, cycle)

    def emit_grant(self, flit, out_port: int, cycle: int) -> None:
        for fn in self.grant:
            fn(flit, out_port, cycle)

    def emit_credit(self, port: int, vc: int, cycle: int) -> None:
        for fn in self.credit:
            fn(port, vc, cycle)

    def emit_stage_enter(self, flit, stage: str, port: int,
                         cycle: int) -> None:
        for fn in self.stage_enter:
            fn(flit, stage, port, cycle)

    def emit_spec_outcome(self, kind: str, hit: bool, port: int,
                          cycle: int) -> None:
        for fn in self.spec_outcome:
            fn(kind, hit, port, cycle)

    def emit_fault_inject(self, kind: str, where, cycle: int) -> None:
        for fn in self.fault_inject:
            fn(kind, where, cycle)

    def emit_fault_recover(self, kind: str, where, cycle: int) -> None:
        for fn in self.fault_recover:
            fn(kind, where, cycle)
