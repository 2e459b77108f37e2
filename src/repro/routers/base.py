"""Common scaffolding for the single-router (switch-level) models.

All four switch organizations evaluated in the paper — the low-radix
centralized baseline, the high-radix distributed-allocator baseline,
the fully buffered crossbar, and the hierarchical crossbar — share the
same external contract:

* flits enter per-VC input buffers via :meth:`Router.accept` (guarded
  by :meth:`Router.input_space`, which upstream logic treats as a
  credit count);
* :meth:`Router.step` advances one clock cycle;
* flits that complete switch traversal appear in :attr:`Router.ejected`
  as ``(flit, eject_cycle)`` pairs, which the harness drains.

Routers are :class:`repro.engine.Component` objects: a cycle is an
explicit ``compute`` phase (stage matured pipeline entries; commits
nothing) followed by a ``commit`` phase (apply the staged ejections and
VC releases, then run the organization-specific datapath via
``_advance``).  :meth:`Router.step` composes the two phases for
standalone use; the harness drives routers through a
:class:`repro.engine.Scheduler` instead, which sleeps or parks empty
routers (see :meth:`Router.next_event`).

Timing convention: a grant at cycle ``t`` occupies the granted input
and output resources for ``config.flit_cycles`` cycles (the paper's
four-cycle switch traversal) and the flit is ejected at
``t + flit_cycles``.  Output virtual channels are owned from the head
flit's allocation until the tail flit finishes traversal, at which
point the VC is freed for the next packet ("upon the transmission of
the tail flit ... the virtual channel is freed").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.buffers import VcBufferBank, audit_bounds, bank_lengths, per_bank
from ..core.config import RouterConfig
from ..core.errors import InvariantViolation, drift
from ..core.flit import Flit
from ..core.pipeline import BusyTracker, DelayLine
from ..core.vcstate import OutputVcState
from ..engine.component import Component
from ..engine.hooks import EngineHooks


@dataclass
class RouterStats:
    """Event counters accumulated over a simulation run.

    ``flits_accepted`` / ``flits_ejected`` are what parking and the
    conservation audit read; ``extra`` holds the named counters (faults,
    trace) folded into a run's ``stats.*`` extras.  Allocation outcomes
    are not counted here: they are ``grant`` and ``spec_outcome`` hook
    events.
    """

    flits_accepted: int = 0
    flits_ejected: int = 0
    extra: Dict[str, int] = field(default_factory=dict)

    def bump(self, name: str, amount: int = 1) -> None:
        """Increment a named ad-hoc counter."""
        self.extra[name] = self.extra.get(name, 0) + amount


def audit_occupied(occupied: List[Set[int]], cells: Iterable[Tuple[int, int]],
                   walk: str, cycle: int) -> None:
    """``occupied[a]``, which a stage visits instead of walking ``walk``
    ``a``, must name exactly the ``b`` of every non-empty cell ``(a, b)``
    the audit's walk found."""
    walked: List[Set[int]] = [set() for _ in occupied]
    for a, b in cells:
        walked[a].add(b)
    if occupied != walked:
        a = next(a for a, found in enumerate(walked) if occupied[a] != found)
        raise drift(f"_occupied[{a}]", sorted(occupied[a]), sorted(walked[a]),
                    f"{walk} {a}", cycle)


class Router(Component):
    """Base class: per-VC input buffers, ejection pipeline, VC ledgers."""

    #: Observable pipeline stages, in traversal order, as emitted on the
    #: ``stage_enter`` hook.  ``"RC"`` fires on :meth:`accept` (route
    #: computation begins when the flit arrives) and ``"ST"`` fires when
    #: switch traversal starts (:meth:`_start_traversal`); organizations
    #: with intermediate stages extend this tuple and add emission
    #: points of their own.
    TRACE_STAGES: Tuple[str, ...] = ("RC", "ST")

    def __init__(self, config: RouterConfig) -> None:
        self.config = config
        self.cycle = 0
        self.hooks = EngineHooks()
        k, v = config.radix, config.num_vcs
        self.inputs: List[VcBufferBank] = [
            VcBufferBank(v, config.input_buffer_depth) for _ in range(k)
        ]
        self.output_vcs: List[OutputVcState] = [OutputVcState(v) for _ in range(k)]
        self.input_busy = BusyTracker(k)
        self.output_busy = BusyTracker(k)
        self.stats = RouterStats()
        self.ejected: List[Tuple[Flit, int]] = []
        # Flits in flight across the switch: (flit, out_port) maturing
        # at grant_cycle + flit_cycles.
        self._ejecting: DelayLine[Tuple[Flit, int]] = DelayLine(config.flit_cycles)
        # Output VC releases pending tail-flit traversal completion.
        self._vc_release: DelayLine[Tuple[int, int, int]] = DelayLine(
            config.flit_cycles
        )
        # Flits buffered per input bank: +1 in ``accept``, -1 at each
        # organization's one input pop.  Arbitration loops skip inputs
        # whose count is zero — behavior-neutral because an empty bank
        # yields no candidates and the arbiters never advance their
        # pointers on an empty request set — and the harness reads a
        # count equal to the bank's capacity as "no VC has room".
        self._in_flits: List[int] = [0] * k
        self._staged_ejects: Sequence[Tuple[Flit, int]] = ()
        self._staged_releases: Sequence[Tuple[int, int, int]] = ()
        # Fault machinery (repro.faults): wedged input read ports, and
        # the injector handle the credit audits consult for lost-credit
        # accounting.  Both stay inert unless a FaultPlan is attached.
        self._stuck_inputs: set = set()
        self.fault_injector = None

    # ------------------------------------------------------------------
    # External interface
    # ------------------------------------------------------------------

    def input_space(self, port: int, vc: int) -> int:
        """Free slots in input buffer (port, vc): the upstream credit count."""
        return self.inputs[port][vc].free_slots

    def accept(self, port: int, flit: Flit) -> None:
        """Deliver a flit into input buffer (port, flit.vc).

        The caller must have checked :meth:`input_space`; overflowing
        raises (credit protocol violation).
        """
        flit.injected_at = self.cycle
        self.inputs[port].queues[flit.vc].push(flit)
        self.stats.flits_accepted += 1
        self._in_flits[port] += 1
        if self.hooks.flit_move:
            self.hooks.emit_flit_move("accept", flit, port, self.cycle)
        if self.hooks.stage_enter:
            self.hooks.emit_stage_enter(flit, "RC", port, self.cycle)

    def compute(self, cycle: int) -> None:
        """Phase 1: collect pipeline entries maturing this cycle."""
        self.cycle = cycle
        self._staged_ejects = self._ejecting.pop_ready(cycle)
        self._staged_releases = self._vc_release.pop_ready(cycle)

    def commit(self, cycle: int) -> None:
        """Phase 2: apply staged ejections/releases, run the datapath."""
        hooks = self.hooks
        for flit, out_port in self._staged_ejects:
            self.ejected.append((flit, cycle))
            self.stats.flits_ejected += 1
            if hooks.flit_move:
                hooks.emit_flit_move("eject", flit, out_port, cycle)
        for out, vc, pid in self._staged_releases:
            self.output_vcs[out].release(vc, pid)
        self._staged_ejects = ()
        self._staged_releases = ()
        self._advance()
        self.cycle = cycle + 1

    def next_event(self, now: int) -> Optional[int]:
        """The parking probe: ``now`` while flits are resident, else the
        earliest cycle a delayed mechanism matures (None with nothing
        pending).

        Resident flits are counted in O(1) by conservation — every
        flit enters through :meth:`accept` and leaves the datapath
        when its ejection commits — rather than via the O(buffers)
        :meth:`occupancy` scan, since this runs every commit.  An empty
        router's datapath is a no-op, so it sleeps until its next VC
        release.  Organizations with extra delayed machinery (credit
        pipes, ...) extend this.  Pure read (``tests/perturb.py``
        over-polls it); see :meth:`repro.engine.Component.next_event`.
        """
        stats = self.stats
        if stats.flits_accepted > stats.flits_ejected:
            return now
        horizon: Optional[int] = None
        for due in (self._ejecting.next_due(), self._vc_release.next_due()):
            if due is not None and (horizon is None or due < horizon):
                horizon = due
        return horizon

    def drain_ejected(self) -> List[Tuple[Flit, int]]:
        """Return and clear the flits delivered since the last drain."""
        out = self.ejected
        self.ejected = []
        return out

    def occupancy(self) -> int:
        """Flits resident anywhere inside the router."""
        buffered = sum(bank.occupancy() for bank in self.inputs)
        return buffered + len(self._ejecting) + self._extra_occupancy()

    def idle(self) -> bool:
        """True when no flit is buffered or in flight inside the router."""
        return self.occupancy() == 0

    # ------------------------------------------------------------------
    # Audit (run every cycle by repro.analysis.SimSanitizer)
    # ------------------------------------------------------------------

    def audit(self, cycle: int, held: int = 0) -> None:
        """Check the router's books against one walk of its buffers.

        Raises :class:`~repro.core.errors.InvariantViolation` when an
        input queue holds more than its depth (``buffer-bounds``), when
        the flits accepted and not yet ejected are not the flits
        resident (``flit-conservation``: the input banks, the switch
        traversal, and ``held``) or when ``_in_flits`` drifts from the
        walk (``occupancy-index``).  Reads only.

        An organization with storage or an index of its own overrides
        this beside them: one walk of its storage checks their bounds,
        credits and indices, then ``super().audit`` gets the flits found
        added to ``held``.
        """
        v = self.config.num_vcs
        lengths = bank_lengths(self.inputs)
        audit_bounds(lengths, self.config.input_buffer_depth, cycle,
                     lambda n: (f"input buffer [{n // v}]", n // v, n % v))
        in_flits = per_bank(lengths, v)
        stats = self.stats
        live = stats.flits_accepted - stats.flits_ejected
        resident = sum(in_flits) + len(self._ejecting) + held
        if not self._conserves(resident, live):
            raise InvariantViolation(
                f"flit conservation violated: {live} flits accepted and "
                f"not ejected, {resident} resident in the router",
                cycle=cycle, check="flit-conservation",
                accepted=stats.flits_accepted, ejected=stats.flits_ejected,
                occupancy=resident,
            )
        if self._in_flits != in_flits:
            raise drift("_in_flits", self._in_flits, in_flits,
                        "the input banks", cycle)

    def _conserves(self, resident: int, live: int) -> bool:
        """Flit conservation: each live flit is resident exactly once."""
        return resident == live

    def _injected_credits(self) -> List:
        """Counters owed a credit a fault injector holds for resync: an
        injected loss leaves the counter short while the flit is long
        gone, so the credit audits count the injector's ledger as in
        flight (a real leak still trips them)."""
        if self.fault_injector is None:
            return []
        return [sink.__self__
                for sink in self.fault_injector.pending_credit_sinks()]

    # ------------------------------------------------------------------
    # Fault support (repro.faults)
    # ------------------------------------------------------------------

    def stick_input(self, port: int, vc: Optional[int] = None) -> None:
        """Wedge the read port of input buffer (port, vc): its flits
        stop draining until :meth:`unstick_input`.  ``vc=None`` wedges
        every VC of the port.  Flits stay buffered (and counted), so
        conservation invariants are unaffected."""
        vcs = range(self.config.num_vcs) if vc is None else (vc,)
        for v in vcs:
            self._stuck_inputs.add((port, v))

    def unstick_input(self, port: int, vc: Optional[int] = None) -> None:
        """Clear a :meth:`stick_input` fault."""
        vcs = range(self.config.num_vcs) if vc is None else (vc,)
        for v in vcs:
            self._stuck_inputs.discard((port, v))

    # ------------------------------------------------------------------
    # Shared mechanics for subclasses
    # ------------------------------------------------------------------

    def _start_traversal(
        self, flit: Flit, out_port: int, start: Optional[int] = None
    ) -> None:
        """Begin switch traversal of ``flit`` toward ``out_port``.

        Reserves the output for ``flit_cycles`` (from ``start``, which
        defaults to the current cycle) and schedules ejection; tail
        flits also schedule the output-VC release.  Subclasses reserve
        input-side resources themselves (the input row for the
        crossbar models, the column bus for the hierarchical model).
        """
        fc = self.config.flit_cycles
        begin = self.cycle if start is None else start
        self.output_busy.extend(out_port, begin + fc)
        self._ejecting.push_at(begin + fc, (flit, out_port))
        if flit.is_tail and flit.out_vc is not None:
            self._vc_release.push_at(
                begin + fc, (out_port, flit.out_vc, flit.packet_id)
            )
        if self.hooks.grant:
            self.hooks.emit_grant(flit, out_port, self.cycle)
        if self.hooks.stage_enter:
            # Stamped at ``begin``, not the grant cycle: with an extra
            # grant delay (OVA) the wires are crossed starting at
            # ``begin`` and the stage span must reflect that.
            self.hooks.emit_stage_enter(flit, "ST", out_port, begin)

    def _extra_occupancy(self) -> int:
        """Flits held in architecture-specific structures (overridden)."""
        return 0

    def _advance(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Introspection / debugging
    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        cfg = self.config
        return (
            f"<{type(self).__name__} k={cfg.radix} v={cfg.num_vcs} "
            f"cycle={self.cycle} occupancy={self.occupancy()}>"
        )
