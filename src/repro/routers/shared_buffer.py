"""Buffered crossbar *without* per-VC crosspoint buffers (Section 5.4).

One approach to reducing the area of the fully buffered crossbar is a
single buffer per crosspoint shared among the VCs, cutting crosspoint
storage by a factor of v.  The catch (Section 5.4): a speculative flit
cannot be allowed to wait in the shared buffer for output VC allocation
— it would block every VC and could deadlock.  So flits are sent
speculatively while "kept in the input buffer until an ACK is received
from output VC allocation"; a flit that fails VC allocation is removed
from the crosspoint and a NACK returns to the input, which presents the
flit again later.

Protocol implemented here:

* The input launches a *copy* of the head-of-queue flit to the
  crosspoint (consuming a shared-buffer credit) and marks the VC as
  awaiting a response; the original flit stays in the input buffer.
* On arrival at the crosspoint, a head flit attempts output VC
  allocation (its input-VC class).  Success (or any body/tail flit)
  enqueues the flit and returns an ACK; the input then retires the
  original and the VC may proceed.  Failure returns a NACK and restores
  the credit; the input retries the same flit later.
* The output side is the same two-stage (crosspoint, then k-to-1
  local/global) arbitration as the fully buffered crossbar, except the
  per-crosspoint stage degenerates to the single shared FIFO head.

The repeated send/NACK cycles of a blocked head flit waste input-row
bandwidth, and input buffer slots are held until ACKs return — the
costs the paper cites for this organization.
"""

from __future__ import annotations

from itertools import chain, compress
from typing import Dict, List, Optional, Tuple

from ..allocation.switch_alloc import OutputArbiterBank
from ..core.arbiter import RoundRobinArbiter
from ..core.buffers import FlitQueue
from ..core.config import ROUTE_LATENCY, RouterConfig
from ..core.credit import CreditCounter, audit_credit_books
from ..core.flit import Flit
from ..core.pipeline import DelayLine
from .base import Router, audit_occupied

_ACK = True
_NACK = False


class SharedBufferCrossbarRouter(Router):
    """Crossbar with one shared buffer per crosspoint and ACK/NACK flow."""

    # "XB" fires at every speculative launch across the input row — a
    # NACKed head flit re-emits it on each retry — and "ST" fires when
    # the output column grants the buffered copy.
    TRACE_STAGES = ("RC", "XB", "ST")

    def __init__(self, config: RouterConfig) -> None:
        super().__init__(config)
        k = config.radix
        depth = config.crosspoint_buffer_depth
        self.crosspoints: List[List[FlitQueue]] = [
            [FlitQueue(depth) for _ in range(k)] for _ in range(k)
        ]
        self._credits: List[List[CreditCounter]] = [
            [CreditCounter(depth) for _ in range(k)] for _ in range(k)
        ]
        self._input_arb = [RoundRobinArbiter(config.num_vcs) for _ in range(k)]
        self._output_arb = OutputArbiterBank(k, k, config.local_group_size)
        # Per (input, vc): True while a launched flit awaits ACK/NACK.
        self._awaiting = [[False] * config.num_vcs for _ in range(k)]
        self._to_crosspoint: DelayLine[Tuple[Flit, int, int]] = DelayLine(
            config.flit_cycles
        )
        self._in_flight = 0
        # (input, vc, ack?) responses travelling back to the inputs.
        self._responses: DelayLine[Tuple[int, int, bool]] = DelayLine(
            config.credit_latency
        )
        self._credit_return: DelayLine[CreditCounter] = DelayLine(
            config.credit_latency
        )
        # Per output: crosspoints currently holding flits, so the
        # output stage skips the O(k) head scan of empty columns.
        self._occupied: List[set] = [set() for _ in range(k)]
        self._head_delay = ROUTE_LATENCY

    # ------------------------------------------------------------------

    def _advance(self) -> None:
        self._deliver_responses()
        self._land_crosspoint_flits()
        self._output_stage()
        self._input_stage()
        for counter in self._credit_return.pop_ready(self.cycle):
            counter.restore()

    # ------------------------------------------------------------------

    def _input_stage(self) -> None:
        now = self.cycle
        config = self.config
        fc = config.flit_cycles
        in_flits = self._in_flits
        input_busy = self.input_busy
        stuck = self._stuck_inputs
        head_delay = self._head_delay
        hooks = self.hooks
        for i in range(config.radix):
            if not in_flits[i] or not input_busy.free(i, now):
                continue
            awaiting = self._awaiting[i]
            credits = self._credits[i]
            # Head flit of each VC that may launch a copy now: not
            # wedged by a stuck-input fault, not awaiting the ACK/NACK
            # of its last copy, past its route-computation delay, and
            # holding a credit for its shared crosspoint buffer.
            sendable: Dict[int, Flit] = {}
            for vc, queue in enumerate(self.inputs[i].queues):
                q = queue._q
                if not q or awaiting[vc] or (stuck and (i, vc) in stuck):
                    continue
                flit = q[0]
                if flit.is_head and now - flit.injected_at < head_delay:
                    continue
                if credits[flit.dest].available:
                    sendable[vc] = flit
            if not sendable:
                continue
            vc = self._input_arb[i].grant(sendable)
            flit = sendable[vc]
            credits[flit.dest].consume()
            awaiting[vc] = True
            input_busy.reserve(i, now, fc)
            self._to_crosspoint.push(now, (flit, i, flit.dest))
            self._in_flight += 1
            if hooks.stage_enter:
                hooks.emit_stage_enter(flit, "XB", flit.dest, now)

    def _land_crosspoint_flits(self) -> None:
        for flit, i, j in self._to_crosspoint.pop_ready(self.cycle):
            self._in_flight -= 1
            if flit.is_head:
                state = self.output_vcs[j]
                claim = flit.vc
                ok = state.is_free(claim) or state.owner(claim) == flit.packet_id
                if not ok:
                    # NACK: the flit is dropped at the crosspoint and
                    # its credit restored; the input will retry.
                    self._credits[i][j].restore()
                    self._responses.push(self.cycle, (i, flit.vc, _NACK))
                    if self.hooks.spec_outcome:
                        self.hooks.emit_spec_outcome(
                            "xpva", False, j, self.cycle
                        )
                    continue
                state.allocate(claim, flit.packet_id)
                if self.hooks.spec_outcome:
                    self.hooks.emit_spec_outcome("xpva", True, j, self.cycle)
            flit.out_vc = flit.vc
            self.crosspoints[i][j].push(flit)
            self._occupied[j].add(i)
            self._responses.push(self.cycle, (i, flit.vc, _ACK))

    def _deliver_responses(self) -> None:
        for i, vc, ack in self._responses.pop_ready(self.cycle):
            self._awaiting[i][vc] = False
            if ack:
                # Retire the original copy held at the input.
                self.inputs[i][vc].pop()
                self._in_flits[i] -= 1

    # ------------------------------------------------------------------

    def _output_stage(self) -> None:
        now = self.cycle
        k = self.config.radix
        for j in range(k):
            if not self._occupied[j]:
                continue
            if not self.output_busy.free(j, now):
                continue
            # Sorted so request order never depends on set iteration
            # order (the occupied set holds exactly the non-empty
            # crosspoints, in place of the old full head scan).
            winner = self._output_arb.grant(
                j, [(i, False) for i in sorted(self._occupied[j])]
            )
            if winner is None:
                continue
            flit = self.crosspoints[winner][j].pop()
            if not self.crosspoints[winner][j]:
                self._occupied[j].discard(winner)
            self._start_traversal(flit, j)
            self._credit_return.push(now, self._credits[winner][j])
            if self.hooks.credit:
                self.hooks.emit_credit(winner, flit.vc, now)

    # ------------------------------------------------------------------

    def next_event(self, now: int) -> Optional[int]:
        # Credit restores still travelling back to the inputs.
        horizon = super().next_event(now)
        if horizon == now:
            return now
        due = self._credit_return.next_due()
        if due is not None and (horizon is None or due < horizon):
            horizon = due
        return horizon

    def audit(self, cycle: int, held: int = 0) -> None:
        """One walk of the k*k shared crosspoint buffers checks
        ``_occupied[j]`` and the credit books, which bound each buffer's
        depth: each counter's free credits plus the copies buffered at
        or crossing toward its buffer, plus the restores on the return
        delay line, make the buffer's depth."""
        k = self.config.radix
        lengths = [len(q._q) for row in self.crosspoints for q in row]
        buffered = sum(lengths)
        audit_occupied(self._occupied, (
            (n % k, n // k) for n in compress(range(len(lengths)), lengths)
        ), "column", cycle)
        for _flit, i, j in self._to_crosspoint.items():
            lengths[i * k + j] += 1
        audit_credit_books(
            list(chain.from_iterable(self._credits)), lengths,
            self._credit_return.items(), cycle,
            lambda n: (f"shared crosspoint ({n // k},{n % k})",
                       {"port": n // k, "output": n % k}),
        )
        super().audit(cycle, held + buffered + self._in_flight
                      + len(self._responses))

    def _conserves(self, resident: int, live: int) -> bool:
        """An original stays at its input until the ACK for its copy
        returns, so the walk counts it twice meanwhile: conservation is
        a lower bound here."""
        return resident >= live

    def _extra_occupancy(self) -> int:
        buffered = sum(len(q) for row in self.crosspoints for q in row)
        # Original flits retired on ACK are double-counted while a copy
        # is in flight or buffered; occupancy is used only as an
        # emptiness test, for which the overcount is harmless.
        return buffered + self._in_flight + len(self._responses)