"""Fully buffered crossbar: per-VC buffers at every crosspoint (Section 5).

Adding buffering at the crosspoints "decouples input and output virtual
channel and switch allocation.  This decoupling simplifies the
allocation, reduces the need for speculation, and overcomes the
performance problems of the baseline architecture" (Section 5).

Microarchitecture implemented here, following Sections 5.1-5.2:

* Each crosspoint (i, j) holds ``num_vcs`` buffers of
  ``crosspoint_buffer_depth`` flits; the buffers are associated with the
  *input* VCs, so no VC allocation is needed to reach the crosspoint —
  "in effect, the crosspoint buffers are per-output extensions of the
  input buffers".
* Input side: the input arbiter picks one ready VC whose head flit has
  a credit for its crosspoint buffer and launches it across the input
  row; the row is occupied for ``flit_cycles`` cycles and the flit
  lands in the crosspoint buffer after that traversal.  Because the
  flit is buffered at the crosspoint, it never has to re-arbitrate at
  the input after losing output arbitration.
* Output side: output VC allocation is performed in two stages — "a
  v-to-1 arbiter that selects a VC at each crosspoint followed by a
  k-to-1 arbiter that selects a crosspoint to communicate with the
  output" — with the k-to-1 stage using the same local/global
  (hierarchical) arbitration as the unbuffered switch.
* Crosspoint credits (Section 5.2): each input keeps a free-buffer
  counter per crosspoint buffer in its row; all crosspoints on a row
  share a single credit return bus with distributed round-robin
  arbitration.  ``config.ideal_credit_return`` switches to the ideal
  (immediate, dedicated-wire) credit return for the comparison the
  paper reports ("simulations show that there is minimal difference").

With sufficient crosspoint buffering this design reaches ~100% of
capacity on uniform random traffic (Figure 13) because head-of-line
blocking is eliminated; its cost is O(v·k²) buffer storage (Figure 15).
"""

from __future__ import annotations

from itertools import chain, compress
from typing import Dict, List, Optional, Set, Tuple

from ..allocation.switch_alloc import OutputArbiterBank
from ..core.arbiter import (
    BatchArbiterBank,
    BatchHierarchicalArbiterBank,
    RoundRobinArbiter,
    require_numpy,
)
from ..core.batch import (
    HAVE_NUMPY,
    ArrayBusyTracker,
    QueueArrays,
    mirror_credit_array,
    mirror_output_vcs,
    mirror_vc_bank,
)
from ..core.buffers import VcBufferBank
from ..core.config import ROUTE_LATENCY, RouterConfig
from ..core.errors import InvariantViolation, drift, invariant
from ..core.credit import (
    CreditCounter,
    CreditReturnBus,
    DelayedCreditPipe,
    audit_credit_books,
)
from ..core.flit import Flit
from ..core.pipeline import DelayLine
from .base import Router, audit_occupied

#: numpy, bound by the first router built with ``batch_hot_path``.
_np = None


class BufferedCrossbarRouter(Router):
    """Crossbar with per-VC buffers at each crosspoint (Figure 12(b)).

    The scalar stages visit only inputs, crosspoints and credit buses
    that hold something (see "Crosspoint and baseline hot path" in
    docs/architecture.md).
    """

    # "XB" fires when the flit launches across its input row toward the
    # crosspoint buffer; "ST" fires when the output column grants it.
    TRACE_STAGES = ("RC", "XB", "ST")

    def __init__(self, config: RouterConfig) -> None:
        super().__init__(config)
        k, v = config.radix, config.num_vcs
        depth = config.crosspoint_buffer_depth
        self.crosspoints: List[List[VcBufferBank]] = [
            [VcBufferBank(v, depth) for _ in range(k)] for _ in range(k)
        ]
        self._credits: List[List[List[CreditCounter]]] = [
            [[CreditCounter(depth) for _ in range(v)] for _ in range(k)]
            for _ in range(k)
        ]
        # Flat view of every crosspoint queue's deque, (i, j, vc)-major:
        # the audit walks all k*k*v of them every sanitized cycle, so
        # the walk must stay a single C-level map(len, ...).
        self._xp_flat = [
            q._q for row in self.crosspoints for bank in row
            for q in bank.queues
        ]
        self._input_arb = [RoundRobinArbiter(v) for _ in range(k)]
        self._xp_vc_arb = [
            [RoundRobinArbiter(v) for _ in range(k)] for _ in range(k)
        ]
        self._output_arb = OutputArbiterBank(k, k, config.local_group_size)
        # Flits crossing the input row toward their crosspoint.
        self._to_crosspoint: DelayLine[Tuple[Flit, int, int]] = DelayLine(
            config.flit_cycles
        )
        self._in_flight_to_xp = 0
        # Per output: the set of crosspoints currently holding flits,
        # so the output stage skips the (vast) empty majority.
        self._occupied: List[set] = [set() for _ in range(k)]
        if config.ideal_credit_return:
            self._credit_pipes: Optional[List[DelayedCreditPipe]] = [
                DelayedCreditPipe(0) for _ in range(k)
            ]
            self._credit_buses: Optional[List[CreditReturnBus]] = None
        else:
            self._credit_pipes = None
            self._credit_buses = [
                CreditReturnBus(k, config.credit_latency) for _ in range(k)
            ]
        # Rows whose bus holds a credit waiting for it or on its wire:
        # the only buses a step or next_event() need to visit.
        # Added at the post, dropped when a step leaves the bus idle.
        self._bus_live: Set[int] = set()
        self._head_delay = ROUTE_LATENCY
        self._batch = bool(config.batch_hot_path) and HAVE_NUMPY
        if self._batch:
            self._init_batch()

    def _init_batch(self) -> None:
        """Build the struct-of-arrays mirrors for the batched hot path.

        Every scalar state primitive consulted by the per-cycle
        eligibility scans is replaced (while empty/idle, at
        construction time) by a mirrored twin that keeps a shared flat
        array in sync on each mutation; see ``repro.core.batch``.  The
        scalar arbiters stay allocated but idle — the batched banks
        below hold the pointer state of record in this mode.
        """
        global _np
        _np = require_numpy()
        k, v = self.config.radix, self.config.num_vcs
        self._b_in = QueueArrays(k * v)
        for i, bank in enumerate(self.inputs):
            mirror_vc_bank(bank, self._b_in, i * v)
        self._b_xp = QueueArrays(k * k * v)
        for i, row in enumerate(self.crosspoints):
            for j, bank in enumerate(row):
                mirror_vc_bank(bank, self._b_xp, (i * k + j) * v)
        # The flat occupancy view references the replaced queues' deques.
        self._xp_flat = [
            q._q for row in self.crosspoints for bank in row
            for q in bank.queues
        ]
        self._b_cred_ok = _np.ones(k * k * v, dtype=bool)
        self._credits = [
            [
                mirror_credit_array(
                    self._credits[i][j], self._b_cred_ok, (i * k + j) * v
                )
                for j in range(k)
            ]
            for i in range(k)
        ]
        # Per-crosspoint total occupancy, so the output stage touches
        # only the (sparse) occupied crosspoints; kept in sync at the
        # landing and transmit sites.
        self._b_xp_cnt = _np.zeros(k * k, dtype=_np.int64)
        # Scatter target for per-crosspoint VC-arbitration winners;
        # only slots granted this cycle are ever read back.
        self._b_xp_vcw = _np.zeros(k * k, dtype=_np.int64)
        self._b_vc_owner = _np.full(k * v, -1, dtype=_np.int64)
        self.output_vcs = mirror_output_vcs(self.output_vcs, self._b_vc_owner)
        self.input_busy = ArrayBusyTracker(k)
        self.output_busy = ArrayBusyTracker(k)
        self._input_arb_b = BatchArbiterBank(k, v)
        self._xp_vc_arb_b = BatchArbiterBank(k * k, v)
        self._output_arb_b = BatchHierarchicalArbiterBank(
            k, k, self.config.local_group_size
        )
        # flat[i, vc] -> index of credit slot (i, dest, vc) given dest:
        # gather base + dest * v.
        self._b_cred_gather = (
            (_np.arange(k, dtype=_np.int64) * (k * v))[:, None]
            + _np.arange(v, dtype=_np.int64)[None, :]
        )
        # Persistent (output, input) request scratch for the k-to-1
        # arbitration; set/cleared around each grant_all call.
        self._b_req = _np.zeros((k, k), dtype=bool)
        # Every row bus arbitrated in one pass; its request lines are
        # the bus's waiting sources.
        self._bus_arb_b = BatchArbiterBank(k, k)

    # ------------------------------------------------------------------

    def _advance(self) -> None:
        self._land_crosspoint_flits()
        if self._batch:
            self._output_stage_batched()
            self._input_stage_batched()
        else:
            self._output_stage()
            self._input_stage()
        self._step_credit_return()

    # ------------------------------------------------------------------
    # Input row: launch flits toward their crosspoint buffers
    # ------------------------------------------------------------------

    def _input_stage(self) -> None:
        now = self.cycle
        in_flits = self._in_flits
        input_free = self.input_busy.free
        stuck = self._stuck_inputs
        head_delay = self._head_delay
        for i in range(self.config.radix):
            if not in_flits[i] or not input_free(i, now):
                continue
            queues = self.inputs[i].queues
            credits = self._credits[i]
            # Head flit of each VC that may launch now: not wedged by a
            # stuck-input fault, past its route-computation delay, and
            # holding a credit for its crosspoint buffer.
            sendable: Dict[int, Flit] = {}
            for vc, queue in enumerate(queues):
                q = queue._q
                if not q or (stuck and (i, vc) in stuck):
                    continue
                flit = q[0]
                if flit.is_head and now - flit.injected_at < head_delay:
                    continue
                if credits[flit.dest][vc].available:
                    sendable[vc] = flit
            if not sendable:
                continue
            vc = self._input_arb[i].grant(sendable)
            flit = sendable[vc]
            if queues[vc].pop() is not flit:
                raise InvariantViolation(
                    "input buffer head changed between arbitration and pop",
                    cycle=now, port=i, vc=vc, check="buffer-integrity",
                )
            self._launch(i, vc, flit, now)

    def _launch(self, i: int, vc: int, flit: Flit, now: int) -> None:
        """Send a flit popped from input (i, vc) toward its crosspoint."""
        self._in_flits[i] -= 1
        self._credits[i][flit.dest][vc].consume()
        self.input_busy.reserve(i, now, self.config.flit_cycles)
        self._to_crosspoint.push(now, (flit, i, flit.dest))
        self._in_flight_to_xp += 1
        if self.hooks.stage_enter:
            self.hooks.emit_stage_enter(flit, "XB", flit.dest, now)

    def _land_crosspoint_flits(self) -> None:
        # The batched path tracks crosspoint occupancy in _b_xp_cnt and
        # never reads the scalar _occupied sets (and vice versa), so
        # each mode maintains only its own structure.
        k = self.config.radix
        for flit, i, j in self._to_crosspoint.pop_ready(self.cycle):
            self.crosspoints[i][j][flit.vc].push(flit)
            self._in_flight_to_xp -= 1
            if self._batch:
                self._b_xp_cnt[i * k + j] += 1
            else:
                self._occupied[j].add(i)

    # ------------------------------------------------------------------
    # Output column: two-stage output VC allocation + switch arbitration
    # ------------------------------------------------------------------

    def _output_stage(self) -> None:
        now = self.cycle
        output_busy = self.output_busy
        crosspoints = self.crosspoints
        xp_vc_arb = self._xp_vc_arb
        for j, occupied in enumerate(self._occupied):
            if not occupied or not output_busy.free(j, now):
                continue
            owners = self.output_vcs[j].owners
            candidates: Dict[int, Tuple[int, Flit]] = {}
            # Sorted so candidate order (which feeds the output arbiter)
            # never depends on set iteration order.
            for i in sorted(occupied):
                # v-to-1 crosspoint arbitration among the VCs whose head
                # may proceed to output j: a body/tail flit iff its
                # packet owns the output VC, a head flit iff that VC is
                # free or already its own (crosspoint VC allocation).
                ready: Dict[int, Flit] = {}
                for vc, queue in enumerate(crosspoints[i][j].queues):
                    q = queue._q
                    if not q:
                        continue
                    flit = q[0]
                    owner = owners[flit.vc]
                    if owner == flit.packet_id or (
                        flit.is_head and owner is None
                    ):
                        ready[vc] = flit
                if not ready:
                    continue
                vc = xp_vc_arb[i][j].grant(ready)
                candidates[i] = (vc, ready[vc])
            if not candidates:
                continue
            winner = self._output_arb.grant(
                j, [(i, False) for i in candidates]
            )
            if winner is None:
                continue
            vc, flit = candidates[winner]
            self._transmit(winner, j, vc, flit)

    def _transmit(self, i: int, j: int, vc: int, flit: Flit) -> None:
        popped = self.crosspoints[i][j][vc].pop()
        invariant(popped is flit, "crosspoint buffer head changed between "
                  "arbitration and pop", cycle=self.cycle, port=i, vc=vc,
                  check="buffer-integrity")
        if self._batch:
            self._b_xp_cnt[i * self.config.radix + j] -= 1
        elif self.crosspoints[i][j].occupancy() == 0:
            self._occupied[j].discard(i)
        if flit.is_head:
            self.output_vcs[j].allocate(flit.vc, flit.packet_id)
        flit.out_vc = flit.vc
        self._start_traversal(flit, j)
        self._post_credit(i, j, vc)

    # ------------------------------------------------------------------
    # Credit return (Section 5.2)
    # ------------------------------------------------------------------

    def _post_credit(self, i: int, j: int, vc: int) -> None:
        counter = self._credits[i][j][vc]
        if self.hooks.credit:
            self.hooks.emit_credit(i, vc, self.cycle)
        if self._credit_pipes is not None:
            self._credit_pipes[i].send(self.cycle, counter.restore)
        else:
            self._credit_buses[i].post(j, counter.restore)
            self._bus_live.add(i)

    def _step_credit_return(self) -> None:
        if self._credit_pipes is not None:
            for pipe in self._credit_pipes:
                pipe.step(self.cycle)
        elif self._batch:
            self._step_credit_return_batched()
        else:
            buses = self._credit_buses
            live = self._bus_live
            # Ascending bus order (delivery order is observable through
            # fault drop hooks); an idle bus's step is a no-op.
            for i in sorted(live):
                bus = buses[i]
                bus.step(self.cycle)
                if bus.idle():
                    live.discard(i)

    # ------------------------------------------------------------------
    # Batched hot path (config.batch_hot_path)
    #
    # Stage-for-stage equivalents of the scalar methods above, operating
    # on the mirror arrays.  Equivalence rests on three facts proven in
    # docs/architecture.md: (1) an all-False arbiter row is identical to
    # skipping the scalar arbiter call (no pointer motion either way);
    # (2) input-stage grant bodies touch only row-i state, so a single
    # pre-computed eligibility matrix matches the scalar ascending-i
    # scan; (3) output-stage transmits touch only column-j state, so a
    # pre-stage mask snapshot matches the scalar ascending-j scan.
    # ------------------------------------------------------------------

    def _input_stage_batched(self) -> None:
        now = self.cycle
        k, v = self.config.radix, self.config.num_vcs
        a = self._b_in
        # Sparse over free inputs: a port stays busy for flit_cycles
        # after each launch, so at high load only a small fraction of
        # rows are candidates each cycle.  Skipped rows are all-False
        # rows for the arbiter bank (no grant, no pointer motion).
        free = _np.nonzero(self.input_busy.array <= now)[0]
        if not free.size:
            return
        sendable = a.occ.reshape(k, v)[free] > 0
        if not sendable.any():
            return
        sendable &= ~(
            a.head.reshape(k, v)[free]
            & ((now - a.inj.reshape(k, v)[free]) < self._head_delay)
        )
        # Credit gather at (i, dest, vc); stale keys of empty queues may
        # index arbitrary slots but those lanes are already masked off.
        flat = self._b_cred_gather[free] + a.key.reshape(k, v)[free] * v
        sendable &= self._b_cred_ok[flat]
        if self._stuck_inputs:
            for (i, vc) in sorted(self._stuck_inputs):
                pos = int(_np.searchsorted(free, i))
                if pos < free.size and free[pos] == i:
                    sendable[pos, vc] = False
        winners = self._input_arb_b.arbitrate_rows(free, sendable)
        for pos in _np.nonzero(winners >= 0)[0].tolist():
            i = int(free[pos])
            vc = int(winners[pos])
            self._launch(i, vc, self.inputs[i].queues[vc].pop(), now)

    def _output_stage_batched(self) -> None:
        now = self.cycle
        k, v = self.config.radix, self.config.num_vcs
        # Sparse row extraction: only occupied crosspoints whose output
        # column is free this cycle get VC-arbitrated, which matches
        # the scalar _occupied[j] / output-busy skip exactly (skipped
        # rows are all-False rows: no grant, no pointer motion).
        rows = _np.nonzero(self._b_xp_cnt)[0]
        if not rows.size:
            return
        j_rows = rows % k
        mask = self.output_busy.array[j_rows] <= now
        rows = rows[mask]
        if not rows.size:
            return
        j_rows = j_rows[mask]
        a = self._b_xp
        occ2 = a.occ.reshape(k * k, v)
        head2 = a.head.reshape(k * k, v)
        pid2 = a.pid.reshape(k * k, v)
        own_s = self._b_vc_owner.reshape(k, v)[j_rows]
        # The scalar ready test per (row, vc): body/tail flits need
        # ownership, head flits ownership or a free output VC.
        ready = (occ2[rows] > 0) & (
            (pid2[rows] == own_s) | (head2[rows] & (own_s < 0))
        )
        vcw = self._xp_vc_arb_b.arbitrate_rows(rows, ready)
        hit = _np.nonzero(vcw >= 0)[0]
        if not hit.size:
            return
        grows = rows[hit]
        self._b_xp_vcw[grows] = vcw[hit]
        requests = self._b_req
        gj, gi = grows % k, grows // k
        requests[gj, gi] = True
        winners = self._output_arb_b.grant_all(requests)
        requests[gj, gi] = False
        vcw_all = self._b_xp_vcw
        for j in _np.nonzero(winners >= 0)[0].tolist():
            i = int(winners[j])
            vc = int(vcw_all[i * k + j])
            flit = self.crosspoints[i][j][vc].head()
            invariant(flit is not None, "batched crosspoint arbitration "
                      "granted an empty VC", cycle=now, port=i, vc=vc,
                      check="arbitration")
            self._transmit(i, j, vc, flit)

    def _step_credit_return_batched(self) -> None:
        now = self.cycle
        buses = self._credit_buses
        live = self._bus_live
        # Ascending bus order matches the scalar loop (delivery order
        # is observable through fault drop hooks); only live buses have
        # anything to grant or deliver, and only those with a waiting
        # credit a grant to hand out.
        order = sorted(live)
        rows = [i for i in order if buses[i]._waiting]
        win = {}
        if rows:
            k = self.config.radix
            requests = _np.zeros((len(rows), k), dtype=bool)
            requests.flat[[
                r * k + s for r, i in enumerate(rows)
                for s in sorted(buses[i]._waiting)
            ]] = True
            granted = self._bus_arb_b.arbitrate_rows(_np.array(rows), requests)
            win = dict(zip(rows, granted.tolist()))
        for i in order:
            bus = buses[i]
            if i in win:
                bus.grant_to(win[i], now)
            bus.deliver(now)
            if bus.idle():
                live.discard(i)

    # ------------------------------------------------------------------

    def next_event(self, now: int) -> Optional[int]:
        # Delayed credit returns must keep the clock running even when
        # no flit is resident, or the restore callbacks never mature.
        horizon = super().next_event(now)
        if horizon == now:
            return now
        if self._credit_pipes is not None:
            for pipe in self._credit_pipes:
                due = pipe.next_due()
                if due is not None and (horizon is None or due < horizon):
                    horizon = due
        elif self._credit_buses is not None:
            for i in sorted(self._bus_live):
                due = self._credit_buses[i].next_due(now)
                if due is not None and (horizon is None or due < horizon):
                    horizon = due
        return horizon

    def audit(self, cycle: int, held: int = 0) -> None:
        """One walk of the k*k*v crosspoint queues checks
        ``_occupied[j]`` (the array twin counts in ``_b_xp_cnt``
        instead) and the credit books, which bound each queue's depth:
        each counter's free credits plus the flits buffered at or
        crossing toward its buffer, plus the credits on their way back,
        make the buffer's depth.  The buses' own queues check each
        ``_waiting`` and ``_bus_live``."""
        k, v = self.config.radix, self.config.num_vcs
        lengths = list(map(len, self._xp_flat))
        buffered = sum(lengths)
        if not self._batch:
            audit_occupied(self._occupied, (
                (n // v % k, n // v // k)
                for n in compress(range(len(lengths)), lengths)
            ), "column", cycle)
        for flit, i, j in self._to_crosspoint.items():
            lengths[(i * k + j) * v + flit.vc] += 1
        owed = self._injected_credits()
        if self._credit_pipes is not None:
            for pipe in self._credit_pipes:
                owed.extend(sink.__self__ for sink in pipe.pending_sinks())
        else:
            live = set()
            for i, bus in enumerate(self._credit_buses):
                waiting = set(compress(range(k), bus._pending))
                if bus._waiting != waiting:
                    raise drift(f"credit bus {i} _waiting",
                                sorted(bus._waiting), sorted(waiting),
                                "its queues", cycle)
                if waiting or bus._pipe.pending():
                    live.add(i)
                    owed.extend(sink.__self__ for sink in bus.pending_sinks())
            if self._bus_live != live:
                raise drift("_bus_live", sorted(self._bus_live),
                            sorted(live), "the credit buses", cycle)
        audit_credit_books(
            list(chain.from_iterable(chain.from_iterable(self._credits))),
            lengths, owed, cycle,
            lambda n: (f"crosspoint ({n // v // k},{n // v % k})",
                       {"port": n // v // k, "output": n // v % k,
                        "vc": n % v}),
        )
        super().audit(cycle, held + buffered + self._in_flight_to_xp)

    def _extra_occupancy(self) -> int:
        return sum(map(len, self._xp_flat)) + self._in_flight_to_xp
