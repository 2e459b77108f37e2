"""Hierarchical crossbar: the paper's proposed architecture (Section 6).

The k×k crossbar is divided into (k/p)^2 p×p *subswitches*, and only
the inputs and outputs of each subswitch are buffered (Figure 16).
Input i connects to the row of subswitches r = i // p; output j is fed
by the column of subswitches c = j // p.  Buffer area grows as
O(v·k²/p) instead of the fully buffered crossbar's O(v·k²), giving the
40% area saving reported for k=64, p=8 while retaining most of the
performance (Figure 17).

Buffering and allocation discipline (Section 6):

* **Subswitch input buffers** are allocated per *input* VC, so — as in
  the fully buffered crossbar — no VC allocation is needed for a flit
  to reach the subswitch, and flits never need to be NACKed.
* **Subswitch output buffers** are allocated per *output* VC.  VC
  allocation is therefore split into a *local* allocation within the
  subswitch (acquiring a writer slot on the subswitch output buffer for
  the packet's output VC, kept contiguous per packet) and a *global*
  allocation among the subswitches of a column (ownership of the
  actual output VC, acquired when the head flit leaves the subswitch
  output buffer).
* The subswitch itself is a p×p unbuffered crossbar with per-lane
  round-robin input and output arbiters; the output port arbitrates
  round-robin among the k/p subswitch output buffers of its column.

Timing: the input row bus, the subswitch datapath, and the output
column each carry one flit per ``flit_cycles`` cycles, matching the
switch-traversal serialization of the other models.  Credits for the
subswitch input buffers return to the input over a fixed-latency pipe.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Tuple

from ..core.arbiter import RoundRobinArbiter
from ..core.buffers import VcBufferBank, audit_bounds, bank_lengths, per_bank
from ..core.config import ROUTE_LATENCY, RouterConfig
from ..core.credit import (
    CreditCounter,
    DelayedCreditPipe,
    audit_credit_books,
)
from ..core.errors import InvariantViolation, drift
from ..core.flit import Flit
from ..core.pipeline import BusyTracker, DelayLine
from .base import Router


class _Subswitch:
    """One p×p subswitch with buffered inputs and outputs."""

    def __init__(self, config: RouterConfig, row: int, col: int) -> None:
        p, v = config.subswitch_size, config.num_vcs
        self.config = config
        self.row = row
        self.col = col
        self.in_bufs = [VcBufferBank(v, config.subswitch_in_depth) for _ in range(p)]
        self.out_bufs = [VcBufferBank(v, config.subswitch_out_depth) for _ in range(p)]
        self.in_arb = [RoundRobinArbiter(v) for _ in range(p)]
        self.out_arb = [RoundRobinArbiter(p) for _ in range(p)]
        self.in_busy = BusyTracker(p)
        self.out_lane_busy = BusyTracker(p)
        # Writer lock per (local output lane, out VC): packet id that may
        # currently append flits — the *local* VC allocation.
        self.writer: Dict[Tuple[int, int], int] = {}
        # Occupancy indices, maintained by the router at every push and
        # pop (see HierarchicalCrossbarRouter): flits buffered per input
        # lane, per output lane, and over all input lanes together.
        self.in_count = [0] * p
        self.out_count = [0] * p
        self.in_total = 0

    def occupancy(self) -> int:
        """Flits buffered in the subswitch, counted by walking the queues.

        Deliberately ignores the occupancy indices: the tests use this
        walk as their independent oracle (the router's ``audit`` makes
        its own, one walk of every subswitch at once).  Flits crossing
        the subswitch are on the router's ``_crossing`` line.
        """
        buffered = sum(b.occupancy() for b in self.in_bufs)
        return buffered + sum(b.occupancy() for b in self.out_bufs)


class HierarchicalCrossbarRouter(Router):
    """k×k crossbar built from (k/p)^2 buffered p×p subswitches.

    Hot path.  On uniform traffic each subswitch sees only load·p/k, so
    most boundary buffers are empty most of the time; the four commit
    stages therefore walk *occupancy indices* instead of the buffers:

    * ``sub.in_count[li]`` / ``sub.out_count[lo]`` — flits in one
      subswitch input / output lane (all VCs);
    * ``sub.in_total`` — flits in all input lanes of one subswitch;
    * ``_port_rows[j]`` — a bitmask of the subswitch rows whose output
      lane ``j % p`` in output ``j``'s column holds flits.

    Each is updated at the single push or pop that changes it (the
    landings of :meth:`_land_flits`, the pops of
    :meth:`_subswitch_stage` and :meth:`_output_stage`) and is checked
    against the walked queues by :meth:`audit`, which
    :class:`~repro.analysis.sanitizer.SimSanitizer` runs every cycle.
    The two wires are one router-level delay line each: ``_to_sub``
    (the input row buses) and ``_crossing`` (every subswitch's
    datapath).  Their latency is fixed, so each cycle lands, in push
    order, what one earlier stage sent — row-major subswitch order for
    ``_crossing``.

    Skip rule: a probe is skipped only when its index is zero — when
    the structure holds no flit, so probing it would have yielded no
    candidate, advanced no arbiter pointer and emitted no hook event.
    Every probe of a non-empty structure still runs, in row-major
    subswitch, then lane, then VC order, which keeps results,
    ``stats.*`` extras and trace bytes independent of the indices.
    Each probe reads the deque head (and the busy times)
    directly and the heads that pass go to ``RoundRobinArbiter.grant``
    as a ``{line: candidate}`` dict: a visit costs the requesters it
    finds, not the arbiter's width (only the contested output-port pick
    stays dense).
    """

    # "ROW" fires when the flit launches across the input row bus
    # toward its subswitch, "SUB" when it crosses the p×p subswitch
    # toward an output buffer, and "ST" at the final output-port grant.
    TRACE_STAGES = ("RC", "ROW", "SUB", "ST")

    def __init__(self, config: RouterConfig) -> None:
        super().__init__(config)
        k, v = config.radix, config.num_vcs
        s = config.num_subswitches_per_side
        self.num_sub = s
        self.sub: List[List[_Subswitch]] = [
            [_Subswitch(config, r, c) for c in range(s)] for r in range(s)
        ]
        self._input_arb = [RoundRobinArbiter(v) for _ in range(k)]
        # Output port arbiters: one per output, across the s subswitch
        # output buffers of its column.
        self._port_arb = [RoundRobinArbiter(s) for _ in range(k)]
        # Per-output-port VC pick arbiters used at the final stage.
        self._port_vc_arb = [
            [RoundRobinArbiter(v) for _ in range(s)] for _ in range(k)
        ]
        # Credits at input i for subswitch input buffer (col, vc).
        self._in_credits: List[List[List[CreditCounter]]] = [
            [
                [CreditCounter(config.subswitch_in_depth) for _ in range(v)]
                for _ in range(s)
            ]
            for _ in range(k)
        ]
        self._credit_pipe = DelayedCreditPipe(config.credit_latency)
        # Router-level occupancy index (see the class docstring).
        self._port_rows = [0] * k
        # Flits crossing the input row bus toward a subswitch input
        # buffer, and flits crossing a subswitch toward output lane lo.
        self._to_sub: DelayLine[Tuple[Flit, int, int]] = DelayLine(
            config.flit_cycles
        )
        self._crossing: DelayLine[Tuple[Flit, _Subswitch, int]] = DelayLine(
            config.flit_cycles
        )
        self._head_delay = ROUTE_LATENCY

    # ------------------------------------------------------------------

    def _advance(self) -> None:
        self._land_flits()
        self._output_stage()
        self._subswitch_stage()
        self._input_stage()
        self._credit_pipe.step(self.cycle)

    # ------------------------------------------------------------------
    # Stage 1: input row bus into subswitch input buffers
    # ------------------------------------------------------------------

    def _input_stage(self) -> None:
        now = self.cycle
        config = self.config
        p, fc = config.subswitch_size, config.flit_cycles
        in_flits = self._in_flits
        busy_until = self.input_busy._busy_until
        stuck = self._stuck_inputs
        head_delay = self._head_delay
        inputs, in_credits = self.inputs, self._in_credits
        input_arb, to_sub = self._input_arb, self._to_sub
        hooks = self.hooks
        for i in range(config.radix):
            if not in_flits[i] or busy_until[i] > now:
                continue
            queues = inputs[i].queues
            credits = in_credits[i]
            # Head flit of each VC that may launch now: not wedged by a
            # stuck-input fault, past its route-computation delay, and
            # holding a credit for its subswitch input buffer.
            sendable: Dict[int, Flit] = {}
            for vc, queue in enumerate(queues):
                q = queue._q
                if not q or (stuck and (i, vc) in stuck):
                    continue
                flit = q[0]
                if flit.is_head and now - flit.injected_at < head_delay:
                    continue
                if credits[flit.dest // p][vc].available:
                    sendable[vc] = flit
            if not sendable:
                continue
            vc = input_arb[i].grant(sendable)
            flit = sendable[vc]
            col = flit.dest // p
            if queues[vc]._q.popleft() is not flit:
                raise InvariantViolation(
                    "input buffer head changed between arbitration and pop",
                    cycle=now, port=i, vc=vc, check="buffer-integrity",
                )
            in_flits[i] -= 1
            credits[col][vc].consume()
            busy_until[i] = now + fc
            to_sub.push(now, (flit, i, col))
            if hooks.stage_enter:
                hooks.emit_stage_enter(flit, "ROW", i, now)

    def _land_flits(self) -> None:
        # A full queue goes through push(), which raises the
        # credit-protocol overflow.
        now = self.cycle
        p = self.config.subswitch_size
        subs = self.sub
        for flit, i, col in self._to_sub.pop_ready(now):
            sub = subs[i // p][col]
            li = i % p
            queue = sub.in_bufs[li].queues[flit.vc]
            if len(queue._q) < queue.maxlen:
                queue._q.append(flit)
            else:
                queue.push(flit)
            sub.in_count[li] += 1
            sub.in_total += 1
        port_rows = self._port_rows
        for flit, sub, lo in self._crossing.pop_ready(now):
            queue = sub.out_bufs[lo].queues[flit.out_vc]
            if len(queue._q) < queue.maxlen:
                queue._q.append(flit)
            else:
                queue.push(flit)
            sub.out_count[lo] += 1
            port_rows[sub.col * p + lo] |= 1 << sub.row

    # ------------------------------------------------------------------
    # Stage 2: p×p subswitch traversal with local VC allocation
    # ------------------------------------------------------------------

    def _subswitch_stage(self) -> None:
        now = self.cycle
        config = self.config
        p, fc = config.subswitch_size, config.flit_cycles
        hooks = self.hooks
        in_credits, credit_pipe = self._in_credits, self._credit_pipe
        crossing = self._crossing
        for row in self.sub:
            for sub in row:
                if not sub.in_total:
                    continue
                in_count = sub.in_count
                in_busy = sub.in_busy._busy_until
                in_bufs, out_bufs = sub.in_bufs, sub.out_bufs
                writers = sub.writer
                # Local input arbitration: one candidate per subswitch
                # input lane, grouped by requested output lane in
                # first-request order.
                requests: Dict[int, Dict[int, Tuple[int, Flit]]] = {}
                for li in range(p):
                    if not in_count[li] or in_busy[li] > now:
                        continue
                    # Head flit of each VC that can cross now.
                    cands: Dict[int, Flit] = {}
                    for vc, queue in enumerate(in_bufs[li].queues):
                        q = queue._q
                        if not q:
                            continue
                        flit = q[0]
                        lo = flit.dest % p
                        out_vc = flit.vc  # identity VC mapping, as at the input stage
                        out_queue = out_bufs[lo].queues[out_vc]
                        if len(out_queue._q) >= out_queue.maxlen:
                            continue
                        writer = writers.get((lo, out_vc))
                        if flit.is_head:
                            # Local VC allocation: the output buffer must
                            # not be held open by another packet.
                            if writer is not None and writer != flit.packet_id:
                                if hooks.spec_outcome:
                                    hooks.emit_spec_outcome(
                                        "subva", False, flit.dest, now
                                    )
                                continue
                        elif writer != flit.packet_id:
                            continue
                        cands[vc] = flit
                    if not cands:
                        continue
                    vc = sub.in_arb[li].grant(cands)
                    flit = cands[vc]
                    lo = flit.dest % p
                    wanted = requests.get(lo)
                    if wanted is None:
                        requests[lo] = {li: (vc, flit)}
                    else:
                        wanted[li] = (vc, flit)
                # Local output arbitration per subswitch output lane; the
                # winner crosses toward its output buffer.
                out_busy = sub.out_lane_busy._busy_until
                for lo, wanted in requests.items():
                    if out_busy[lo] > now:
                        continue
                    li = sub.out_arb[lo].grant(wanted)
                    vc, flit = wanted[li]
                    if in_bufs[li].queues[vc]._q.popleft() is not flit:
                        raise InvariantViolation(
                            "subswitch input buffer head changed before pop",
                            cycle=now, vc=vc, check="buffer-integrity",
                        )
                    in_count[li] -= 1
                    sub.in_total -= 1
                    out_vc = flit.vc
                    flit.out_vc = out_vc
                    if flit.is_head:
                        writers[(lo, out_vc)] = flit.packet_id
                        if hooks.spec_outcome:
                            hooks.emit_spec_outcome("subva", True, flit.dest, now)
                    if flit.is_tail:
                        writers.pop((lo, out_vc), None)
                    in_busy[li] = now + fc
                    out_busy[lo] = now + fc
                    crossing.push(now, (flit, sub, lo))
                    if hooks.stage_enter:
                        hooks.emit_stage_enter(flit, "SUB", flit.dest, now)
                    # The subswitch input buffer slot is free: return the
                    # credit.
                    i = sub.row * p + li
                    credit_pipe.send(now, in_credits[i][sub.col][vc].restore)
                    if hooks.credit:
                        hooks.emit_credit(i, vc, now)

    # ------------------------------------------------------------------
    # Stage 3: output port pulls from its column's output buffers
    # ------------------------------------------------------------------

    def _output_stage(self) -> None:
        now = self.cycle
        p, s = self.config.subswitch_size, self.num_sub
        port_rows = self._port_rows
        busy_until = self.output_busy._busy_until
        subs, output_vcs = self.sub, self.output_vcs
        for j in range(self.config.radix):
            rows = port_rows[j]
            if not rows or busy_until[j] > now:
                continue
            c, lo = divmod(j, p)
            owners = output_vcs[j].owners
            vc_arbs = self._port_vc_arb[j]
            # One candidate (vc, flit) per subswitch of the column whose
            # output lane holds a head that passes the global VC
            # allocation check at output j (among subswitches).
            cands: Dict[int, Tuple[int, Flit]] = {}
            requests = [False] * s
            r = 0
            while rows:
                if rows & 1:
                    ready: Dict[int, Flit] = {}
                    for vc, queue in enumerate(subs[r][c].out_bufs[lo].queues):
                        q = queue._q
                        if not q:
                            continue
                        flit = q[0]
                        out_vc = flit.out_vc
                        if out_vc is None:
                            raise InvariantViolation(
                                "flit reached global VC check without a "
                                "local VC assignment",
                                port=j, check="vc-ownership",
                            )
                        owner = owners[out_vc]
                        if owner == flit.packet_id or (
                            flit.is_head and owner is None
                        ):
                            ready[vc] = flit
                    if ready:
                        vc = vc_arbs[r].grant(ready)
                        cands[r] = (vc, ready[vc])
                        requests[r] = True
                rows >>= 1
                r += 1
            if not cands:
                continue
            r = self._port_arb[j].arbitrate(requests)  # dense: ~3 of s up
            vc, flit = cands[r]
            sub = subs[r][c]
            if sub.out_bufs[lo].queues[vc]._q.popleft() is not flit:
                raise InvariantViolation(
                    "subswitch output buffer head changed before pop",
                    cycle=now, port=j, vc=vc, check="buffer-integrity",
                )
            out_count = sub.out_count
            out_count[lo] -= 1
            if not out_count[lo]:
                port_rows[j] &= ~(1 << r)
            if flit.is_head:
                output_vcs[j].allocate(flit.out_vc, flit.packet_id)
            self._start_traversal(flit, j)

    # ------------------------------------------------------------------

    def next_event(self, now: int) -> Optional[int]:
        # Subswitch-input credits still in the return pipe keep the
        # clock running.
        horizon = super().next_event(now)
        if horizon == now:
            return now
        due = self._credit_pipe.next_due()
        if due is not None and (horizon is None or due < horizon):
            horizon = due
        return horizon

    def audit(self, cycle: int, held: int = 0) -> None:
        """One walk of every subswitch lane checks its depth, the
        occupancy indices above and the credit books of the subswitch
        input buffers: each counter's free credits plus the flits
        buffered at or crossing the row toward its buffer, plus the
        credits on the return pipe, make the buffer's depth."""
        config = self.config
        k, p, s, v = config.radix, config.subswitch_size, self.num_sub, config.num_vcs
        subs = list(chain.from_iterable(self.sub))

        def agree(what: str, index, walked) -> None:
            if index != walked:
                n = next(n for n, found in enumerate(walked) if index[n] != found)
                raise drift(f"{what}[{n}]", index[n], walked[n],
                            "the subswitches", cycle)

        # Queue n is (subswitch position, lane, VC)-major on both sides;
        # the input lanes are credited, so their books bound them.
        in_lengths = bank_lengths(
            chain.from_iterable(sub.in_bufs for sub in subs))
        out_lengths = bank_lengths(
            chain.from_iterable(sub.out_bufs for sub in subs))
        audit_bounds(out_lengths, config.subswitch_out_depth, cycle, lambda n: (
            f"subswitch ({n // v // p // s},{n // v // p % s}) out lane "
            f"{n // v % p}", n // v % p, n % v))
        in_lanes = per_bank(in_lengths, v)
        out_lanes = per_bank(out_lengths, v)
        port_rows = [0] * k
        for pos, sub in enumerate(subs):
            where = f"subswitch ({sub.row},{sub.col})"
            lanes = in_lanes[pos * p:(pos + 1) * p]
            agree(f"{where} in_count", sub.in_count, lanes)
            if sub.in_total != sum(lanes):
                raise drift(f"{where} in_total", sub.in_total, sum(lanes),
                            "the subswitches", cycle)
            lanes = out_lanes[pos * p:(pos + 1) * p]
            agree(f"{where} out_count", sub.out_count, lanes)
            # Out lane (row r, column c, lane lo) feeds output c*p + lo.
            for lo, held_here in enumerate(lanes):
                if held_here:
                    port_rows[sub.col * p + lo] |= 1 << sub.row
        agree("_port_rows", self._port_rows, port_rows)
        for flit, i, col in self._to_sub.items():
            in_lengths[((i // p * s + col) * p + i % p) * v + flit.vc] += 1
        owed = self._injected_credits()
        owed.extend(sink.__self__ for sink in self._credit_pipe.pending_sinks())

        def book(n: int):
            i, col = n // v // p // s * p + n // v % p, n // v // p % s
            return (f"subswitch input buffer (input {i}, column {col})",
                    {"port": i, "output": col, "vc": n % v})
        audit_credit_books(
            list(chain.from_iterable(
                self._in_credits[sub.row * p + li][sub.col]
                for sub in subs for li in range(p))),
            in_lengths, owed, cycle, book)
        super().audit(cycle, held + sum(in_lanes) + sum(out_lanes)
                      + len(self._to_sub) + len(self._crossing))

    def _extra_occupancy(self) -> int:
        inside = sum(
            self.sub[r][c].occupancy()
            for r in range(self.num_sub)
            for c in range(self.num_sub)
        )
        return inside + len(self._to_sub) + len(self._crossing)
