"""Virtual-output-queued (VOQ) switch with an iSLIP allocator.

The reference point of Section 8: IP routers avoid head-of-line
blocking by keeping, at every input, "a separate buffer for each
output" and computing a matching each cycle with a centralized
iterative allocator [23].  This achieves ~100% throughput, but

* buffering is O(k^2) at the *inputs* (comparable in size to the fully
  buffered crossbar's crosspoint storage), and
* the allocator is centralized and iterative — "the advantage of the
  fully buffered crossbar compared to a VOQ switch is that there is no
  need for a complex allocator."

Implementation notes: each input keeps a bank of per-VC queues for
every output (k x v queues per input) — plain per-output FIFOs would
let multi-flit packets of different VC classes block one another and
deadlock.  Incoming flits are sorted by destination as they arrive
(route lookup at input).  Each cycle the iSLIP allocator computes a
matching over inputs with ready VOQs and free outputs; a matched input
sends the head flit of a ready VC at the matched output's VOQ bank
(round-robin over VCs).  The head flit of a packet claims its output
VC class exactly as in the other models.
"""

from __future__ import annotations

from itertools import chain, compress
from typing import List, Optional, Set

from ..allocation.islip import IslipAllocator
from ..core.arbiter import RoundRobinArbiter
from ..core.errors import invariant
from ..core.buffers import VcBufferBank, bank_lengths
from ..core.config import RouterConfig
from ..core.flit import Flit
from .base import Router, audit_occupied


class VoqRouter(Router):
    """Input VOQ switch with centralized iSLIP matching (Section 8)."""

    # VOQ sorting and the iSLIP match resolve within the same cycle, so
    # the only observable stages are the base "RC" (arrival) and "ST"
    # (matched flit starts crossing).
    TRACE_STAGES = ("RC", "ST")

    def __init__(self, config: RouterConfig, iterations: int = 2) -> None:
        super().__init__(config)
        k, v = config.radix, config.num_vcs
        self.voqs: List[List[VcBufferBank]] = [
            [VcBufferBank(v, None) for _ in range(k)] for _ in range(k)
        ]
        self._voq_vc_arb = [
            [RoundRobinArbiter(v) for _ in range(k)] for _ in range(k)
        ]
        self._islip = IslipAllocator(k, k, iterations=iterations)
        # Per input: destinations with at least one buffered flit.
        self._occupied: List[set] = [set() for _ in range(k)]
        self._head_delay = config.route_latency

    # ------------------------------------------------------------------

    def _advance(self) -> None:
        self._sort_arrivals()
        self._allocate()

    def _sort_arrivals(self) -> None:
        """Move flits from the per-VC input buffers into their VOQs."""
        for i in range(self.config.radix):
            if not self._in_flits[i]:
                continue
            for vc in range(self.config.num_vcs):
                if self._stuck_inputs and (i, vc) in self._stuck_inputs:
                    continue
                queue = self.inputs[i][vc]
                while queue:
                    flit = queue.head()
                    invariant(flit is not None, "non-empty input queue "
                              "returned no head flit", cycle=self.cycle,
                              port=i, vc=vc, check="buffer-integrity")
                    if (
                        flit.is_head
                        and self.cycle - flit.injected_at < self._head_delay
                    ):
                        break
                    self.voqs[i][flit.dest][flit.vc].push(queue.pop())
                    self._in_flits[i] -= 1
                    self._occupied[i].add(flit.dest)

    def _allocate(self) -> None:
        now = self.cycle
        requests: List[Set[int]] = []
        any_wants = False
        for i in range(self.config.radix):
            if not self._occupied[i] or not self.input_busy.free(i, now):
                requests.append(set())
                continue
            wants = set()
            for j in sorted(self._occupied[i]):
                if not self.output_busy.free(j, now):
                    continue
                if self._ready_vc(i, j, peek=True) is not None:
                    wants.add(j)
            requests.append(wants)
            if wants:
                any_wants = True
        if not any_wants:
            # iSLIP over an all-empty request set grants nothing and
            # moves no pointers; skip the allocator entirely.
            return
        matching = self._islip.allocate(requests)
        for i, j in matching.items():
            self._transmit(i, j)

    def _ready_vc(self, i: int, j: int, peek: bool = False) -> Optional[int]:
        """A VC at VOQ (i, j) whose head flit may proceed, or None."""
        bank = self.voqs[i][j]
        ready = []
        for vc in range(self.config.num_vcs):
            flit = bank[vc].head()
            ready.append(flit is not None and self._flit_ready(j, flit))
        return self._voq_vc_arb[i][j].arbitrate(ready, advance=not peek)

    def _flit_ready(self, j: int, flit: Flit) -> bool:
        state = self.output_vcs[j]
        if flit.is_head:
            return state.is_free(flit.vc) or state.owner(flit.vc) == flit.packet_id
        return state.owner(flit.vc) == flit.packet_id

    def _transmit(self, i: int, j: int) -> None:
        vc = self._ready_vc(i, j)
        invariant(vc is not None, "iSLIP matched a VOQ with no ready VC",
                  cycle=self.cycle, port=i, check="arbitration")
        flit = self.voqs[i][j][vc].pop()
        if self.voqs[i][j].occupancy() == 0:
            self._occupied[i].discard(j)
        if flit.is_head:
            self.output_vcs[j].allocate(flit.vc, flit.packet_id)
        flit.out_vc = flit.vc
        self.input_busy.reserve(i, self.cycle, self.config.flit_cycles)
        self._start_traversal(flit, j)

    # ------------------------------------------------------------------

    def audit(self, cycle: int, held: int = 0) -> None:
        """One walk of the k*k VOQ banks counts their flits and checks
        ``_occupied[i]``, the destinations ``_allocate`` visits instead
        of walking row i."""
        k, v = self.config.radix, self.config.num_vcs
        lengths = bank_lengths(chain.from_iterable(self.voqs))
        audit_occupied(self._occupied, (
            divmod(n // v, k) for n in compress(range(len(lengths)), lengths)
        ), "row", cycle)
        super().audit(cycle, held + sum(lengths))

    def _extra_occupancy(self) -> int:
        return self.voq_occupancy()

    def voq_occupancy(self) -> int:
        """Flits currently held in virtual output queues."""
        return sum(bank_lengths(chain.from_iterable(self.voqs)))
