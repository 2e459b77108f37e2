"""High-radix baseline: distributed switch and VC allocation (Section 4).

Centralized single-cycle allocation is infeasible at radix 64, so this
router distributes allocation:

* **Switch allocation** (Section 4.1, Figure 6) is separable and
  three-staged: each input controller's arbiter picks one ready VC
  (SA1), the request travels over per-input request lines (wire stage),
  a *local* output arbiter selects among its group of ``m`` inputs
  (SA2), and a *global* output arbiter selects among the ``k/m`` local
  winners (SA3).  We model the issue-to-decision latency with a delay
  line of ``config.sa_latency`` cycles and perform the local/global
  arbitration with :class:`~repro.core.arbiter.HierarchicalArbiter` at
  maturity.  Each input keeps a single request in flight, and re-bids
  (possibly for a different VC) when a denial comes back.

* **Virtual-channel allocation** (Section 4.2, Figures 7-8) is
  speculative — the switch request proceeds before the output VC is
  known to be free:

  - **CVA** (crosspoint VC allocation): the request carries the output
    VC it needs; the per-output-VC arbiter at the crosspoint kills
    requests whose VC is busy *before* switch output arbitration, so a
    failed speculation wastes only the requesting input's bid.
  - **OVA** (output VC allocation): switch allocation runs to
    completion first, and only the single winner then checks for a
    free output VC; a failure wastes the output's grant for that cycle
    — which is why Figure 9 shows OVA saturating below CVA.

* **Prioritized allocation** (Section 4.4, Figure 10(b)): with
  ``config.prioritize_nonspeculative`` the output arbitration uses two
  arbiters and grants speculative requests only when no nonspeculative
  request is present, applied (as in the paper) only at the output
  arbiter.

With ``config.speculative`` False, head flits first obtain their output
VC through a separate (pipelined) VC request and only then bid for the
switch — the non-speculative ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..allocation.switch_alloc import OutputArbiterBank
from ..allocation.vc_alloc import OvaPolicy
from ..core.arbiter import RoundRobinArbiter
from ..core.config import OVA_EXTRA_LATENCY, ROUTE_LATENCY, RouterConfig
from ..core.errors import invariant
from ..core.flit import Flit
from ..core.pipeline import DelayLine
from .base import Router

#: Request kinds flowing through the allocation pipeline.
KIND_SWITCH = "switch"
KIND_VA_ONLY = "va"


@dataclass
class _Request:
    """One switch (or VA-only) request in flight from an input."""

    input: int
    vc: int
    flit: Flit
    out: int
    out_vc: Optional[int]
    speculative: bool
    kind: str = KIND_SWITCH


class DistributedRouter(Router):
    """Radix-k router with distributed three-stage allocation."""

    # "SA" fires when a switch request is issued into the allocation
    # pipeline (SA1); the request matures sa_latency cycles later and
    # "ST" fires at the grant (plus the OVA extra grant delay).
    TRACE_STAGES = ("RC", "SA", "ST")

    def __init__(self, config: RouterConfig) -> None:
        super().__init__(config)
        k, v, m = config.radix, config.num_vcs, config.local_group_size
        self._input_arb = [RoundRobinArbiter(v) for _ in range(k)]
        self._output_arb = OutputArbiterBank(
            k, k, m, prioritized=config.prioritize_nonspeculative
        )
        self._ova = OvaPolicy(k, v)
        self._alloc: Dict[Tuple[int, int], int] = {}
        self._pending: List[Optional[_Request]] = [None] * k
        # Requests parked at each output arbiter, keyed by input.
        self._resident: List[Dict[int, _Request]] = [dict() for _ in range(k)]
        self._pipe: DelayLine[_Request] = DelayLine(config.sa_latency)
        self._head_delay = ROUTE_LATENCY
        # (i, vc) pairs whose head flit won a non-speculative VA and may
        # now bid for the switch (non-speculative mode only).
        self._va_done: Set[Tuple[int, int]] = set()
        # Output VC each input VC's current head will request next
        # (rotated after every failed speculation).
        self._spec_vc: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------

    def _advance(self) -> None:
        for req in self._pipe.pop_ready(self.cycle):
            if req.kind == KIND_VA_ONLY:
                self._resolve_va_only(req)
            else:
                # The request line stays asserted at the output arbiter
                # until granted or killed (level-sensitive requests).
                self._resident[req.out][req.input] = req
        self._arbitrate_outputs()
        self._issue()

    # ------------------------------------------------------------------
    # Input side: SA1 (input arbitration) and request issue
    # ------------------------------------------------------------------

    def _issue(self) -> None:
        """Each input with no request in flight bids for one VC."""
        now = self.cycle
        horizon = now + self.config.sa_latency
        for i in range(self.config.radix):
            if self._pending[i] is not None:
                continue
            if not self._in_flits[i]:
                continue
            if self.input_busy.busy_until(i) > horizon:
                continue
            candidates = [
                self._candidate(i, vc) for vc in range(self.config.num_vcs)
            ]
            vc = self._input_arb[i].arbitrate([c is not None for c in candidates])
            if vc is None:
                continue
            request = candidates[vc]
            invariant(request is not None, "input arbiter granted a VC "
                      "with no candidate request", cycle=self.cycle,
                      port=i, vc=vc, check="arbitration")
            if request.kind == KIND_SWITCH and self.hooks.stage_enter:
                self.hooks.emit_stage_enter(request.flit, "SA", i, now)
            self._pending[i] = request
            self._pipe.push(now, request)

    def _candidate(self, i: int, vc: int) -> Optional[_Request]:
        """Build the request (i, vc) would issue, or None if ineligible."""
        if self._stuck_inputs and (i, vc) in self._stuck_inputs:
            return None
        flit = self.inputs[i][vc].head()
        if flit is None:
            return None
        key = (i, vc)
        if not flit.is_head or key in self._alloc:
            # Body/tail flit of a packet whose VC is already held: a
            # nonspeculative switch request.
            out_vc = self._alloc.get(key)
            if flit.is_head and out_vc is None:
                return None
            return _Request(i, vc, flit, flit.dest, out_vc, speculative=False)
        # Head flit awaiting route computation.
        if self.cycle - flit.injected_at < self._head_delay:
            return None
        if not self.config.speculative and key not in self._va_done:
            # Non-speculative mode: acquire the output VC first.
            return _Request(
                i, vc, flit, flit.dest, flit.vc, speculative=False,
                kind=KIND_VA_ONLY,
            )
        if key in self._va_done:
            out_vc = self._alloc[key]
            return _Request(i, vc, flit, flit.dest, out_vc, speculative=False)
        if self.config.vc_allocator == "cva":
            # CVA requests name the output VC they need.  The input
            # cannot see output VC status (that is why the request is
            # speculative), so the choice is blind: it starts at the
            # packet's input VC class and rotates to the next VC after
            # each failed speculation.  With several VCs a re-bid
            # "will likely find an available output VC" (Section 4.4);
            # with a single VC the packet keeps re-bidding for the one
            # VC it is waiting on.
            out_vc = self._spec_vc.setdefault(key, flit.vc)
            return _Request(i, vc, flit, flit.dest, out_vc, speculative=True)
        return _Request(i, vc, flit, flit.dest, None, speculative=True)

    # ------------------------------------------------------------------
    # Output side: SA2/SA3 (local/global arbitration) plus VC allocation
    # ------------------------------------------------------------------

    def _arbitrate_outputs(self) -> None:
        """SA2/SA3 plus VC allocation over the resident requests.

        Requests parked at an output remain in contention every cycle
        (losers are not bounced back to the inputs); a request leaves
        the output arbiter only by being granted or — for a speculative
        request whose VC allocation fails — killed, in which case its
        input is free to re-bid.
        """
        for out in range(self.config.radix):
            reqs = self._resident[out]
            if not reqs:
                continue
            if not self.output_busy.free(out, self.cycle):
                continue
            if self.config.vc_allocator == "cva":
                self._resolve_cva(out, reqs)
            else:
                self._resolve_ova(out, reqs)

    def _resolve_va_only(self, req: _Request) -> None:
        """Non-speculative VA request: allocate the VC if free."""
        state = self.output_vcs[req.out]
        invariant(req.out_vc is not None, "VA request carries no output "
                  "VC", cycle=self.cycle, port=req.input,
                  check="vc-ownership")
        if state.is_free(req.out_vc):
            state.allocate(req.out_vc, req.flit.packet_id)
            self._alloc[(req.input, req.vc)] = req.out_vc
            self._va_done.add((req.input, req.vc))
        self._pending[req.input] = None

    def _resolve_cva(self, out: int, reqs: Dict[int, _Request]) -> None:
        """CVA: VC allocation in parallel with switch arbitration.

        All requests — speculative or not — compete in the output
        switch arbitration, because the per-output-VC arbiters at the
        crosspoint run *concurrently* with it ("CVA parallelize the
        switch and VC allocation").  When the switch winner is a
        speculative request whose named output VC turns out to be busy,
        the output's grant for this cycle is wasted — exactly the
        bandwidth loss that Section 4.4's prioritized (two-arbiter)
        allocation exists to contain.
        """
        winner = self._arbitrate_output(out, list(reqs.values()))
        if winner is None:
            return
        if winner.speculative:
            invariant(winner.out_vc is not None, "speculative CVA request "
                      "carries no output VC", cycle=self.cycle,
                      port=winner.input, check="vc-ownership")
            state = self.output_vcs[out]
            if not (state.is_free(winner.out_vc)
                    or state.owner(winner.out_vc) == winner.flit.packet_id):
                # Failed speculation: the switch slot goes unused this
                # cycle and the request is killed back to its input.
                if self.hooks.spec_outcome:
                    self.hooks.emit_spec_outcome("cva", False, out, self.cycle)
                self._kill(winner)
                return
            if self.hooks.spec_outcome:
                self.hooks.emit_spec_outcome("cva", True, out, self.cycle)
        self._grant(winner)

    def _resolve_ova(self, out: int, reqs: Dict[int, _Request]) -> None:
        """OVA: arbitrate first, then the single winner checks VC state."""
        winner = self._arbitrate_output(out, list(reqs.values()))
        if winner is None:
            return
        if not winner.speculative:
            self._grant(winner)
            return
        out_vc = self._ova.allocate(out, self.output_vcs[out])
        if out_vc is None:
            # The output's grant is wasted this cycle: nobody else can
            # use it, and the winner must re-bid from its input.
            if self.hooks.spec_outcome:
                self.hooks.emit_spec_outcome("ova", False, out, self.cycle)
            self._kill(winner)
            return
        winner.out_vc = out_vc
        if self.hooks.spec_outcome:
            self.hooks.emit_spec_outcome("ova", True, out, self.cycle)
        self._grant(winner, extra_delay=OVA_EXTRA_LATENCY)

    def _arbitrate_output(
        self, out: int, reqs: List[_Request]
    ) -> Optional[_Request]:
        by_input: Dict[int, _Request] = {req.input: req for req in reqs}
        winner_input = self._output_arb.grant(
            out, [(req.input, req.speculative) for req in reqs]
        )
        if winner_input is None:
            return None
        return by_input[winner_input]

    # ------------------------------------------------------------------
    # Grant / deny plumbing
    # ------------------------------------------------------------------

    def _kill(self, req: _Request) -> None:
        """Remove a request from contention and let its input re-bid."""
        del self._resident[req.out][req.input]
        self._pending[req.input] = None
        if req.speculative and self.config.vc_allocator == "cva":
            key = (req.input, req.vc)
            current = self._spec_vc.get(key, req.vc)
            self._spec_vc[key] = (current + 1) % self.config.num_vcs

    def _grant(self, req: _Request, extra_delay: int = 0) -> None:
        i, vc, flit, out = req.input, req.vc, req.flit, req.out
        key = (i, vc)
        if flit.is_head and key not in self._alloc:
            invariant(req.out_vc is not None, "granted head flit has no "
                      "allocated output VC", cycle=self.cycle, port=i,
                      vc=vc, check="vc-ownership")
            self.output_vcs[out].allocate(req.out_vc, flit.packet_id)
            self._alloc[key] = req.out_vc
            self._spec_vc.pop(key, None)
        flit.out_vc = self._alloc[key]
        if flit.is_tail:
            del self._alloc[key]
            self._va_done.discard(key)
        popped = self.inputs[i][vc].pop()
        invariant(popped is flit, "input buffer head changed between "
                  "grant and pop", cycle=self.cycle, port=i, vc=vc,
                  check="buffer-integrity")
        self._in_flits[i] -= 1
        start = self.cycle + extra_delay
        self.input_busy.extend(i, start + self.config.flit_cycles)
        self._start_traversal(flit, out, start=start)
        del self._resident[out][i]
        self._pending[i] = None
