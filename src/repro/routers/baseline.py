"""Low-radix baseline: input-queued crossbar with centralized allocation.

This is the reference design of Section 3 (Figures 4 and 5), "similar
to that used for a low-radix router": per-VC input buffers feed a
single crossbar; a centralized separable allocator performs virtual
channel allocation (VA) and switch allocation (SA) in a single cycle
each.  The paper stresses that this single-cycle centralized allocation
*does not scale* to high radix — it exists as the comparison point in
Figure 9 ("note that this represents an unrealistic design point since
the centralized single-cycle allocation does not scale").

Pipeline (Figure 5(b)): RC | VA | SA | ST for head flits, SA | ST for
body flits.  RC+VA are modeled as an eligibility delay of
``route_latency + 1`` cycles on head flits; SA happens in the cycle of
arbitration and switch traversal starts the same cycle, occupying the
input and output for ``flit_cycles`` cycles.

Even with multiple virtual channels, head-of-line blocking limits this
router to roughly 60% throughput on uniform random traffic [18], which
Figure 9 reproduces.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..core.arbiter import RoundRobinArbiter
from ..core.config import RouterConfig
from ..core.errors import InvariantViolation
from ..core.flit import Flit
from .base import Router


class BaselineRouter(Router):
    """Input-queued crossbar with centralized single-cycle VA and SA.

    Both arbitration stages cost what is requested, not the arbiters'
    width (see "Crosspoint and baseline hot path" in
    docs/architecture.md).
    """

    # The centralized allocator has no observable intermediate stage:
    # the "RC" span measured by repro.trace covers the RC+VA eligibility
    # delay (route_latency + 1), and "ST" fires at the grant.
    TRACE_STAGES = ("RC", "ST")

    def __init__(self, config: RouterConfig) -> None:
        super().__init__(config)
        k, v = config.radix, config.num_vcs
        self._input_arb = [RoundRobinArbiter(v) for _ in range(k)]
        self._output_arb = [RoundRobinArbiter(k) for _ in range(k)]
        self._vc_pick = [RoundRobinArbiter(v) for _ in range(k)]
        # Output VC held by the in-progress packet of input VC (i, vc).
        self._alloc: Dict[Tuple[int, int], int] = {}
        # Head flits become eligible after the RC and VA pipe stages.
        self._head_delay = config.route_latency + 1

    # ------------------------------------------------------------------

    def _advance(self) -> None:
        self._grant(self._gather_requests())

    def _gather_requests(self) -> Dict[int, Dict[int, Tuple[int, Flit]]]:
        """Input arbitration: one (vc, flit) request per free input.

        Returns a map from output port to ``{input: (vc, flit)}``, in
        first-request order.
        """
        requests: Dict[int, Dict[int, Tuple[int, Flit]]] = {}
        now = self.cycle
        inputs = self.inputs
        in_flits = self._in_flits
        input_free = self.input_busy.free
        input_arb = self._input_arb
        stuck = self._stuck_inputs
        alloc = self._alloc
        output_vcs = self.output_vcs
        head_delay = self._head_delay
        for i in range(self.config.radix):
            if not in_flits[i] or not input_free(i, now):
                continue
            # Head flit of each VC that may bid now: not wedged by a
            # stuck-input fault and, when it opens a packet that holds
            # no output VC yet, past the RC/VA delay with some output VC
            # free at its destination (the centralized VA is done with
            # the grant).
            cands: Dict[int, Flit] = {}
            for vc, queue in enumerate(inputs[i].queues):
                q = queue._q
                if not q or (stuck and (i, vc) in stuck):
                    continue
                flit = q[0]
                if flit.is_head and (i, vc) not in alloc and (
                    now - flit.injected_at < head_delay
                    or None not in output_vcs[flit.dest].owners
                ):
                    continue
                cands[vc] = flit
            if not cands:
                continue
            vc = input_arb[i].grant(cands)
            flit = cands[vc]
            requests.setdefault(flit.dest, {})[i] = (vc, flit)
        return requests

    def _grant(self, requests: Dict[int, Dict[int, Tuple[int, Flit]]]) -> None:
        """Output arbitration and centralized VA for the winners."""
        now = self.cycle
        stats = self.stats
        output_free = self.output_busy.free
        output_arb = self._output_arb
        for out, by_input in requests.items():
            if not output_free(out, now):
                stats.switch_denials += len(by_input)
                continue
            winner = output_arb[out].grant(by_input)
            vc, flit = by_input[winner]
            self._transmit(winner, vc, flit, out)
            stats.switch_denials += len(by_input) - 1

    def _transmit(self, i: int, vc: int, flit: Flit, out: int) -> None:
        """Pop the granted flit and start its switch traversal."""
        key = (i, vc)
        if flit.is_head and key not in self._alloc:
            self._alloc[key] = self._allocate_vc(out, flit.packet_id)
        flit.out_vc = self._alloc[key]
        if flit.is_tail:
            del self._alloc[key]
        if self.inputs[i][vc].pop() is not flit:
            raise InvariantViolation(
                "input buffer head changed between grant and pop",
                cycle=self.cycle, port=i, vc=vc, check="buffer-integrity",
            )
        self._in_flits[i] -= 1
        self.input_busy.reserve(i, self.cycle, self.config.flit_cycles)
        self._start_traversal(flit, out)

    def _allocate_vc(self, out: int, packet_id: int) -> int:
        """Centralized VA: round-robin among the output's free VCs."""
        owners = self.output_vcs[out].owners
        out_vc = self._vc_pick[out].grant(
            [vc for vc, owner in enumerate(owners) if owner is None]
        )
        if out_vc is None:
            raise RuntimeError("VA invoked with no free output VC")
        self.output_vcs[out].allocate(out_vc, packet_id)
        return out_vc
