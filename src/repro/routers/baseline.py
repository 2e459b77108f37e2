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

from typing import Dict, List, Optional, Tuple

from ..core.arbiter import BatchArbiterBank, RoundRobinArbiter, require_numpy
from ..core.batch import (
    HAVE_NUMPY,
    ArrayBusyTracker,
    QueueArrays,
    mirror_output_vcs,
    mirror_vc_bank,
)
from ..core.config import RouterConfig
from ..core.errors import invariant
from ..core.flit import Flit
from .base import Router


#: numpy, bound by the first router built with ``batch_hot_path``.
_np = None


class BaselineRouter(Router):
    """Input-queued crossbar with centralized single-cycle VA and SA."""

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
        self._batch = bool(config.batch_hot_path) and HAVE_NUMPY
        if self._batch:
            self._init_batch()

    def _init_batch(self) -> None:
        """Struct-of-arrays mirrors for the batched request gather.

        Only the per-cycle eligibility scan is batched; the grant loop
        (output arbitration, VA, transmits) keeps its scalar form so
        stats and delay-line insertion order are untouched.  See
        ``repro.core.batch`` for the mirroring contract.
        """
        global _np
        _np = require_numpy()
        k, v = self.config.radix, self.config.num_vcs
        self._b_in = QueueArrays(k * v)
        for i, bank in enumerate(self.inputs):
            mirror_vc_bank(bank, self._b_in, i * v)
        self._b_vc_owner = _np.full(k * v, -1, dtype=_np.int64)
        self.output_vcs = mirror_output_vcs(self.output_vcs, self._b_vc_owner)
        # _b_alloc2[i, vc] mirrors (i, vc) in self._alloc; maintained at
        # the two _alloc mutation sites in _transmit.
        self._b_alloc2 = _np.zeros((k, v), dtype=bool)
        self.input_busy = ArrayBusyTracker(k)
        self.output_busy = ArrayBusyTracker(k)
        self._input_arb_b = BatchArbiterBank(k, v)

    # ------------------------------------------------------------------

    def _advance(self) -> None:
        if self._batch:
            requests = self._gather_requests_batched()
        else:
            requests = self._gather_requests()
        self._grant(requests)

    def _gather_requests(self) -> Dict[int, List[Tuple[int, int, Flit]]]:
        """Input arbitration: one (input, vc, flit) request per free input.

        Returns a map from output port to its list of requests.
        """
        requests: Dict[int, List[Tuple[int, int, Flit]]] = {}
        now = self.cycle
        for i in range(self.config.radix):
            if not self._in_flits[i]:
                continue
            if not self.input_busy.free(i, now):
                continue
            eligible = [
                self._eligible(i, vc) for vc in range(self.config.num_vcs)
            ]
            vc = self._input_arb[i].arbitrate([e is not None for e in eligible])
            if vc is None:
                continue
            flit = eligible[vc]
            invariant(flit is not None, "input arbiter granted a VC with "
                      "no eligible flit", cycle=self.cycle, port=i, vc=vc,
                      check="arbitration")
            requests.setdefault(flit.dest, []).append((i, vc, flit))
        return requests

    def _gather_requests_batched(self) -> Dict[int, List[Tuple[int, int, Flit]]]:
        """Whole-matrix equivalent of :meth:`_gather_requests`.

        The gather is a pure read of pre-stage state (its only state
        change is input-arbiter pointer motion), so one vectorized
        eligibility matrix over the free inputs reproduces the scalar
        ascending-i scan exactly; skipped rows are all-False rows for
        the arbiter bank (no grant, no pointer motion either way).
        """
        now = self.cycle
        k, v = self.config.radix, self.config.num_vcs
        a = self._b_in
        requests: Dict[int, List[Tuple[int, int, Flit]]] = {}
        free = _np.nonzero(self.input_busy.array <= now)[0]
        if not free.size:
            return requests
        eligible = a.occ.reshape(k, v)[free] > 0
        if not eligible.any():
            return requests
        # Head flits without a held output VC wait out the RC/VA delay
        # and need a free VC at their destination (_eligible's gating).
        gated = a.head.reshape(k, v)[free] & ~self._b_alloc2[free]
        if gated.any():
            young = (now - a.inj.reshape(k, v)[free]) < self._head_delay
            no_free = (self._b_vc_owner.reshape(k, v) >= 0).all(axis=1)
            # Stale keys of empty queues may index arbitrary outputs,
            # but those lanes are already masked off by occ > 0.
            eligible &= ~(gated & (young | no_free[a.key.reshape(k, v)[free]]))
        if self._stuck_inputs:
            for (i, vc) in sorted(self._stuck_inputs):
                pos = int(_np.searchsorted(free, i))
                if pos < free.size and free[pos] == i:
                    eligible[pos, vc] = False
        winners = self._input_arb_b.arbitrate_rows(free, eligible)
        for pos in _np.nonzero(winners >= 0)[0].tolist():
            i = int(free[pos])
            vc = int(winners[pos])
            flit = self.inputs[i].queues[vc].head()
            invariant(flit is not None, "batched input arbitration granted "
                      "a VC with no eligible flit", cycle=now, port=i,
                      vc=vc, check="arbitration")
            requests.setdefault(flit.dest, []).append((i, vc, flit))
        return requests

    def _eligible(self, i: int, vc: int) -> Optional[Flit]:
        """The head-of-queue flit of (i, vc) if it may bid this cycle."""
        if self._stuck_inputs and (i, vc) in self._stuck_inputs:
            return None
        flit = self.inputs[i][vc].head()
        if flit is None:
            return None
        if flit.is_head and (i, vc) not in self._alloc:
            # Head flit: RC/VA pipeline delay, then requires a free
            # output VC (the centralized VA is done with the grant).
            if self.cycle - flit.injected_at < self._head_delay:
                return None
            if not self.output_vcs[flit.dest].any_free():
                return None
        return flit

    def _grant(self, requests: Dict[int, List[Tuple[int, int, Flit]]]) -> None:
        """Output arbitration and centralized VA for the winners."""
        now = self.cycle
        k = self.config.radix
        for out, reqs in requests.items():
            if not self.output_busy.free(out, now):
                self.stats.switch_denials += len(reqs)
                continue
            lines = [False] * k
            by_input = {}
            for i, vc, flit in reqs:
                lines[i] = True
                by_input[i] = (vc, flit)
            winner = self._output_arb[out].arbitrate(lines)
            if winner is None:
                continue
            vc, flit = by_input[winner]
            self._transmit(winner, vc, flit, out)
            self.stats.switch_denials += len(reqs) - 1

    def _transmit(self, i: int, vc: int, flit: Flit, out: int) -> None:
        """Pop the granted flit and start its switch traversal."""
        key = (i, vc)
        if flit.is_head and key not in self._alloc:
            out_vc = self._allocate_vc(out, flit.packet_id)
            self._alloc[key] = out_vc
            if self._batch:
                self._b_alloc2[i, vc] = True
        flit.out_vc = self._alloc[key]
        if flit.is_tail:
            del self._alloc[key]
            if self._batch:
                self._b_alloc2[i, vc] = False
        popped = self.inputs[i][vc].pop()
        invariant(popped is flit, "input buffer head changed between "
                  "grant and pop", cycle=self.cycle, port=i, vc=vc,
                  check="buffer-integrity")
        self._in_flits[i] -= 1
        self.input_busy.reserve(i, self.cycle, self.config.flit_cycles)
        self._start_traversal(flit, out)

    def _allocate_vc(self, out: int, packet_id: int) -> int:
        """Centralized VA: round-robin among the output's free VCs."""
        free = [self.output_vcs[out].is_free(vc) for vc in range(self.config.num_vcs)]
        out_vc = self._vc_pick[out].arbitrate(free)
        if out_vc is None:
            raise RuntimeError("VA invoked with no free output VC")
        self.output_vcs[out].allocate(out_vc, packet_id)
        return out_vc
