"""Speculative virtual-channel allocation: CVA and OVA (Section 4.2).

An ideal VC allocator would let every input VC watch every output VC —
O(k^2 * v) wiring, "prohibitively expensive".  The paper's two scalable
schemes differ in *where* the VC state is checked relative to switch
arbitration, and therefore in what a failed speculation costs:

* **CVA** (crosspoint VC allocation): requests carry the output VC they
  need; per-output-VC arbiters at the crosspoints kill requests whose
  VC is busy *before* switch output arbitration.  A failure wastes only
  the requesting input's bid for the cycle.
* **OVA** (output VC allocation): switch allocation runs through all
  three stages first, and only the single winner then looks for a free
  output VC.  Only one VC request per output can be made per cycle, and
  a failure wastes the output's grant — the deeper speculation that
  costs OVA ~5% of saturation throughput in Figure 9.

:class:`~repro.routers.distributed.DistributedRouter` runs the CVA
check inline and consumes :class:`OvaPolicy` for OVA; it owns the
authoritative output-VC ownership ledgers.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.arbiter import RoundRobinArbiter
from ..core.vcstate import OutputVcState


class OvaPolicy:
    """Output VC allocation: check after the switch winner is known."""

    def __init__(self, num_outputs: int, num_vcs: int) -> None:
        self.num_vcs = num_vcs
        self._pick = [RoundRobinArbiter(num_vcs) for _ in range(num_outputs)]

    def allocate(self, output: int, state: OutputVcState) -> Optional[int]:
        """Pick a free output VC for the switch winner, or None.

        OVA is not tied to a particular VC class: the winner takes any
        free VC on the output, chosen round-robin for fairness.
        """
        free: List[bool] = [state.is_free(vc) for vc in range(self.num_vcs)]
        return self._pick[output].arbitrate(free)
