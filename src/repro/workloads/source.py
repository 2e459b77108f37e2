"""Workload-driven per-port packet source.

Implements the :class:`~repro.traffic.source.TrafficSource` drain
contract (``queue``/``head``/``pop``/``backlog``/``peek_arrival``/
``generate``) over a shared :class:`~repro.workloads.base.Workload`,
so :class:`~repro.harness.experiment.SwitchSimulation` drives it
through the exact same injection path as the synthetic sources, with
``peek_arrival`` delegating to the workload's pure eligibility probe
as the fast-forward wake horizon.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from ..core.flit import Flit, make_packet
from .base import Workload


class WorkloadSource:
    """Feeds one input port from a shared workload DAG.

    A port whose id is outside the workload's rank range stays idle
    forever (a fabric larger than the job), which ``peek_arrival``
    reports as "no arrival, ever".
    """

    def __init__(self, input_id: int, workload: Workload) -> None:
        self.input_id = input_id
        self.workload = workload
        self.queue: Deque[Flit] = deque()
        self.packets_generated = 0
        self.flits_generated = 0
        #: Peak injection-queue depth (flits) ever observed; folded
        #: into ``stats.traffic.max_source_queue``.
        self.peak_backlog = 0

    def _active(self) -> bool:
        return self.input_id < self.workload.num_ranks

    def peek_arrival(self, now: int) -> Optional[int]:
        """Cycle >= ``now`` of the next eligible message, or None.

        Pure (delegates to :meth:`Workload.eligible`), so the
        scheduler may poll it any number of times per cycle.
        """
        if not self._active():
            return None
        return self.workload.eligible(self.input_id, now)

    def generate(
        self, now: int, measured: bool, new_id: Callable[[], int]
    ) -> Optional[int]:
        """Queue every message that became eligible by ``now``, each
        packet numbered by ``new_id``.

        Returns the first packet id generated this cycle (or None),
        mirroring the TrafficSource signature.  Workload packets are
        never measurement-labeled — their latency accounting lives in
        the workload itself (``measured`` is accepted and ignored so
        the harness's generate loop needs no special case).
        """
        if not self._active():
            return None
        first: Optional[int] = None
        while True:
            message = self.workload.next_message(self.input_id, now)
            if message is None:
                break
            flits = make_packet(
                dest=message.dest,
                size=message.size,
                src=self.input_id,
                created_at=now,
                measured=False,
                packet_id=new_id(),
            )
            self.workload.sent(message.node, flits[0].packet_id, now)
            self.queue.extend(flits)
            self.packets_generated += 1
            self.flits_generated += len(flits)
            if first is None:
                first = flits[0].packet_id
        if len(self.queue) > self.peak_backlog:
            self.peak_backlog = len(self.queue)
        return first

    def head(self) -> Optional[Flit]:
        """Next flit waiting to enter the router, or None."""
        return self.queue[0] if self.queue else None

    def pop(self) -> Flit:
        return self.queue.popleft()

    def backlog(self) -> int:
        """Flits waiting in the (unbounded) source queue."""
        return len(self.queue)
