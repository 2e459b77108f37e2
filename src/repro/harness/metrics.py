"""Fine-grained instrumentation for simulation runs.

The paper's figures report aggregate latency and throughput; debugging
and extending a router microarchitecture needs more: latency
*distributions*, per-port utilization, and buffer-occupancy behaviour
over time.  ``MetricsCollector`` attaches to a
:class:`~repro.harness.experiment.SwitchSimulation` and gathers:

* a latency histogram (log-spaced bins, since saturated tails are
  heavy);
* per-output delivered-flit counts (channel load balance);
* per-input source backlog samples (who is starved/congested);
* total router occupancy samples (aggregate buffer pressure).

:meth:`MetricsCollector.attach` subscribes to the simulation's
:class:`~repro.engine.EngineHooks` bus — deliveries arrive through
``flit_move`` eject events and sampling rides ``cycle_end``, so
nothing is buffered and no per-cycle call is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..core.flit import Flit


@dataclass
class Histogram:
    """Log-spaced latency histogram."""

    base: float = 2.0
    counts: Dict[int, int] = field(default_factory=dict)
    total: int = 0

    def add(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"negative value {value}")
        bucket = 0 if value < 1 else int(math.log(value, self.base)) + 1
        self.counts[bucket] = self.counts.get(bucket, 0) + 1
        self.total += 1

    def bucket_bounds(self, bucket: int) -> Tuple[float, float]:
        """(inclusive lower, exclusive upper) value range of a bucket."""
        if bucket == 0:
            return (0.0, 1.0)
        return (self.base ** (bucket - 1), self.base ** bucket)

    def rows(self) -> List[Tuple[float, float, int]]:
        """(lower, upper, count) rows in bucket order."""
        return [
            (*self.bucket_bounds(b), self.counts[b])
            for b in sorted(self.counts)
        ]


class MetricsCollector:
    """Accumulates per-cycle and per-flit metrics from a simulation.

    Usage::

        sim = SwitchSimulation(router, load=0.7)
        metrics = MetricsCollector(router.config.radix).attach(sim)
        sim.run_until(cycles)
        print(metrics.summary())
    """

    def __init__(self, num_ports: int, sample_every: int = 16) -> None:
        if num_ports < 1:
            raise ValueError(f"num_ports must be >= 1, got {num_ports}")
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self.num_ports = num_ports
        self.sample_every = sample_every
        self.latency = Histogram()
        self.output_flits = [0] * num_ports
        self.backlog_samples: List[int] = []
        self.occupancy_samples: List[int] = []
        #: Fault-injection / recovery counts by kind (see
        #: :mod:`repro.faults`), fed by the ``fault_inject`` and
        #: ``fault_recover`` hook events when attached.
        self.fault_injects: Dict[str, int] = {}
        self.fault_recovers: Dict[str, int] = {}
        self._cycles = 0
        self._sim = None  # set by attach()

    def attach(self, sim) -> "MetricsCollector":
        """Subscribe to ``sim.hooks`` so metrics accumulate as the
        simulation runs.

        Works with any simulation exposing an
        :class:`~repro.engine.EngineHooks` bus, ``source_backlog()``
        and a ``router`` attribute (``SwitchSimulation`` does).  Returns
        ``self`` for chaining.
        """
        sim.hooks.on_flit_move(self._on_flit_move)
        self._sim = sim
        sim.hooks.on_cycle_end(self._on_cycle_end)
        sim.hooks.on_fault_inject(self._on_fault_inject)
        sim.hooks.on_fault_recover(self._on_fault_recover)
        return self

    def _on_flit_move(self, kind: str, flit: Flit, port: int,
                      cycle: int) -> None:
        if kind == "eject":
            self.observe_delivery(flit, cycle)

    def _on_fault_inject(self, kind: str, where, cycle: int) -> None:
        self.fault_injects[kind] = self.fault_injects.get(kind, 0) + 1

    def _on_fault_recover(self, kind: str, where, cycle: int) -> None:
        self.fault_recovers[kind] = self.fault_recovers.get(kind, 0) + 1

    def _on_cycle_end(self, cycle: int) -> None:
        sim = self._sim
        self._cycles += 1
        if self._cycles % self.sample_every == 0:
            self.backlog_samples.append(sim.source_backlog())
            self.occupancy_samples.append(sim.router.occupancy())

    # ------------------------------------------------------------------

    def observe_delivery(self, flit: Flit, cycle: int) -> None:
        """Record one delivered flit."""
        self.output_flits[flit.dest] += 1
        if flit.is_tail:
            self.latency.add(cycle - flit.created_at)

    @property
    def delivered_flits(self) -> int:
        return sum(self.output_flits)

    def load_imbalance(self) -> float:
        """Max/mean ratio of per-output delivered flits (1.0 = even)."""
        mean = self.delivered_flits / self.num_ports
        if mean == 0:
            return 1.0
        return max(self.output_flits) / mean

    def mean_backlog(self) -> float:
        if not self.backlog_samples:
            return 0.0
        return sum(self.backlog_samples) / len(self.backlog_samples)

    def mean_occupancy(self) -> float:
        if not self.occupancy_samples:
            return 0.0
        return sum(self.occupancy_samples) / len(self.occupancy_samples)

    def summary(self) -> str:
        """Human-readable digest of everything collected."""
        lines = [
            f"delivered flits:   {self.delivered_flits}",
            f"packets measured:  {self.latency.total}",
            f"load imbalance:    {self.load_imbalance():.2f}",
            f"mean src backlog:  {self.mean_backlog():.1f} flits",
            f"mean occupancy:    {self.mean_occupancy():.1f} flits",
        ]
        if self.fault_injects or self.fault_recovers:
            injected = ", ".join(
                f"{k}={self.fault_injects[k]}"
                for k in sorted(self.fault_injects)
            ) or "none"
            recovered = ", ".join(
                f"{k}={self.fault_recovers[k]}"
                for k in sorted(self.fault_recovers)
            ) or "none"
            lines.append(f"faults injected:   {injected}")
            lines.append(f"faults recovered:  {recovered}")
        lines.append("latency histogram (cycles):")
        for lo, hi, count in self.latency.rows():
            bar = "#" * max(1, round(40 * count / max(1, self.latency.total)))
            lines.append(f"  [{lo:>7.0f}, {hi:>7.0f})  {count:>6}  {bar}")
        return "\n".join(lines)
