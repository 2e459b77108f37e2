"""The Section 4.3 run program, shared by every simulation stack.

The paper's measurement procedure — warm up under load, label the
packets injected during a measurement window, run until the labeled
ones have left — is one program, and so is its closed-loop variant
that runs a workload DAG to completion.  :class:`StagedRun` holds it
once; :class:`~repro.harness.SwitchSimulation` and
:class:`~repro.network.netsim.NetworkSimulation` inherit it.

A program is a list of stages.  Each stage is one
``scheduler.run_until(bound, stop=predicate)`` call, so fast-forward
jumps never cross a stage boundary, and the flag flips happen between
calls, exactly where a per-cycle loop would flip them:

==========  ==========================  ===============================
stage       ends at                     on completion
==========  ==========================  ===============================
warm-up     its bound                   ``_measuring``/``_count_flits``
                                        on; note ``measure_start``
measure     its bound                   both flags off; note
                                        ``measured_cycles``
drain       bound, or no labeled        —
            packet outstanding
workload    bound, or the DAG done      —
==========  ==========================  ===============================

The program itself is plain data (absolute bounds plus bookkeeping) and
is captured with the rest of the run state by :meth:`_capture_run`, so
a checkpoint taken between :meth:`advance_run` calls resumes mid-stage
byte-identically.

So does the host-channel protocol: a head flit takes an input VC
round-robin among those with room and holds it to the tail, one flit
crosses a channel per ``flit_cycles`` cycles (a corrupted attempt
too), and a tail ejection closes the packet's latency sample.
"""

from __future__ import annotations

from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..core.errors import InvariantViolation
from ..core.flit import Flit
from ..engine import Scheduler
from ..workloads.base import Workload
from . import checkpoint
from .stats import LatencySample, RunResult, summarize

_WARMUP, _MEASURE, _DRAIN = range(3)

Predicate = Optional[Callable[[], bool]]


def _either(a: Predicate, b: Predicate) -> Predicate:
    """The predicate true when either given one is (None: never true)."""
    if a is None or b is None:
        return a or b
    return lambda: a() or b()


class StagedRun:
    """Base of the simulations: the staged run, the host channels and
    the checkpoint glue.

    A stack plugs in by owning the attributes below — plain attributes
    because its per-cycle generate/eject code reads and bumps them
    directly — by supplying :meth:`_input_space` and
    :meth:`_hand_over` for its channels, by overriding
    :meth:`_extend_draws` if it pre-draws traffic, and by finishing
    :meth:`_summarize_run`'s result with its own extras (the two
    stacks' rows carry different keys, so that step is not shared).
    """

    config: Any
    load: float
    sanitizer: Any
    sample: LatencySample
    measured_flits: int
    _sched: Scheduler
    _program: Optional[Dict[str, Any]]
    _workload: Optional[Workload]
    #: Label packets generated now / count flits ejected now.
    _measuring: bool
    _count_flits: bool
    #: Labeled packets not yet ejected / ever generated.
    _outstanding: int
    _labeled_total: int
    _faults: Any
    _tracer: Any
    #: Per host channel: earliest cycle of its next send attempt, the
    #: input VC its packet in flight holds, its round-robin VC pointer.
    _next_inject: List[int]
    _packet_vc: List[Optional[int]]
    _vc_rr: List[int]
    #: The id the next generated packet gets: each simulation numbers
    #: its own packets from 0, so what samples ids (a tracer's
    #: ``every_nth``) does not depend on what ran before it.
    _next_packet_id: int

    @property
    def cycle(self) -> int:
        """Current simulation cycle (owned by the drive loop)."""
        return self._sched.now

    def step(self) -> None:
        """Advance exactly one simulation cycle."""
        self.run_until(self._sched.now + 1)

    def run_until(self, end: int) -> int:
        """Advance the simulation through cycles ``[cycle, end)``."""
        self._extend_draws(end)
        return self._sched.run_until(end)

    def _extend_draws(self, end: int) -> None:
        """Before-stage step: make pre-drawn traffic cover ``[0, end)``."""

    def _new_packet_id(self) -> int:
        """Hand out the next packet id."""
        pid = self._next_packet_id
        self._next_packet_id = pid + 1
        return pid

    # ------------------------------------------------------------------
    # Host channels
    # ------------------------------------------------------------------

    def _input_space(self, channel: int, vc: int) -> int:
        """Free slots of input VC ``vc`` at the router end of ``channel``."""
        raise NotImplementedError

    def _hand_over(self, channel: int, flit: Flit, now: int) -> None:
        """Deliver ``flit`` (dequeued, its VC set) into the router end
        of ``channel`` at cycle ``now``."""
        raise NotImplementedError

    def _try_inject(self, channel: int, queue: Deque[Flit], now: int) -> None:
        """One send attempt from ``channel``'s non-empty source ``queue``
        (the caller has checked the ``flit_cycles`` throttle)."""
        faults = self._faults
        if faults is not None and not faults.channel_ready(channel, now):
            return
        flit = queue[0]
        packet_vc = self._packet_vc
        vc = packet_vc[channel]
        if vc is None:
            if not flit.is_head:
                raise InvariantViolation("packet VC lost mid-packet", cycle=now,
                                         port=channel, check="injection")
            vc = self._pick_vc(channel)
            if vc is None:
                return
            packet_vc[channel] = vc
        elif self._input_space(channel, vc) < 1:
            return
        flit.vc = vc
        next_attempt = now + self.config.flit_cycles
        if faults is not None and not faults.attempt_transmit(channel, flit, now):
            # Corrupted on the wire: the receiver's CRC check drops it,
            # the sender keeps it queued for retransmission.  The
            # corrupted transmission still occupied the channel.
            self._next_inject[channel] = next_attempt
            return
        queue.popleft()
        self._hand_over(channel, flit, now)
        self._next_inject[channel] = next_attempt
        if flit.is_tail:
            packet_vc[channel] = None

    def _pick_vc(self, channel: int) -> Optional[int]:
        """Round-robin among ``channel``'s input VCs with room: the VC
        a head flit takes (None: every VC is full)."""
        v = self.config.num_vcs
        start = self._vc_rr[channel]
        for offset in range(v):
            vc = start + offset
            if vc >= v:
                vc -= v
            if self._input_space(channel, vc) >= 1:
                self._vc_rr[channel] = (vc + 1) % v
                return vc
        return None

    def _retry_at(self, channel: int, now: int) -> int:
        """Wake horizon of a backlogged channel: the earliest cycle
        ``>= now`` past both its throttle and any fault back-off."""
        retry = self._next_inject[channel]
        if self._faults is not None:
            retry = max(retry, self._faults.channel_retry_at(channel))
        return max(retry, now)

    def _delivered(self, flit: Flit, cycle: int) -> None:
        """Account one flit ejected to its host at ``cycle``."""
        if self._count_flits:
            self.measured_flits += 1
        if flit.is_tail:
            if flit.measured:
                self.sample.add(cycle - flit.created_at)
                self._outstanding -= 1
            if self._workload is not None:
                # Delivery unlocks the DAG successors; their sources
                # wake through the workload's eligibility horizon.
                self._workload.deliver(flit.packet_id, cycle)

    # ------------------------------------------------------------------
    # Program
    # ------------------------------------------------------------------

    def _check_startable(self) -> None:
        if self._program is not None:
            raise RuntimeError("a run is already in progress")

    def _start_measure_run(
        self, warmup: int, measure: int, drain: int,
        min_drain_fraction: float,
    ) -> None:
        """Begin the warm-up/measure/drain program without running it."""
        self._check_startable()
        for name, value, least in (
            ("warmup", warmup, 0), ("measure", measure, 1), ("drain", drain, 0)
        ):
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        if not 0.0 <= min_drain_fraction <= 1.0:
            raise ValueError(f"min_drain_fraction must be in [0, 1], got {min_drain_fraction}")
        warm_end = self.cycle + warmup
        measure_end = warm_end + measure
        self._program = {
            "kind": "measure",
            "stage": 0,
            "final": 3,
            "bounds": [warm_end, measure_end, measure_end + drain],
            "measure_start": 0,
            "measured_cycles": 0,
            "min_drain_fraction": min_drain_fraction,
        }

    def start_workload_run(self, max_cycles: int = 1_000_000) -> None:
        """Begin the workload-DAG program without running it."""
        self._check_startable()
        if self._workload is None:
            raise ValueError(
                f"run_workload() needs a {type(self).__name__}(workload=...)"
            )
        if max_cycles < 1:
            raise ValueError(f"max_cycles must be >= 1, got {max_cycles}")
        self._count_flits = True
        self._program = {
            "kind": "workload",
            "stage": 0,
            "final": 1,
            "bounds": [self.cycle + max_cycles],
            "run_start": self.cycle,
        }

    def advance_run(self, stop_at: Optional[int] = None) -> bool:
        """Advance the active program; True once it has completed.

        With ``stop_at`` set, pauses at the first *executed* cycle at
        or beyond it (fast-forward jumps land on their natural targets
        first, so pausing never perturbs the jump structure and the
        resumed run stays byte-identical to an uninterrupted one).
        """
        program = self._program
        if program is None:
            raise RuntimeError("no run in progress; call start_run() first")
        sched = self._sched
        paused = (
            None if stop_at is None else (lambda: sched.now >= stop_at)
        )
        while program["stage"] < program["final"]:
            stage = program["stage"]
            end = program["bounds"][stage]
            finished = self._stage_finished(program, stage)
            if finished is None or not finished():
                # A stage already over on entry would stop at run_until's
                # first check: it is closed without pre-drawing its window.
                self._extend_draws(end)
                sched.run_until(end, stop=_either(paused, finished))
                if sched.now < end and not (
                    finished is not None and finished()
                ):
                    return False  # paused mid-stage
            self._close_stage(program, stage)
        return True

    def _stage_finished(
        self, program: Dict[str, Any], stage: int
    ) -> Predicate:
        """What ends ``stage`` ahead of its bound (None: nothing does)."""
        if program["kind"] == "workload":
            return self._workload.done
        if stage == _DRAIN:
            return lambda: self._outstanding <= 0
        return None

    def _close_stage(self, program: Dict[str, Any], stage: int) -> None:
        """Apply the flag flips at a completed stage boundary."""
        program["stage"] = stage + 1
        if program["kind"] != "measure":
            return
        if stage == _WARMUP:  # start labeling
            self._measuring = True
            self._count_flits = True
            program["measure_start"] = self.cycle
        elif stage == _MEASURE:  # measurement window closed
            self._measuring = False
            self._count_flits = False
            program["measured_cycles"] = (
                self.cycle - program["measure_start"]
            )

    def _summarize_run(
        self, num_ports: int, capacity: float
    ) -> Tuple[RunResult, bool]:
        """Close the completed program: ``(result, was a workload run)``.

        The caller folds its stack's extras into the result; a workload
        run's ``undelivered`` extra is already set.
        """
        program = self._program
        if program is None:
            raise RuntimeError("no run in progress")
        if program["stage"] < program["final"]:
            raise RuntimeError("run has not completed; advance_run() first")
        self._program = None
        workload_run = program["kind"] == "workload"
        if workload_run:
            workload = self._workload
            self._count_flits = False
            for latency in workload.message_latencies():
                self.sample.add(latency)
            offered_load = 0.0
            measured_cycles = max(1, self.cycle - program["run_start"])
            saturated = not workload.done()
        else:
            delivered_fraction = (
                1.0
                if self._labeled_total == 0
                else 1.0 - self._outstanding / self._labeled_total
            )
            offered_load = self.load
            measured_cycles = program["measured_cycles"]
            saturated = delivered_fraction < program["min_drain_fraction"]
        result = summarize(
            offered_load=offered_load,
            sample=self.sample,
            measured_flits=self.measured_flits,
            measured_cycles=measured_cycles,
            num_ports=num_ports,
            capacity=capacity,
            saturated=saturated,
            cycles=self.cycle,
        )
        if workload_run:
            result.extra["undelivered"] = float(workload.remaining)
        return result, workload_run

    # ------------------------------------------------------------------
    # Checkpoint glue
    # ------------------------------------------------------------------

    def _capture_run(self) -> Dict[str, Any]:
        """Live references to the run state every stack shares.

        The stack merges its own state into the returned bundle and
        deep-copies the whole in one pass, so aliasing (the workload
        shared by every source, a flit in a buffer and the in-flight
        heap) survives into the capture.  Call before anything else
        is touched: a sanitized simulation is refused here.
        """
        if self.sanitizer is not None:
            raise ValueError(
                "cannot checkpoint a sanitized simulation; rerun the "
                "sanitizer after restore instead"
            )
        return {
            "sched": self._sched.snapshot(),
            "packet_ids": self._next_packet_id,
            "program": self._program,
            "workload": self._workload,
            "measuring": self._measuring,
            "count_flits": self._count_flits,
            "outstanding": self._outstanding,
            "labeled_total": self._labeled_total,
            "sample": self.sample,
            "measured_flits": self.measured_flits,
            "faults": (
                None if self._faults is None else self._faults.snapshot()
            ),
            "tracer": (
                None if self._tracer is None else dict(vars(self._tracer))
            ),
        }

    def _check_run(self, state: Dict[str, Any]) -> None:
        """Refuse a capture this simulation was not built to resume.

        Called before any state is touched.
        """
        if self.sanitizer is not None:
            raise ValueError("cannot restore onto a sanitized simulation")
        if Scheduler.captured_mode(state["sched"]) != self._sched.mode:
            raise ValueError(
                "scheduler mode mismatch between snapshot and simulation"
            )
        for key, what, mine in (
            ("faults", "fault plan", self._faults),
            ("workload", "workload", self._workload),
            ("tracer", "tracer", self._tracer),
        ):
            if (state[key] is None) != (mine is None):
                raise ValueError(
                    f"{what} mismatch between snapshot and simulation"
                )

    def _apply_run(self, state: Dict[str, Any]) -> None:
        """Apply :meth:`_capture_run`'s part of a (copied) capture.

        Call after the routers are restored: the fault injector
        resolves its lost-credit sinks against the live counters.
        """
        self._sched.restore(state["sched"])
        self._next_packet_id = state["packet_ids"]
        self._program = state["program"]
        self._workload = state["workload"]
        self._measuring = state["measuring"]
        self._count_flits = state["count_flits"]
        self._outstanding = state["outstanding"]
        self._labeled_total = state["labeled_total"]
        self.sample = state["sample"]
        self.measured_flits = state["measured_flits"]
        if self._faults is not None:
            self._faults.restore(state["faults"])
        if self._tracer is not None:
            vars(self._tracer).clear()
            vars(self._tracer).update(state["tracer"])

    def save_checkpoint(self, path) -> None:
        """Persist this simulation (state plus rebuild spec) to disk.

        Resume with :func:`repro.harness.checkpoint.load_checkpoint`.
        """
        checkpoint.save_checkpoint(self, path)
