"""Host-speed calibration: a frozen pure-Python kernel, sampled while
the timed operation runs.

The sandbox's speed moves between states up to 2x apart that last
0.5-2 s each (a 5 ms burst of the kernel below reads anywhere from 3.5
to 7.5 ms over a minute, CPU time tracking wall time), so an
operation's raw seconds say as much about *when* it ran as about the
code.  Every timed operation therefore runs under a :class:`Sampler`:
an interval timer interrupts it every ``SAMPLE_PERIOD_S`` to run one
burst of the kernel, and the operation's time is reported in
*reference-speed seconds* -- each stretch between two bursts is scaled
by the speed the bursts on either side of it measured::

    calibrated = sum(stretch_i * CAL_REF_S / mean(burst_i, burst_i+1))

The kernel imports nothing from ``repro``: no change to the simulator
can move the reference.  It is FROZEN -- editing :func:`kernel`,
``KERNEL_ITERS``, ``CAL_REF_S`` or ``SAMPLE_PERIOD_S`` redefines every
time-valued metric of the benchmark and invalidates earlier results.
"""

from __future__ import annotations

import signal
from typing import List, Sequence, Tuple

import clock

#: Iterations of one burst (about 5 ms on the reference host).
KERNEL_ITERS = 20_000
#: CPU seconds one burst takes at reference speed (this sandbox's
#: median over several minutes); the unit all calibrated times are in.
CAL_REF_S = 0.004
#: Interval between bursts while an operation is being timed.
SAMPLE_PERIOD_S = 0.05

#: One burst: (wall start, wall end, CPU seconds the kernel took).
Sample = Tuple[float, float, float]


class _Cell:
    """Slotted object, like the simulator's flits and buffers."""

    __slots__ = ("count", "items", "flag")

    def __init__(self) -> None:
        self.count = 0
        self.items: List[int] = []
        self.flag = False


def kernel(iters: int = KERNEL_ITERS) -> int:
    """The interpreter operations the simulator's hot loops are made of.

    Slotted-attribute reads and writes, ``list.append``/``pop``,
    ``dict`` get/set, ``len()`` and small-int arithmetic over 64
    objects.  Returns a checksum so the loop cannot be elided and a
    test can pin the arithmetic.
    """
    cells = [_Cell() for _ in range(64)]
    table = {}
    acc = 0
    for i in range(iters):
        cell = cells[i & 63]
        cell.count += 1
        items = cell.items
        items.append(i)
        if len(items) > 4:
            acc += items.pop()
        key = i & 255
        table[key] = table.get(key, 0) + cell.count
        cell.flag = not cell.flag
        if cell.flag:
            acc ^= key
    return acc + len(table)


def burst() -> Sample:
    """Run the kernel once."""
    start = clock.wall()
    cpu0 = clock.cpu_self()
    kernel()
    cpu = clock.cpu_self() - cpu0
    return (start, clock.wall(), cpu)


def integrate(
    start: float, end: float, samples: Sequence[Sample], inline: bool
) -> Tuple[float, float]:
    """(raw seconds, reference-speed seconds) of the operation [start, end].

    ``samples`` are in time order; the first ends before ``start`` and
    the last begins after ``end``.  With ``inline`` the bursts ran on
    the operation's own thread, so the time they took is not the
    operation's and is left out; otherwise (the operation is another
    process this one only waits for) the clock kept running for it
    during a burst, and that stretch counts at the burst's own speed.
    """
    raw = 0.0
    cal = 0.0
    for (_, a_end, a_cpu), (b_start, b_end, b_cpu) in zip(samples, samples[1:]):
        lo = max(a_end, start)
        hi = min(b_start, end)
        if hi > lo:
            raw += hi - lo
            cal += (hi - lo) * CAL_REF_S / (0.5 * (a_cpu + b_cpu))
        if not inline:
            lo = max(b_start, start)
            hi = min(b_end, end)
            if hi > lo:
                raw += hi - lo
                cal += (hi - lo) * CAL_REF_S / b_cpu
    return raw, cal


class Sampler:
    """Context manager timing its body in raw and reference-speed seconds.

    Takes one burst before the body, one every ``SAMPLE_PERIOD_S``
    while it runs (from a ``SIGALRM`` handler, so on the main thread
    between two bytecodes of the body) and one after it.  Main thread
    only; the previous handler is put back on exit.
    """

    def __init__(self, inline: bool = True) -> None:
        self.inline = inline
        self.samples: List[Sample] = []
        self.raw_s = 0.0
        self.cal_s = 0.0
        #: Wall seconds spent in bursts so far.
        self.burst_s = 0.0
        self._in_burst = False

    def _on_alarm(self, signum, frame) -> None:
        # A stalled process can find the next alarm already pending
        # when this handler is still inside its burst.
        if self._in_burst:
            return
        self._in_burst = True
        try:
            sample = burst()
            self.samples.append(sample)
            self.burst_s += sample[1] - sample[0]
        finally:
            self._in_burst = False

    def body_clock(self) -> float:
        """Wall clock that stands still during bursts (inline bodies):
        what the traced pass times the layers with."""
        return clock.wall() - self.burst_s

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.samples.append(burst())
        self._start = clock.wall()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        end = clock.wall()
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(burst())
        self.raw_s, self.cal_s = integrate(
            self._start, end, self.samples, self.inline
        )

    @property
    def factor(self) -> float:
        """Calibrated over raw seconds: < 1 when the host ran slow."""
        return self.cal_s / self.raw_s
