"""Self-test of the ratio-floor timing helper.

The speed-state flip ``paired_best`` exists to cancel is simulated with
an injected clock, so the test is deterministic on any host.
"""

import pytest

from common import paired_best


class SteppedClock:
    """A clock on a host whose speed doubles after ``switch_at`` units
    of work: a unit costs 1.0 s before the switch and 0.5 s after."""

    def __init__(self, switch_at):
        self.switch_at = switch_at
        self.done = 0
        self.now = 0.0

    def work(self, units):
        for _ in range(units):
            self.now += 1.0 if self.done < self.switch_at else 0.5
            self.done += 1

    def __call__(self):
        return self.now


A_UNITS, B_UNITS, ROUNDS = 100, 50, 4  # true ratio a/b = 2.0
#: The flip lands where a sequential best-of changes legs — two thirds
#: of the way through either schedule's work.
FLIP = A_UNITS * ROUNDS


def test_paired_best_cancels_a_mid_run_speed_flip():
    clock = SteppedClock(FLIP)
    (a, _), (b, _) = paired_best(
        lambda: clock.work(A_UNITS), lambda: clock.work(B_UNITS),
        ROUNDS, clock=clock)
    assert abs(a / b - 2.0) <= 0.2

    # What it replaced — every round of a, then every round of b —
    # times the legs in different speed states and reads ~2x off.
    clock = SteppedClock(FLIP)
    best = []
    for units in (A_UNITS, B_UNITS):
        times = []
        for _ in range(ROUNDS):
            start = clock()
            clock.work(units)
            times.append(clock() - start)
        best.append(min(times))
    assert best[0] / best[1] >= 3.5


def test_paired_best_keeps_setup_off_the_clock_and_pins_checksums():
    clock = SteppedClock(switch_at=0)
    calls = []

    def setup():
        clock.work(1000)
        return 7

    def body(units):
        calls.append(units)
        clock.work(units)
        return len(calls)  # changes every round

    (a, a_sum), (b, b_sum) = paired_best(
        (setup, body), lambda: "same", rounds=1, clock=clock)
    # body(7) at 0.5 s a unit; none of setup's 1000 units are charged.
    assert (a, a_sum, b, b_sum) == (3.5, 1, 0.0, "same")
    with pytest.raises(AssertionError, match="not deterministic"):
        paired_best((setup, body), lambda: "same", rounds=2, clock=clock)
