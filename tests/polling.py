"""The per-cycle polling oracle for the injection processes.

Both processes are defined per cycle: a Bernoulli trial at ``rate``
(Section 4.3), or Table 1's two-state ON/OFF chain.  The simulator
never polls them; it draws each packet's gap in one go
(:meth:`~repro.traffic.injection.InjectionProcess.next_gap`).
:func:`should_inject` is the definition those gaps are tested against
(``tests/test_arrival_gaps.py``): one poll of the chain, this cycle.
"""

from repro.core.rng import Rng
from repro.traffic.injection import InjectionProcess, MarkovOnOff


def should_inject(process: InjectionProcess, rng: Rng) -> bool:
    """Advance ``process`` one cycle; True when it generates a packet.

    ON/OFF: an OFF cycle turns ON with probability alpha and then, in
    the same cycle, makes the ON state's trial at ``peak_rate``; a
    packet ends the burst with probability 1/avg_burst.
    """
    if not isinstance(process, MarkovOnOff):
        return rng.random() < process.rate
    if process.rate == 0.0:
        return False
    if not process._on:
        if rng.random() < process._alpha:
            process._on = True
        else:
            return False
    if rng.random() < process.peak_rate:
        if rng.random() < process._beta:
            process._on = False
        return True
    return False


def polled_gaps(process: InjectionProcess, rng: Rng, polls: int):
    """The gaps between the packets of ``polls`` polled cycles (the
    cycles missed before each packet; a trailing partial gap is not
    one)."""
    gaps, missed = [], 0
    for _ in range(polls):
        if should_inject(process, rng):
            gaps.append(missed)
            missed = 0
        else:
            missed += 1
    return gaps
