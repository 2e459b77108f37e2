"""Flit buffers.

Two building blocks recur throughout the router models:

* ``FlitQueue`` — a bounded FIFO of flits, the unit of storage behind
  every input VC buffer, crosspoint buffer, and subswitch boundary
  buffer in the paper.
* ``VcBufferBank`` — a bank of per-virtual-channel ``FlitQueue``s
  attached to one port (or one crosspoint), as in Figure 4 (input
  buffers) and Figure 12(b) (per-VC crosspoint buffers).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Iterable, Iterator, List, Optional, Tuple

from .errors import InvariantViolation
from .flit import Flit


class FlitQueue:
    """A bounded FIFO of flits.

    ``maxlen`` of ``None`` means unbounded (used for source queues,
    which the measurement methodology treats as infinite).
    """

    __slots__ = ("_q", "maxlen")

    def __init__(self, maxlen: Optional[int] = None) -> None:
        if maxlen is not None and maxlen < 1:
            raise ValueError(f"maxlen must be >= 1 or None, got {maxlen}")
        self.maxlen = maxlen
        self._q: Deque[Flit] = deque()

    def __len__(self) -> int:
        return len(self._q)

    def __bool__(self) -> bool:
        return bool(self._q)

    def __iter__(self) -> Iterator[Flit]:
        return iter(self._q)

    @property
    def free_slots(self) -> int:
        """Remaining capacity; a large sentinel when unbounded."""
        if self.maxlen is None:
            return 1 << 30
        return self.maxlen - len(self._q)

    @property
    def full(self) -> bool:
        return self.maxlen is not None and len(self._q) >= self.maxlen

    def head(self) -> Optional[Flit]:
        """The flit at the front, or None if empty."""
        return self._q[0] if self._q else None

    def push(self, flit: Flit) -> None:
        """Append a flit; raises ``OverflowError`` when full.

        Credit-based flow control is supposed to make overflow
        impossible, so overflow indicates a protocol bug and is loud.
        """
        if self.full:
            raise OverflowError(
                f"flit queue overflow (maxlen={self.maxlen}); "
                "credit protocol violated"
            )
        self._q.append(flit)

    def pop(self) -> Flit:
        """Remove and return the head flit; raises ``IndexError`` if empty."""
        return self._q.popleft()

    def clear(self) -> List[Flit]:
        """Drop and return all buffered flits (used by NACK handling)."""
        drained = list(self._q)
        self._q.clear()
        return drained


class VcBufferBank:
    """Per-virtual-channel buffers attached to one port or crosspoint."""

    __slots__ = ("queues",)

    def __init__(self, num_vcs: int, depth: Optional[int]) -> None:
        if num_vcs < 1:
            raise ValueError(f"num_vcs must be >= 1, got {num_vcs}")
        self.queues: List[FlitQueue] = [FlitQueue(depth) for _ in range(num_vcs)]

    def __len__(self) -> int:
        # Reaches through to the deques: this runs in every occupancy
        # probe of every bank every cycle, so the per-queue Python
        # __len__ dispatch is worth skipping.
        return sum(len(q._q) for q in self.queues)

    def __getitem__(self, vc: int) -> FlitQueue:
        return self.queues[vc]

    @property
    def num_vcs(self) -> int:
        return len(self.queues)

    def occupancy(self) -> int:
        """Total flits buffered across all VCs."""
        return len(self)


def bank_lengths(banks: Iterable[VcBufferBank]) -> List[int]:
    """The length of every queue of ``banks``, bank-major, then by VC:
    one walk for an audit, reading the deques directly."""
    return [len(q._q) for bank in banks for q in bank.queues]


def audit_bounds(
    lengths: List[int],
    depth: int,
    cycle: int,
    where: Callable[[int], Tuple[str, int, Optional[int]]],
) -> None:
    """Audit the ``push`` guard over a walk's queue ``lengths``: a queue
    holding more than ``depth`` flits, however they got there, raises
    ``buffer-bounds``, located by ``where(n)`` as ``(label, port, vc)``.
    (A credited queue needs no bound of its own: its counter's books
    cannot balance with more flits than the buffer holds.)"""
    if lengths and max(lengths) > depth:
        n = next(n for n, held in enumerate(lengths) if held > depth)
        label, port, vc = where(n)
        raise InvariantViolation(
            f"buffer depth exceeded in {label}: {lengths[n]} flits in a "
            f"{depth}-deep queue",
            cycle=cycle, port=port, vc=vc, check="buffer-bounds",
        )


def per_bank(lengths: List[int], num_vcs: int) -> List[int]:
    """Flits per bank, from the bank-major queue ``lengths``."""
    return list(map(sum, zip(*[iter(lengths)] * num_vcs)))
