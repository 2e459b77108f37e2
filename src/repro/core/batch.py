"""Struct-of-arrays mirrors for the batched hot path.

The batched arbitration path (``config.batch_hot_path``) replaces the
per-flit Python scans of the eligibility loops with whole-matrix numpy
operations.  For that to work without walking every buffer each cycle,
the scan inputs — queue occupancies, head-flit facts, credit
availability, output-VC ownership, resource busy horizons — must
already live in flat arrays.  This module provides drop-in subclasses
of the scalar state primitives that keep such arrays up to date
*incrementally*: every mutation path (push/pop/clear, consume/restore,
allocate/release, reserve/extend) writes its one array slot as it runs,
so the arrays are consistent with the objects at every instant and the
batched stages only ever read them.

Mirroring is a construction-time substitution: the scalar objects are
replaced (while empty / full / idle) by mirrored twins sharing arrays
with the router.  Scalar semantics are inherited wholesale — each
override calls ``super()`` first and then updates its slot — so the
mirrored objects are byte-identical stand-ins on the scalar path too.

Checkpoint interop: the arrays live both on the router (for the stage
math) and inside the mirrored objects (for the incremental writes), as
the *same* array objects.  A checkpoint pickles the whole simulation,
so pickle's memo preserves that aliasing and a loaded router keeps
writing through to the arrays it reads.  Persistent references must
therefore always be to the flat base arrays — pickle does not preserve
numpy base/view relationships, so reshaped views are created fresh
inside each stage instead of being stored.
"""

from __future__ import annotations

from typing import List, Optional

from .arbiter import HAVE_NUMPY, require_numpy
from .buffers import FlitQueue, VcBufferBank
from .credit import CreditCounter
from .errors import invariant
from .flit import Flit
from .pipeline import BusyTracker
from .vcstate import OutputVcState

__all__ = [
    "HAVE_NUMPY",
    "QueueArrays",
    "MirroredFlitQueue",
    "MirroredCreditCounter",
    "MirroredOutputVcState",
    "ArrayBusyTracker",
    "mirror_vc_bank",
    "mirror_credit_array",
    "mirror_output_vcs",
]


class QueueArrays:
    """Flat per-queue fact arrays shared by a family of mirrored queues.

    One slot per queue: occupancy, and the head flit's ``is_head`` flag,
    routing key (destination port), injection cycle, and packet id.
    Head-flit slots are stale while a queue is empty; every batched
    consumer masks them with ``occ > 0`` first.
    """

    __slots__ = ("occ", "head", "key", "inj", "pid")

    def __init__(self, count: int) -> None:
        _np = require_numpy()
        self.occ = _np.zeros(count, dtype=_np.int64)
        self.head = _np.zeros(count, dtype=bool)
        self.key = _np.full(count, -1, dtype=_np.int64)
        self.inj = _np.zeros(count, dtype=_np.int64)
        self.pid = _np.full(count, -1, dtype=_np.int64)


class MirroredFlitQueue(FlitQueue):
    """A :class:`FlitQueue` that mirrors its state into shared arrays.

    Safe because every fact written is settled before the push that
    exposes it: ``injected_at`` is stamped in ``accept`` before the
    push, and ``dest`` / ``packet_id`` / ``is_head`` are immutable
    while buffered.
    """

    __slots__ = ("_idx", "_arrays")

    def __init__(
        self, maxlen: Optional[int], idx: int, arrays: QueueArrays
    ) -> None:
        super().__init__(maxlen)
        self._idx = idx
        self._arrays = arrays

    def _write_head(self, flit: Flit) -> None:
        a, i = self._arrays, self._idx
        a.head[i] = flit.is_head
        a.pid[i] = flit.packet_id
        a.inj[i] = flit.injected_at
        a.key[i] = flit.dest

    def push(self, flit: Flit) -> None:
        super().push(flit)
        n = len(self._q)
        self._arrays.occ[self._idx] = n
        if n == 1:
            self._write_head(flit)

    def pop(self) -> Flit:
        flit = super().pop()
        q = self._q
        self._arrays.occ[self._idx] = len(q)
        if q:
            self._write_head(q[0])
        return flit

    def clear(self) -> List[Flit]:
        drained = super().clear()
        self._arrays.occ[self._idx] = 0
        return drained


class MirroredCreditCounter(CreditCounter):
    """A :class:`CreditCounter` mirroring its go/no-go bit into an array.

    ``ok[idx]`` holds the combined :attr:`available` predicate
    (``free > 0 and not stuck``) so the batched eligibility scan needs a
    single gather.  ``stuck`` becomes a property (shadowing the parent
    slot) so fault injectors that assign ``counter.stuck`` directly keep
    the array in sync.
    """

    __slots__ = ("_idx", "_ok", "_stuck")

    def __init__(self, capacity: int, idx: int, ok) -> None:
        # Child slots must exist before the parent constructor runs:
        # it assigns ``self.stuck``, which lands on the property below.
        self._idx = idx
        self._ok = ok
        super().__init__(capacity)

    @property
    def stuck(self) -> bool:
        return self._stuck

    @stuck.setter
    def stuck(self, value: bool) -> None:
        self._stuck = value
        self._ok[self._idx] = self._free > 0 and not value

    def consume(self) -> None:
        super().consume()
        self._ok[self._idx] = self._free > 0 and not self._stuck

    def restore(self) -> None:
        super().restore()
        self._ok[self._idx] = self._free > 0 and not self._stuck


class MirroredOutputVcState(OutputVcState):
    """An :class:`OutputVcState` mirroring owners into a flat array.

    ``owner_arr[base + vc]`` is the owning packet id, -1 when free.
    """

    __slots__ = ("_base", "_owner_arr")

    def __init__(self, num_vcs: int, base: int, owner_arr) -> None:
        super().__init__(num_vcs)
        self._base = base
        self._owner_arr = owner_arr

    def allocate(self, vc: int, packet_id: int) -> None:
        super().allocate(vc, packet_id)
        self._owner_arr[self._base + vc] = packet_id

    def release(self, vc: int, packet_id: int) -> None:
        super().release(vc, packet_id)
        self._owner_arr[self._base + vc] = -1


class ArrayBusyTracker(BusyTracker):
    """A :class:`BusyTracker` whose horizon vector is a numpy array.

    The inherited scalar methods index the array directly; batched
    stages read ``array <= now`` as the free mask in one comparison.
    """

    __slots__ = ()

    def __init__(self, count: int) -> None:
        super().__init__(count)
        _np = require_numpy()
        self._busy_until = _np.zeros(count, dtype=_np.int64)

    @property
    def array(self):
        """The underlying busy-until vector (read-only by convention)."""
        return self._busy_until

    def busy_until(self, idx: int) -> int:
        return int(self._busy_until[idx])


# ----------------------------------------------------------------------
# Construction-time substitution helpers
# ----------------------------------------------------------------------


def mirror_vc_bank(
    bank: VcBufferBank, arrays: QueueArrays, base: int
) -> None:
    """Replace ``bank``'s queues with mirrored twins at ``base + vc``.

    Only valid while the bank is empty (mirroring happens at
    construction / attach time, before any traffic).
    """
    invariant(len(bank) == 0, "cannot mirror a non-empty buffer bank",
              check="batch-mirror")
    bank.queues = [
        MirroredFlitQueue(q.maxlen, base + vc, arrays)
        for vc, q in enumerate(bank.queues)
    ]


def mirror_credit_array(counters: List[CreditCounter], ok, base: int) -> List[
        MirroredCreditCounter]:
    """Mirrored twins of ``counters`` writing ``ok[base + n]``.

    Only valid while every counter is full and unstuck (construction
    time); the twins start full, which is then consistent with the
    ``ok`` slots they initialize to True.
    """
    out = []
    for n, counter in enumerate(counters):
        invariant(counter.free == counter.capacity and not counter.stuck,
                  "cannot mirror a partially drained credit counter",
                  check="batch-mirror")
        out.append(MirroredCreditCounter(counter.capacity, base + n, ok))
    return out


def mirror_output_vcs(states: List[OutputVcState], owner_arr) -> List[
        MirroredOutputVcState]:
    """Mirrored twins of per-output VC ledgers over one flat owner array."""
    out = []
    base = 0
    for state in states:
        invariant(all(o is None for o in state.owners),
                  "cannot mirror an owned VC ledger", check="batch-mirror")
        out.append(
            MirroredOutputVcState(len(state.owners), base, owner_arr)
        )
        base += len(state.owners)
    return out
