"""Arbiters.

Section 4.1 of the paper builds its distributed allocators out of small
round-robin arbiters: "to ensure fairness, the arbiter at each stage
maintains a priority pointer which rotates in a round-robin manner
based on the requests."

``RoundRobinArbiter`` is that primitive.  ``HierarchicalArbiter``
composes a layer of local arbiters (one per group of ``group_size``
requesters) with a global arbiter across groups — the local/global
output arbitration of Figure 6.  ``PriorityArbiter`` implements the
two-class (nonspeculative over speculative) arbitration of Figure 10(b).
"""

from __future__ import annotations

import importlib.util
from typing import Any, Collection, List, Optional, Sequence
from .errors import invariant


def _numpy_importable() -> bool:
    """Whether ``import numpy`` would find a module, importing nothing.

    False when numpy is not installed, when it is masked with
    ``sys.modules["numpy"] = None``, and when an import hook refuses it.
    """
    try:
        return importlib.util.find_spec("numpy") is not None
    except (ImportError, ValueError):  # a refusing hook / a spec-less stand-in
        return False


#: numpy is optional (only the struct-of-arrays batched hot path uses
#: it) and costs 0.13 s to import, so nothing imports it until
#: :func:`require_numpy` is called.
HAVE_NUMPY = _numpy_importable()

#: The numpy module once a batched bank has been built, else None.
_np: Any = None


def require_numpy() -> Any:
    """Import numpy on first use; callers bind the result once, at
    construction, never per call in a stage loop."""
    global _np
    if _np is None:
        import numpy

        _np = numpy
    return _np

#: Count-trailing-zeros tables for the packed-bits arbitration path:
#: ``_CTZ[pad][m]`` is the lowest set bit of ``m`` (0 for m == 0,
#: masked off by the grant predicate).  Built lazily per pad width.
_CTZ_TABLES: dict = {}


def _ctz_table(pad: int) -> Any:
    table = _CTZ_TABLES.get(pad)
    if table is None:
        table = _np.zeros(1 << pad, dtype=_np.int64)
        for m in range(1, 1 << pad):
            table[m] = (m & -m).bit_length() - 1
        _CTZ_TABLES[pad] = table
    return table


class RoundRobinArbiter:
    """Round-robin arbiter over ``size`` request lines.

    The priority pointer advances to one past the winner only when a
    grant is issued, which is the rotation rule the paper relies on for
    fairness.
    """

    __slots__ = ("size", "_ptr")

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError(f"arbiter size must be >= 1, got {size}")
        self.size = size
        self._ptr = 0

    @property
    def pointer(self) -> int:
        return self._ptr

    def arbitrate(self, requests: Sequence[bool], advance: bool = True) -> Optional[int]:
        """Grant one of the asserted ``requests``.

        Args:
            requests: One boolean per request line.
            advance: Rotate the priority pointer past the winner.  Pass
                False for speculative grants whose pointer update must
                be deferred (Section 4.4).

        Returns:
            Index of the granted requester, or None if no request.
        """
        if len(requests) != self.size:
            raise ValueError(
                f"expected {self.size} request lines, got {len(requests)}"
            )
        for offset in range(self.size):
            idx = (self._ptr + offset) % self.size
            if requests[idx]:
                if advance:
                    self._ptr = (idx + 1) % self.size
                return idx
        return None

    def grant(self, lines: Collection[int]) -> Optional[int]:
        """:meth:`arbitrate` for a caller that knows which lines are up.

        ``lines`` holds the indices of the asserted request lines, in
        any order.  Same winner and same pointer afterwards as
        ``arbitrate`` on the dense vector (an empty ``lines`` grants
        nothing and leaves the pointer alone), in O(len(lines)) instead
        of a scan of all ``size`` lines.
        """
        size, ptr = self.size, self._ptr
        winner, best = None, size
        for idx in lines:
            if not 0 <= idx < size:
                raise ValueError(
                    f"request line {idx} out of range 0..{size - 1}"
                )
            rank = idx - ptr if idx >= ptr else idx - ptr + size
            if rank < best:
                winner, best = idx, rank
        if winner is not None:
            self._ptr = (winner + 1) % size
        return winner

    def commit(self, winner: int) -> None:
        """Rotate the pointer past ``winner`` (deferred pointer update)."""
        if not 0 <= winner < self.size:
            raise ValueError(f"winner {winner} out of range 0..{self.size - 1}")
        self._ptr = (winner + 1) % self.size


class HierarchicalArbiter:
    """Local/global two-stage arbiter of Figure 6.

    ``size`` requesters are split into groups of ``group_size``.  A
    local round-robin arbiter picks at most one winner per group; a
    global round-robin arbiter then picks one group.  For very high
    radix the paper notes the structure extends to more stages; two
    stages suffice for radix 64 with m=8.
    """

    __slots__ = ("size", "group_size", "_locals", "_global")

    def __init__(self, size: int, group_size: int) -> None:
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        if group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {group_size}")
        self.size = size
        self.group_size = min(group_size, size)
        num_groups = (size + self.group_size - 1) // self.group_size
        self._locals = [
            RoundRobinArbiter(min(self.group_size, size - g * self.group_size))
            for g in range(num_groups)
        ]
        self._global = RoundRobinArbiter(num_groups)

    @property
    def num_groups(self) -> int:
        return len(self._locals)

    def arbitrate(self, requests: Sequence[bool]) -> Optional[int]:
        """Grant one requester via local-then-global arbitration."""
        if len(requests) != self.size:
            raise ValueError(
                f"expected {self.size} request lines, got {len(requests)}"
            )
        local_winners: List[Optional[int]] = []
        for g, local in enumerate(self._locals):
            base = g * self.group_size
            group_reqs = requests[base : base + local.size]
            # Do not advance local pointers until the global winner is
            # known; only the group that actually transmits rotates.
            local_winners.append(local.arbitrate(group_reqs, advance=False))
        group_requests = [w is not None for w in local_winners]
        winning_group = self._global.arbitrate(group_requests)
        if winning_group is None:
            return None
        local_idx = local_winners[winning_group]
        invariant(local_idx is not None, "global arbiter granted a group "
                  "with no local winner", check="arbitration")
        self._locals[winning_group].commit(local_idx)
        return winning_group * self.group_size + local_idx


class BatchArbiterBank:
    """A bank of round-robin arbiters arbitrated as one batched matrix.

    Semantically a list of ``rows`` independent
    :class:`RoundRobinArbiter` instances, but :meth:`arbitrate_all`
    grants every row of a (rows, width) boolean request matrix in one
    rotate-and-argmin pass over struct-of-arrays pointer state instead
    of ``rows`` Python-level scans.  Pointer semantics are bit-identical
    to the scalar arbiter: the pointer rotates to one past the winner on
    a grant (or via the deferred :meth:`commit_rows`), and an all-False row
    leaves its pointer untouched — which is also why skipping a scalar
    arbiter call is equivalent to batching an all-False row.

    Rows may be *ragged*: ``sizes[r]`` request lines are live in row
    ``r`` (callers must leave the padding columns False).  Ranking by
    ``(idx - ptr) % width`` preserves the scalar ``(idx - ptr) %
    sizes[r]`` ordering because wrapped indices keep their relative
    order and land strictly after the unwrapped ones; only the pointer
    rotation needs the true per-row modulus.

    Requires numpy: the buffered crossbar constructs banks only behind
    ``config.batch_hot_path and HAVE_NUMPY``.
    """

    __slots__ = (
        "rows", "width", "_ptr", "_sizes", "_cols", "_mask", "_pad",
    )

    def __init__(
        self,
        rows: int,
        width: int,
        sizes: Optional[Sequence[int]] = None,
    ) -> None:
        if not HAVE_NUMPY:
            raise RuntimeError("BatchArbiterBank requires numpy")
        require_numpy()
        if rows < 1:
            raise ValueError(f"rows must be >= 1, got {rows}")
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        size_list = [width] * rows if sizes is None else [int(s) for s in sizes]
        if len(size_list) != rows:
            raise ValueError(
                f"expected {rows} row sizes, got {len(size_list)}"
            )
        for s in size_list:
            if not 1 <= s <= width:
                raise ValueError(f"row size {s} out of range 1..{width}")
        self.rows = rows
        self.width = width
        # Bitwise-AND modulus for the (common) power-of-two width.
        self._mask = width - 1 if width & (width - 1) == 0 else None
        # Narrow banks use the packed-bits path: each row packs into one
        # machine word, rotation is two shifts, and the winner offset is
        # a count-trailing-zeros table lookup.
        self._pad = 8 if width <= 8 else (16 if width <= 16 else None)
        self._ptr = _np.zeros(rows, dtype=_np.int64)
        self._sizes = _np.asarray(size_list, dtype=_np.int64)
        self._cols = _np.arange(width, dtype=_np.int64)
        if self._pad is not None:
            _ctz_table(self._pad)

    @property
    def pointers(self) -> List[int]:
        """Current priority pointer of every row (scalar-arbiter view)."""
        return [int(p) for p in self._ptr]

    def arbitrate_all(self, requests: Any, advance: bool = True) -> Any:
        """Grant one requester per row of a (rows, width) boolean matrix.

        Returns a length-``rows`` integer array holding the granted
        column per row, or -1 for rows with no asserted request.
        """
        winners, granted = self._arbitrate_numpy(requests, self._ptr)
        if advance:
            self._ptr = _np.where(
                granted, (winners + 1) % self._sizes, self._ptr
            )
        return winners

    def arbitrate_rows(self, rows: Any, requests: Any, advance: bool = True) -> Any:
        """Arbitrate only the given row indices.

        ``requests`` is (len(rows), width); rows not listed behave like
        all-False rows — no grant, no pointer motion — so sparse callers
        can skip provably empty rows without changing semantics.  Each
        row may appear at most once.
        """
        winners, granted = self._arbitrate_numpy(requests, self._ptr[rows])
        if advance:
            hit = _np.nonzero(granted)[0]
            if hit.size:
                grows = rows[hit]
                self._ptr[grows] = (winners[hit] + 1) % self._sizes[grows]
        return winners

    def _arbitrate_numpy(self, requests: Any, ptr: Any) -> "tuple[Any, Any]":
        """Winner/granted vectors for a request matrix against ``ptr``.

        Pure with respect to bank state (pointer updates are the
        caller's).  The packed path rotates each row's request word
        right by its pointer and takes count-trailing-zeros: the
        identical first-asserted-line-at-or-after-the-pointer rule,
        with the pad width as the (order-preserving) ranking modulus.
        """
        if self._pad is not None:
            packed = _np.packbits(requests, axis=1, bitorder="little")
            if self._pad == 8:
                word = packed[:, 0].astype(_np.int64)
            else:
                word = (
                    packed[:, 0].astype(_np.int64)
                    | (packed[:, 1].astype(_np.int64) << 8)
                )
            pad_mask = (1 << self._pad) - 1
            rot = ((word >> ptr) | (word << (self._pad - ptr))) & pad_mask
            offset = _ctz_table(self._pad)[rot]
            granted = word != 0
            winners = _np.where(granted, (ptr + offset) & (self._pad - 1), -1)
            return winners, granted
        rel = self._cols - ptr[:, None]
        rank = rel & self._mask if self._mask is not None else rel % self.width
        masked = _np.where(requests, rank, self.width)
        win_rank = masked.min(axis=1)
        granted = win_rank < self.width
        raw = ptr + win_rank
        if self._mask is not None:
            raw &= self._mask
        else:
            raw %= self.width
        winners = _np.where(granted, raw, -1)
        return winners, granted

    def commit_rows(self, rows: Any, winners: Any) -> None:
        """Vectorized deferred pointer rotation for many rows."""
        self._ptr[rows] = (winners + 1) % self._sizes[rows]


class BatchHierarchicalArbiterBank:
    """A bank of :class:`HierarchicalArbiter` instances batched as one.

    ``count`` independent local/global two-stage arbiters over ``size``
    request lines each, granted together from a (count, size) boolean
    request matrix.  The staging mirrors the scalar arbiter exactly:
    locals arbitrate without advancing, the global arbiter advances on
    grant, and only the winning group's local pointer commits.
    """

    __slots__ = (
        "count", "size", "group_size", "_ngroups", "_padded",
        "_locals", "_global", "_padbuf",
    )

    def __init__(self, count: int, size: int, group_size: int) -> None:
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        if group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {group_size}")
        self.count = count
        self.size = size
        self.group_size = min(group_size, size)
        gs = self.group_size
        self._ngroups = (size + gs - 1) // gs
        self._padded = self._ngroups * gs
        local_sizes = [
            min(gs, size - g * gs) for g in range(self._ngroups)
        ] * count
        self._locals = BatchArbiterBank(
            count * self._ngroups, gs, sizes=local_sizes
        )
        self._global = BatchArbiterBank(count, self._ngroups)
        if self._padded != size:
            # Persistent padded staging buffer; the pad columns stay
            # False because only [:, :size] is ever written.
            self._padbuf = _np.zeros((count, self._padded), dtype=bool)
        else:
            self._padbuf = None

    @property
    def pointers(self) -> "tuple[List[int], List[int]]":
        """(local pointers, global pointers) for state comparisons."""
        return self._locals.pointers, self._global.pointers

    def grant_all(self, requests: Any) -> Any:
        """Grant one input per row of a (count, size) request matrix.

        Returns a length-``count`` integer vector: winning request line
        per row, -1 where no line is asserted.
        """
        if self._padbuf is not None:
            self._padbuf[:, : self.size] = requests
            req = self._padbuf
        else:
            req = requests
        req2 = req.reshape(self.count * self._ngroups, self.group_size)
        local_w = self._locals.arbitrate_all(req2, advance=False)
        group_req = (local_w >= 0).reshape(self.count, self._ngroups)
        gwin = self._global.arbitrate_all(group_req, advance=True)
        rows = _np.nonzero(gwin >= 0)[0]
        winners = _np.full(self.count, -1, dtype=_np.int64)
        if rows.size:
            lrows = rows * self._ngroups + gwin[rows]
            self._locals.commit_rows(lrows, local_w[lrows])
            winners[rows] = gwin[rows] * self.group_size + local_w[lrows]
        return winners


class PriorityArbiter:
    """Two-class arbiter prioritizing nonspeculative requests.

    Figure 10(b): separate arbiters for speculative and nonspeculative
    requests; a speculative request is granted only when there are no
    nonspeculative requests.  "The priority pointer of the speculative
    switch arbiter is only updated after the speculative request is
    granted (i.e. when there are no nonspeculative requests)."
    """

    __slots__ = ("size", "group_size", "_nonspec", "_spec")

    def __init__(self, size: int, group_size: Optional[int] = None) -> None:
        if group_size is None:
            self._nonspec: "HierarchicalArbiter | RoundRobinArbiter" = (
                RoundRobinArbiter(size)
            )
            self._spec: "HierarchicalArbiter | RoundRobinArbiter" = (
                RoundRobinArbiter(size)
            )
        else:
            self._nonspec = HierarchicalArbiter(size, group_size)
            self._spec = HierarchicalArbiter(size, group_size)
        self.size = size
        self.group_size = group_size

    def arbitrate(
        self,
        nonspec_requests: Sequence[bool],
        spec_requests: Sequence[bool],
    ) -> "tuple[Optional[int], bool]":
        """Grant a nonspeculative request if any, else a speculative one.

        Returns:
            (winner index or None, True if the grant was speculative).
        """
        winner = self._nonspec.arbitrate(nonspec_requests)
        if winner is not None:
            return winner, False
        winner = self._spec.arbitrate(spec_requests)
        return winner, winner is not None


class MultiStageArbiter(HierarchicalArbiter):
    """Arbiter tree with an arbitrary number of local stages.

    Section 4.1: "for very high-radix routers, the two-stage output
    arbiter can be extended to a larger number of stages" so that each
    stage's fan-in fits in a clock cycle.  ``group_sizes`` lists the
    fan-in of each local stage from the leaves up; a final global
    arbiter covers whatever remains.  ``MultiStageArbiter(64, [8])``
    is exactly the two-stage :class:`HierarchicalArbiter` of Figure 6;
    ``MultiStageArbiter(512, [8, 8])`` adds a third stage by making
    the global arbiter itself a tree.

    As in the two-stage arbiter, only the arbiters on the winning path
    rotate their pointers.
    """

    def __init__(self, size: int, group_sizes: Sequence[int]) -> None:
        if not group_sizes:
            raise ValueError("group_sizes must be non-empty")
        for g in group_sizes:
            if g < 1:
                raise ValueError(f"group sizes must be >= 1, got {g}")
        super().__init__(size, group_sizes[0])
        self.group_sizes = tuple(group_sizes)
        if len(group_sizes) > 1 and self.num_groups > 1:
            self._global = MultiStageArbiter(self.num_groups, group_sizes[1:])

    @property
    def num_stages(self) -> int:
        """Arbitration stages including the final global one."""
        if isinstance(self._global, MultiStageArbiter):
            return 1 + self._global.num_stages
        return 2
