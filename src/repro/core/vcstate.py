"""Output virtual-channel ownership ledger.

A virtual channel on an output port is *owned* by one packet at a time:
ownership is acquired when the packet's head flit wins VC allocation
and released "upon the transmission of the tail flit" (Section 3).
Every router model and both VC-allocation schemes consult this ledger.
"""

from __future__ import annotations

from typing import List, Optional


class OutputVcState:
    """Ownership ledger for the virtual channels of one output port."""

    __slots__ = ("owners",)

    def __init__(self, num_vcs: int) -> None:
        if num_vcs < 1:
            raise ValueError(f"num_vcs must be >= 1, got {num_vcs}")
        self.owners: List[Optional[int]] = [None] * num_vcs

    def is_free(self, vc: int) -> bool:
        return self.owners[vc] is None

    def owner(self, vc: int) -> Optional[int]:
        return self.owners[vc]

    def allocate(self, vc: int, packet_id: int) -> None:
        if self.owners[vc] is not None and self.owners[vc] != packet_id:
            raise RuntimeError(
                f"output VC {vc} already owned by packet {self.owners[vc]}"
            )
        self.owners[vc] = packet_id

    def release(self, vc: int, packet_id: int) -> None:
        if self.owners[vc] != packet_id:
            raise RuntimeError(
                f"output VC {vc} release by packet {packet_id} but owner is "
                f"{self.owners[vc]}"
            )
        self.owners[vc] = None
