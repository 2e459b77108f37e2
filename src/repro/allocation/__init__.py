"""Distributed allocator microarchitectures (Sections 4.1-4.4)."""

from .islip import IslipAllocator
from .switch_alloc import OutputArbiterBank
from .vc_alloc import OvaPolicy

__all__ = [
    "IslipAllocator",
    "OutputArbiterBank",
    "OvaPolicy",
]
