"""Traffic generation: patterns (Table 1), injection processes, sources."""

from .arrivals import ArrivalQueue
from .injection import Bernoulli, InjectionProcess, MarkovOnOff, make_injection
from .patterns import (
    BitComplement,
    Diagonal,
    Hotspot,
    NeighborExchange,
    Permutation,
    Shuffle,
    Tornado,
    TrafficPattern,
    Transpose,
    UniformRandom,
    WorstCaseHierarchical,
)
from .source import TrafficSource

__all__ = [
    "TrafficPattern",
    "UniformRandom",
    "Diagonal",
    "Hotspot",
    "WorstCaseHierarchical",
    "Transpose",
    "BitComplement",
    "Permutation",
    "Tornado",
    "Shuffle",
    "NeighborExchange",
    "InjectionProcess",
    "Bernoulli",
    "MarkovOnOff",
    "make_injection",
    "TrafficSource",
    "ArrivalQueue",
]
