"""Deterministic random-number management.

Every stochastic component (traffic patterns, injection processes,
randomized tie-breaking) draws from its own ``random.Random`` stream
derived from a master seed, so simulations are reproducible both within
and across processes (Python's built-in string ``hash`` is salted per
process, so a stable digest is used instead).
"""

from __future__ import annotations

import hashlib
import random  # no other module under repro/ may import it

#: The RNG stream type handed out by :func:`derive_rng`.  Modules that
#: only *consume* randomness annotate their parameters with this alias
#: instead of importing :mod:`random` themselves: the source scan in
#: ``tests/test_state_contracts.py`` fails on any other module that
#: does, so every stream is seed-derived and reproducible.
Rng = random.Random


def derive_seed(seed: int, *names: object) -> int:
    """Deterministic 64-bit seed for a named component stream.

    Stable across processes and platforms (unlike the builtin salted
    ``hash``): a SHA-256 digest of the seed and name path.
    """
    key = ":".join([str(seed)] + [str(n) for n in names])
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_rng(seed: int, *names: object) -> random.Random:
    """Create an independent RNG stream for a named component.

    The stream is a deterministic function of ``seed`` and the name
    path, e.g. ``derive_rng(1, "traffic", 3)`` for input 3's traffic
    source.  The same arguments always produce the same stream, in any
    process.
    """
    return random.Random(derive_seed(seed, *names))

