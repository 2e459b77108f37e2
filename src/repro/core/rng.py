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
from typing import List, Optional, Sequence

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


class StreamRows:
    """Bulk Bernoulli search over many ``random.Random`` streams with
    one numpy Mersenne generator.

    Row ``i`` of :attr:`rows` (``uint32``, 624 key words + position —
    the tuple ``getstate()[1]``) is stream ``i``'s state.  MT19937
    yields bit-identical 53-bit doubles in both libraries, so loading a
    row into the generator and sampling ``chunk`` doubles per call
    consumes the stream exactly as that many ``random()`` calls would.
    Rows move in and out through a live view of the generator's state
    struct (``bit_generator.ctypes.state_address``): a 2.5 kB copy,
    where ``get_state``/``set_state`` cost as much as a chunk.

    The struct layout is numpy's, not ours, so construction checks it
    (:attr:`usable`); callers fall back to polling the streams one
    ``random()`` at a time when it is False.
    """

    def __init__(self, streams: Sequence[random.Random], chunk: int) -> None:
        np = self._open(chunk)
        self.rows = np.empty((len(streams), 625), dtype=np.uint32)
        for i, stream in enumerate(streams):
            self.push(i, stream)
        self.usable = self._view_is_faithful()

    def _open(self, chunk: int):
        """Build the generator and the view over its state; returns
        numpy."""
        # Imported here, like numpy: 0.5 MB and a few ms that only a
        # simulation building rows should pay.
        import ctypes

        from .arbiter import require_numpy

        np = require_numpy()
        self._chunk = chunk
        # A seeded bit generator: RandomState() and RandomState(seed)
        # both draw OS entropy first.  ``_bits`` owns the memory under
        # ``_view`` and must live as long as it.
        self._bits = np.random.MT19937(0)
        self._draw = np.random.RandomState(self._bits).random_sample
        self._view = np.ctypeslib.as_array(
            (ctypes.c_uint32 * 625).from_address(
                self._bits.ctypes.state_address
            )
        )
        return np

    def __getstate__(self) -> dict:
        # Only the rows are state: a copied view would no longer alias
        # its generator's, so both are rebuilt on load (every search
        # loads its row into the view first).
        return {"rows": self.rows, "chunk": self._chunk, "usable": self.usable}

    def __setstate__(self, state: dict) -> None:
        self._open(state["chunk"])
        self.rows = state["rows"]
        self.usable = state["usable"]

    def _view_is_faithful(self) -> bool:
        """The view reads the generator's key and position, a state
        written through it is the one the generator reports, and the
        doubles drawn from it are ``random.Random``'s."""
        def reported() -> List[int]:
            state = self._bits.state["state"]
            return state["key"].tolist() + [state["pos"]]

        if self._view.tolist() != reported():
            return False
        oracle = random.Random(0)
        written = list(oracle.getstate()[1])
        self._view[:] = written
        return (
            reported() == written
            and self._draw(3).tolist() == [oracle.random() for _ in range(3)]
        )

    def search(self, i: int, rate: float, polls: int) -> Optional[int]:
        """Offset of the first of stream ``i``'s next ``polls`` doubles
        below ``rate``, consuming the stream through that double; None
        (all ``polls`` consumed) when there is none.

        The generator cannot step back, so the row is saved after each
        chunk that misses and the chunk holding the hit is drawn twice:
        once whole, once from the saved row up to the hit.
        """
        view, draw, chunk = self._view, self._draw, self._chunk
        row = self.rows[i]
        view[:] = row
        done = 0
        while done < polls:
            draws = draw(min(chunk, polls - done))
            if draws.min() < rate:
                hit = int((draws < rate).argmax())
                view[:] = row
                draw(hit + 1)
                row[:] = view
                return done + hit
            done += len(draws)
            row[:] = view
        return None

    def skip(self, i: int, polls: int) -> None:
        """Advance stream ``i`` by ``polls`` doubles (a search no
        double in [0, 1) can end)."""
        self.search(i, -1.0, polls)

    def pull(self, i: int, stream: random.Random) -> None:
        """Set ``stream`` to row ``i``'s state (and forget its cached
        Gaussian: the rows carry uniform draws only)."""
        stream.setstate((3, tuple(self.rows[i].tolist()), None))

    def push(self, i: int, stream: random.Random) -> None:
        """Set row ``i`` to ``stream``'s state."""
        self.rows[i] = stream.getstate()[1]
