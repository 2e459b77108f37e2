"""Checkpoint files: persist a paused simulation and resume it later.

A checkpoint is one pickle of ``{"format": CHECKPOINT_FORMAT, "sim":
sim}``: the simulation object itself, with its routers, drive loop,
RNG streams, staged run program, workload, fault injector, tracer and
every hook subscription between them.  :func:`load_checkpoint` hands
back the object that was saved — nothing is rebuilt and nothing is
restored in place — so a resumed run is byte-identical to one that
never stopped (``tests/test_checkpoint.py`` pins this for every router
organization and the Clos network, and
``tests/test_state_contracts.py`` walks a loaded twin against its
original).

A checkpoint resumes under the build that wrote it.  A file from a
build whose classes have since changed fails to load with a one-line
``ValueError``, as does a file cut short, and a file of another format
version is refused by number before anything in it is constructed.
Sanitized simulations refuse to checkpoint (rerun the simulation with
``sanitize=True`` instead), and so does a sharded one; everything else
on the simulation must pickle, so a lambda subscribed to a hook bus
makes the save fail and leaves the previous file in place.
"""

from __future__ import annotations

import os
import pickle
import pickletools
from itertools import islice
from typing import Optional

#: On-disk format version, bumped whenever the payload layout changes
#: or the simulation would continue a capture under different rules.
#: Formats 5 and 6 pickle the simulation itself; format 6 draws
#: arrivals as geometric gaps (an arrival queue), where format 5
#: polled every source every cycle.  Formats 1-4 held a hand-written
#: capture plus a constructor spec to rebuild from.  Every other
#: format is refused.
CHECKPOINT_FORMAT = 6


def save_checkpoint(sim, path) -> None:
    """Pickle ``sim`` to ``path``.

    The pickle is written to ``<path>.tmp``, synced to disk, and only
    then renamed onto ``path``: a failure or a kill mid-write leaves the
    previous checkpoint at ``path`` intact.
    """
    if sim.sanitizer is not None:
        raise ValueError(
            "cannot checkpoint a sanitized simulation; rerun the "
            "sanitizer after loading instead"
        )
    payload = {"format": CHECKPOINT_FORMAT, "sim": sim}
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            pickle.dump(payload, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _peek_format(fh) -> Optional[int]:
    """The payload's ``format``, read off the opcode stream without
    constructing anything: a file whose pickled classes have since
    changed shape fails *inside* ``pickle.load``, before the loaded
    payload's version could be looked at.  ``format`` is the first key
    written, so it sits in the first few opcodes (None if absent)."""
    seen_key = False
    for op, arg, _pos in islice(pickletools.genops(fh), 12):
        if seen_key and op.name != "MEMOIZE":
            return arg if isinstance(arg, int) else None
        seen_key = seen_key or arg == "format"
    return None


def load_checkpoint(path):
    """The simulation saved at ``path``, positioned at the saved cycle.

    Returns a :class:`~repro.harness.SwitchSimulation` or
    :class:`~repro.network.netsim.NetworkSimulation`; continue with
    :meth:`advance_run`/:meth:`finish_run` (or plain stepping when no
    run program was active).
    """
    with open(path, "rb") as fh:
        fmt = _peek_format(fh)
        if fmt != CHECKPOINT_FORMAT:
            raise ValueError(
                f"unsupported checkpoint format {fmt!r} "
                f"(this build reads format {CHECKPOINT_FORMAT})"
            )
        fh.seek(0)
        try:
            return pickle.load(fh)["sim"]
        except (EOFError, pickle.UnpicklingError) as exc:
            raise ValueError(
                f"checkpoint {path} is truncated or corrupt: {exc}"
            ) from exc
        except (AttributeError, ImportError) as exc:
            raise ValueError(
                f"checkpoint {path} was written by a build whose classes "
                f"differ from this one's: {exc}"
            ) from exc
