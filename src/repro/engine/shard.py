"""Multi-process shard plumbing: worker processes over pipes.

This module is deliberately generic — it knows nothing about routers
or topologies.  A :class:`ShardPool` owns N worker processes, each
built in the child from a picklable ``factory(payload)`` call and then
driven by a request/reply protocol: the parent sends one message per
worker per step (:meth:`ShardPool.send`), the workers reply in shard
order (:meth:`ShardPool.gather`).  ``send`` returns at once, so the two
halves need not be adjacent: whatever the parent does between them
overlaps the workers' step, and a step must be gathered before the next
is sent.  The network layer (:mod:`repro.network.sharded`) supplies the
factory, the message vocabulary and the assignment of work to workers
(:func:`partition` is the default one); the equivalent of the Tiny Tera
chip slices exchanging cells at every cell time — which works there
because the central scheduler is kept off the data path, the rule the
network layer's exchange follows too.

Workers start under the ``spawn`` method, so the factory and every
payload must be module-level picklable objects (the same constraint
:func:`repro.harness.experiment.map_points` imposes on a sweep
fanned over a process pool) and no parent state leaks into a child
except what the payload carries — which is what makes the per-shard
RNG streams provably identical to the serial run's.

Failure model: a worker that raises ships its formatted traceback
back over the pipe; at its next ``gather`` the parent wraps it in
:class:`ShardWorkerError` (original traceback embedded), terminates the
remaining workers, and re-raises — a crashed shard can never hang the
parent on a ``recv``.  :meth:`ShardPool.close` does not wait for
replies it never gathered: a worker that finds the pipe gone exits
quietly.
"""

from __future__ import annotations

import multiprocessing
import traceback
from typing import Any, Callable, List, Sequence, Tuple


class ShardWorkerError(RuntimeError):
    """A shard worker process failed; carries the remote traceback."""

    def __init__(self, shard: int, remote_traceback: str) -> None:
        super().__init__(
            f"shard worker {shard} failed:\n{remote_traceback}"
        )
        self.shard = shard
        self.remote_traceback = remote_traceback


def partition(items: Sequence, shards: int) -> List[list]:
    """Split ``items`` into ``shards`` contiguous, balanced blocks.

    The assignment is a pure function of (len(items), shards) — no
    hashing, no randomness — so shard membership is reproducible
    across runs and machines, and block sizes differ by at most one.
    """
    n = len(items)
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if shards > n:
        raise ValueError(
            f"cannot split {n} items across {shards} shards; "
            f"shards must be <= {n}"
        )
    return [
        list(items[n * w // shards:n * (w + 1) // shards])
        for w in range(shards)
    ]


def _worker_main(conn, factory: Callable[[Any], Any], payload: Any) -> None:
    """Child entry point: build the worker, serve requests until done.

    The worker object's ``handle(message)`` return value is shipped
    back as ``("ok", reply)``.  Any exception — including during
    construction — ships as ``("error", traceback)`` and ends the
    child.  A ``("stop",)`` message (or a ``("finish", ...)`` reply)
    ends the loop cleanly.
    """
    try:
        worker = factory(payload)
        while True:
            message = conn.recv()
            if message[0] == "stop":
                break
            conn.send(("ok", worker.handle(message)))
            if message[0] == "finish":
                break
    except EOFError:
        pass  # parent went away; nothing to report to
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


class ShardPool:
    """N request/reply worker processes over dedicated pipes.

    Args:
        factory: Module-level callable building the worker object in
            the child; must be picklable under spawn.
        payloads: One constructor payload per worker.
        context: Start method; ``spawn`` (the default) keeps children
            free of inherited parent state.
    """

    def __init__(
        self,
        factory: Callable[[Any], Any],
        payloads: Sequence[Any],
        context: str = "spawn",
    ) -> None:
        ctx = multiprocessing.get_context(context)
        self._procs: List[Any] = []
        self._conns: List[Any] = []
        self._closed = False
        try:
            for payload in payloads:
                parent_end, child_end = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main,
                    args=(child_end, factory, payload),
                    daemon=True,
                )
                proc.start()
                child_end.close()
                self._procs.append(proc)
                self._conns.append(parent_end)
        except BaseException:
            self.terminate()
            raise

    def __len__(self) -> int:
        return len(self._procs)

    @property
    def closed(self) -> bool:
        """True once the workers were stopped, terminated, or lost."""
        return self._closed

    def send(self, shard: int, message: Tuple) -> None:
        """Ship one message to one worker (does not wait for a reply)."""
        self._conns[shard].send(message)

    def gather(self) -> List[Any]:
        """Collect one reply per worker, in shard order.

        A worker that reported an error (or died) aborts the gather:
        the remaining workers are terminated and
        :class:`ShardWorkerError` is raised with the child's original
        traceback, so a crashed shard surfaces immediately instead of
        deadlocking the exchange.
        """
        replies: List[Any] = []
        for shard, conn in enumerate(self._conns):
            try:
                kind, body = conn.recv()
            except (EOFError, ConnectionResetError):
                self.terminate()
                raise ShardWorkerError(
                    shard, "worker process died without reporting a "
                    "traceback"
                )
            if kind == "error":
                self.terminate()
                raise ShardWorkerError(shard, body)
            replies.append(body)
        return replies

    def close(self) -> None:
        """Graceful shutdown: stop every worker, join, then clean up."""
        if self._closed:
            return
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass  # already finished or dead; terminate() reaps it
        self.terminate()

    def terminate(self) -> None:
        """Hard shutdown: close pipes, kill any surviving children."""
        self._closed = True
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
