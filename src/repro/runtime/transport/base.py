"""Transport interface: how a group of ranks is executed and wired up.

A :class:`Transport` owns the *execution substrate* of one worker group —
threads of this interpreter, or forked processes talking over shared
memory — behind one contract:

``launch(world_size, fn, timeout, elastic, detector, pool_bytes)`` runs
``fn(comm)`` once per rank and returns ``(results, errors)`` indexed by rank, where
``errors[r]`` is a :class:`WorkerError` wrapping whatever rank ``r``
raised (``None`` when it returned).  Non-elastic callers raise the first
error; elastic callers treat a dead rank as a fail-stop event that the
survivors observed as ``PeerFailed``.

Semantics every transport must preserve (the thread transport is the
oracle; ``repro.testing.run_backend_differential`` enforces bit-exact
agreement):

* tag-namespaced FIFO channels with MPI posted-receive matching,
* buffered sends (a send never deadlocks against the matching receive),
* ``abort`` poisons the whole group (``FabricAborted`` everywhere),
* ``fail_rank`` interrupts survivors with ``PeerFailed`` once per
  failure epoch until acknowledged,
* one *group-wide* join deadline — joining P ranks in sequence must not
  stretch the worst case to ``P x timeout`` (:class:`Deadline`).

Capability flags tell callers which optional machinery a backend
supports (``supports_detector``, ``supports_tracer``,
``chaos="full"|"delay-only"|None``); asking for an unsupported feature
is a loud ``ValueError`` at launch, never a silent downgrade.
"""

from __future__ import annotations

import time
import traceback
from typing import Any, Callable, List, Optional, Sequence, Tuple

__all__ = ["Deadline", "Transport", "WorkerError", "join_group"]


class WorkerError(RuntimeError):
    """Wraps an exception raised inside a worker, annotated with its rank."""

    def __init__(self, rank: int, original: BaseException, tb: str):
        super().__init__(f"worker rank {rank} failed: {original!r}\n{tb}")
        self.rank = rank
        self.original = original

    @classmethod
    def capture(cls, rank: int, exc: BaseException) -> "WorkerError":
        """Wrap a live exception with its current traceback."""
        return cls(rank, exc, traceback.format_exc())


class Deadline:
    """One wall-clock budget shared across a group of waits.

    The launcher joins P workers, a blocked receive re-arms its
    condition wait per pass, and the rejoin protocol polls for
    admission — all against *one* deadline each, so a sequence of waits
    cannot stretch the worst case to ``n x timeout``.  This helper is
    that shared arithmetic: construct once, then ask ``remaining()`` /
    ``expired()`` as many times as needed.
    """

    __slots__ = ("limit", "start", "_deadline")

    def __init__(self, limit: float):
        self.limit = limit
        self.start = time.monotonic()
        self._deadline = self.start + limit

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def remaining(self) -> float:
        """Seconds left (clamped at 0.0 — safe to hand to ``join``/``wait``)."""
        return max(0.0, self._deadline - time.monotonic())

    def expired(self) -> bool:
        return time.monotonic() >= self._deadline

    def budget(self, cap: Optional[float] = None) -> float:
        """Remaining time, optionally capped (for polling loops)."""
        rem = self.remaining()
        return rem if cap is None else min(rem, cap)


def join_group(
    workers: Sequence[Any],
    deadline: Deadline,
    on_timeout: Callable[[], None],
    describe: Callable[[Any], str] = lambda w: getattr(w, "name", repr(w)),
) -> None:
    """Join every worker against one shared :class:`Deadline`.

    Works for ``threading.Thread`` and ``multiprocessing.Process`` alike
    (both expose ``join(timeout)`` / ``is_alive()``).  On expiry,
    ``on_timeout()`` gets a chance to poison the group (so survivors
    fail fast instead of hanging) before :class:`TimeoutError` is
    raised naming the stuck worker.
    """
    for w in workers:
        w.join(timeout=deadline.budget())
        if w.is_alive():
            on_timeout()
            raise TimeoutError(
                f"worker {describe(w)} did not finish within the group "
                f"deadline ({deadline.limit}s shared across all ranks)"
            )


class Transport:
    """Execution backend for one worker group (see module docstring)."""

    #: short name used by CLI flags, metrics labels and artefacts.
    name: str = "abstract"
    #: whether a heartbeat failure detector (and the rejoin protocol it
    #: gates) can be attached.
    supports_detector: bool = False
    #: whether per-rank tracing is available.
    supports_tracer: bool = False
    #: chaos support: "full" (every ChaosPolicy knob), "delay-only"
    #: (seeded hold-backs only), or None.
    chaos: Optional[str] = None

    def launch(
        self,
        world_size: int,
        fn: Callable[[Any], Any],
        timeout: float,
        elastic: bool,
        detector: Any = None,
        pool_bytes: Optional[int] = None,
    ) -> Tuple[List[Any], List[Optional[WorkerError]]]:
        """``pool_bytes`` is a hint: the per-rank bytes ``fn`` will draw
        from ``fabric.shared_pool`` (max over ranks), stated by callers
        that can derive it before launch.  A transport whose pool is
        backed by pre-sized shared memory reserves for it; one whose
        pool is the heap ignores it."""
        raise NotImplementedError
