"""Transport interface: how a group of ranks is executed and wired up.

A :class:`Transport` owns the *execution substrate* of one worker group —
threads of this interpreter, or forked processes talking over shared
memory — behind one contract:

``launch(world_size, fn, timeout, elastic, detector, pool_bytes)`` runs
``fn(comm)`` once per rank and returns ``(results, errors)`` indexed by rank, where
``errors[r]`` is a :class:`WorkerError` wrapping whatever rank ``r``
raised (``None`` when it returned).  Non-elastic callers raise the
launch's :func:`cause`; elastic callers treat a dead rank as a fail-stop
event that the survivors observed as ``PeerFailed``.

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

Underneath, both transports run the *same*
:class:`~repro.runtime.communicator.Fabric` — matching, disturbance
epochs, integrity, chaos, metrics and the flight recorder exist once —
over a :class:`Wire`, the small part that really differs: how a message
reaches the peer's fabric object and how a blocked rank waits.  There
are no capability flags: every :class:`~repro.runtime.chaos.ChaosPolicy`
knob, the tracer and the metrics work on either backend.  The one thing
still thread-only is the heartbeat failure detector (and what is defined
in terms of heartbeats: rejoin, ``flap_rank``); asking the process
backend for it is a loud ``ValueError`` at launch, never a silent
downgrade.
"""

from __future__ import annotations

import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ...obs import flight as _flight

__all__ = ["Deadline", "Transport", "Wire", "WorkerError", "cause", "join_group"]


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


def cause(
    errors: Sequence[Optional[WorkerError]], origin: Optional[int] = None
) -> Optional[WorkerError]:
    """The error a failed launch is blamed on: the one raised by the rank
    the group's abort names (``origin``), else the lowest-ranked one.

    A rank that raises aborts the group, so the peers it poisons raise
    ``FabricAborted`` (or ``PeerFailed``) too — consequences, whatever
    their rank."""
    if origin is not None and errors[origin] is not None:
        return errors[origin]
    return next((e for e in errors if e is not None), None)


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


class Wire:
    """What one backend does differently under the one ``Fabric``.

    The fabric calls every method with its lock held.  The defaults
    describe a wire with nothing in flight and no group state outside
    the fabric object itself; ``send``, ``wait`` and ``make_pool`` have
    no default.  DESIGN.md §14 has the contract as a table.
    """

    #: the ranks whose endpoint this is (first one = where rank-less
    #: events such as ``abort`` are recorded).
    ranks: Sequence[int] = ()
    #: whether frames carry their own byte-level digest; the fabric then
    #: stamps no structural CRC and arrived messages carry ``crc=None``.
    verifies: bool = False

    def attach(self, fabric: Any) -> None:
        """Bind to the fabric whose ``_arrive_locked`` takes arrivals."""
        raise NotImplementedError

    def send(self, msg: Any) -> None:
        """Put ``msg`` on the wire; may block on back-pressure."""
        raise NotImplementedError

    def poll(self) -> None:
        """Hand every message that has arrived to the fabric."""

    def wait(self, wait_for: float) -> None:
        """Idle up to ``wait_for`` seconds or until something may have
        changed, whichever is first."""
        raise NotImplementedError

    def sync(self) -> Optional[Tuple[Optional[str], Dict[int, Tuple]]]:
        """``(abort reason, failed records)`` when peers outside this
        object published news since the last call, else ``None``."""
        return None

    def publish_abort(self, reason: str, rank: Optional[int]) -> None:
        """Make an abort, and the rank it names, visible to peers outside
        this object."""

    def publish_fail(self, rank: int, reason: str, step: Optional[int]) -> None:
        """Make a fail-stop record visible to peers outside this object."""

    def publish_progress(self, rank: int, step: int) -> None:
        """Make a progress report visible outside this object."""

    def make_pool(self, factory: Callable[[], Any]) -> Any:
        """The buffer pool the endpoint's ranks share."""
        raise NotImplementedError


class Transport:
    """Execution backend for one worker group (see module docstring)."""

    #: short name used by CLI flags, metrics labels and artefacts.
    name: str = "abstract"
    #: explicit post-mortem dump directory (falls back to the
    #: ``REPRO_POSTMORTEM_DIR`` environment variable).
    postmortem_to: Optional[str] = None
    #: post-mortem bundle of the most recent *failed* launch (None
    #: after a clean one), and where it was written (if anywhere).
    last_postmortem: Optional[Dict] = None
    last_postmortem_path: Optional[str] = None
    #: the rank the most recent launch's abort names (``None``: no abort,
    #: or one no rank caused); :func:`cause` reads it.
    abort_origin: Optional[int] = None

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

    def _postmortem(
        self,
        world: int,
        errors: Sequence[Optional[WorkerError]],
        flights: Callable[[], Dict[str, Dict]],
        failed: Callable[[], Dict],
        aborted: Optional[str],
        clock: Optional[Dict] = None,
        stuck: Sequence[int] = (),
        timeout: float = 0.0,
    ) -> None:
        """The epilogue of every launch: build, keep and dump the bundle
        of a failed one.  The launch's :func:`cause` (read through
        ``abort_origin``, which the launch sets first) names the failure,
        else the abort string; a launch with neither leaves no
        bundle (and calls neither ``flights`` nor ``failed``, which
        snapshot every rank's flight ring and the fail records).  After
        a join timeout, ``stuck`` lists the ranks still running: they
        are named in the bundle and in the ``TimeoutError`` raised from
        here."""
        self.last_postmortem = self.last_postmortem_path = None
        first = cause(errors, self.abort_origin)
        if stuck:
            detail = (
                ", ".join(f"worker-{r}" for r in stuck)
                + f" did not finish within the group deadline ({timeout}s"
            )
            reason = {"kind": "timeout", "detail": detail + ")"}
        elif first is not None:
            reason = {
                "kind": type(first.original).__name__,
                "detail": str(first.original),
                "rank": first.rank,
            }
        elif aborted:
            reason = {"kind": "abort", "detail": aborted}
        else:
            return
        self.last_postmortem = _flight.build_postmortem(
            self.name, world, reason, flights(),
            failed=failed(), aborted=aborted, clock=clock,
        )
        directory = self.postmortem_to or _flight.postmortem_dir()
        if directory:
            self.last_postmortem_path = _flight.dump_postmortem(
                self.last_postmortem, directory
            )
        if stuck:
            raise TimeoutError(detail + " shared across all ranks)")
