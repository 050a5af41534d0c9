"""Launch a group of workers on a pluggable transport.

``run_workers(P, fn)`` is the moral equivalent of ``mpiexec -n P``:
``fn(comm)`` runs once per rank, return values come back indexed by
rank, and the first exception anywhere aborts the whole group (peers
blocked in ``recv`` are woken with ``FabricAborted``) and is re-raised
in the caller with its original traceback — that exception, not a
peer's ``FabricAborted``, whatever the ranks.

``run_workers_elastic`` is the fault-tolerant variant: a worker's death
marks only *that rank* failed (:meth:`Fabric.fail_rank`) so survivors —
notified via :class:`~repro.runtime.communicator.PeerFailed` — can
shrink the group and keep training (:mod:`repro.runtime.recovery`).

*Where* the ranks execute is the transport's business
(:mod:`repro.runtime.transport`):

* ``backend="thread"`` (default) — daemon threads of this interpreter
  on one shared zero-copy fabric; the only backend with the failure
  detector and rejoin; the semantic oracle,
* ``backend="process"`` — one forked process per rank, each with the
  same fabric over shared-memory rings; genuinely parallel compute,
  same semantics (chaos and integrity included), bit-exact results
  (``repro.testing.run_backend_differential``).

Passing a pre-built ``fabric`` (to inspect traffic afterwards) implies
the thread backend; a :class:`~repro.runtime.transport.Transport`
instance can be given either as ``fabric=`` or ``backend=``.  Both
variants share one launch path and one *group-wide* join deadline:
``timeout`` bounds the whole group's wall clock, not each rank's join
in sequence.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple, Union

from .communicator import Communicator
from .transport.base import Transport, WorkerError, cause

__all__ = ["run_workers", "run_workers_elastic", "resolve_transport", "WorkerError"]


def resolve_transport(fabric: Any = None, backend: Any = None) -> Transport:
    """Pick the transport for a launch.

    Accepts the historical ``fabric=`` argument (a ``Fabric`` — or, by
    duck-typing, anything with ``communicator()`` — implies the thread
    backend sharing that fabric), a backend name (``"thread"`` /
    ``"process"``), or a ready :class:`Transport` instance through
    either parameter.
    """
    from .transport.process import ProcessTransport
    from .transport.thread import ThreadTransport

    if isinstance(fabric, Transport):
        if backend is not None and backend is not fabric:
            raise ValueError("pass the transport via fabric= or backend=, not both")
        return fabric
    if isinstance(backend, Transport):
        if fabric is not None:
            raise ValueError(
                f"cannot attach a shared fabric to an explicit "
                f"{type(backend).__name__}"
            )
        return backend
    if backend is None or backend == "thread":
        return ThreadTransport(fabric)
    if backend == "process":
        if fabric is not None:
            raise ValueError(
                "backend='process' workers live in separate processes and "
                "cannot share an in-process fabric; drop fabric= (telemetry "
                "is on the transport) or use backend='thread'"
            )
        return ProcessTransport()
    raise ValueError(f"unknown backend {backend!r} (expected 'thread' or 'process')")


def run_workers(
    world_size: int,
    fn: Callable[[Communicator], Any],
    timeout: float = 120.0,
    fabric: Any = None,
    backend: Union[str, Transport, None] = None,
    pool_bytes: Optional[int] = None,
) -> List[Any]:
    """Run ``fn(comm)`` on ``world_size`` ranks; return per-rank results.

    ``timeout`` bounds both individual receives (fabric timeout) and the
    group-wide join, so schedule deadlocks surface as errors rather than
    hangs.  Pass a pre-built ``fabric`` to inspect traffic stats after
    the run (thread backend), or ``backend="process"`` to fork one
    process per rank.  Any worker exception aborts the whole group
    (fail-fast).  ``pool_bytes`` states the largest per-rank working set
    ``fn`` draws from the fabric's buffer pool, when the caller knows it
    (see :meth:`Transport.launch`).
    """
    transport = resolve_transport(fabric, backend)
    results, errors = transport.launch(
        world_size, fn, timeout, elastic=False, pool_bytes=pool_bytes
    )
    err = cause(errors, transport.abort_origin)
    if err is not None:
        raise err
    return results


def run_workers_elastic(
    world_size: int,
    fn: Callable[[Communicator], Any],
    timeout: float = 120.0,
    fabric: Any = None,
    detector=None,
    backend: Union[str, Transport, None] = None,
) -> Tuple[List[Any], List[Optional[WorkerError]]]:
    """Fault-tolerant launch: worker deaths do not poison the fabric.

    Returns ``(results, errors)`` indexed by rank; a rank has exactly one
    of the two.  A dead rank is recorded via :meth:`Fabric.fail_rank` so
    survivors (typically running :func:`repro.runtime.recovery.elastic_worker`)
    observe ``PeerFailed`` and can shrink the group.  The caller decides
    what surviving results mean; nothing is raised here unless the whole
    group exceeds the join deadline.

    Pass a :class:`~repro.runtime.detector.FailureDetector` as
    ``detector`` to arm heartbeat-based suspicion on the launch fabric
    (it is attached to ``fabric`` when one is supplied): slow ranks are
    then *suspected* before being confirmed dead, and a falsely-confirmed
    rank can rejoin (see :mod:`repro.runtime.recovery`).  Detectors
    require the thread backend; on the process backend a worker death is
    instead observed by the launcher itself (the OS reports the exit)
    and published to survivors through the shared control block.
    """
    transport = resolve_transport(fabric, backend)
    return transport.launch(world_size, fn, timeout, elastic=True,
                            detector=detector)
