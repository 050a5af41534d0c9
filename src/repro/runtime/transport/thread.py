"""The in-process thread transport: the default and the oracle.

Every rank is a daemon thread of this interpreter sharing one
:class:`~repro.runtime.communicator.Fabric` over a :class:`LocalWire`,
so payloads move by reference (zero copies), the failure detector and
rejoin protocol are available (the only machinery the process backend
still lacks), and results are deterministic enough to serve as the
bit-exactness oracle the process backend is differentially tested
against.

Threads trade wall-clock parallelism for semantics: compute serializes
on the GIL, which is exactly what the shared-memory process transport
(:mod:`repro.runtime.transport.process`) exists to remove.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, List, Optional, Tuple

from ...obs import flight as _flight
from .base import Deadline, Transport, Wire, WorkerError, join_group

__all__ = ["LocalWire", "ThreadTransport"]


class LocalWire(Wire):
    """Every rank's endpoint is the same ``Fabric`` object: a message
    arrives the moment it is sent, group state is the fabric's own
    dicts (nothing to publish or sync), a blocked rank sleeps on the
    fabric's condition variable and any peer's post wakes it, and the
    pool is the heap."""

    def attach(self, fabric: Any) -> None:
        self.ranks = range(fabric.world_size)
        self.send = fabric._arrive_locked
        self.wait = fabric._cond.wait

    def make_pool(self, factory: Callable[[], Any]) -> Any:
        return factory()


class ThreadTransport(Transport):
    """Run every rank as a thread of this process on one shared fabric."""

    name = "thread"

    def __init__(self, fabric: Any = None, postmortem_to: Optional[str] = None):
        #: the fabric all ranks share; built at launch when not supplied.
        self.fabric = fabric
        self.postmortem_to = postmortem_to

    def launch(
        self,
        world_size: int,
        fn: Callable[[Any], Any],
        timeout: float,
        elastic: bool,
        detector: Any = None,
        pool_bytes: Optional[int] = None,  # the pool is the heap: unused
    ) -> Tuple[List[Any], List[Optional[WorkerError]]]:
        from ..communicator import Fabric

        if self.fabric is not None:
            fab = self.fabric
            if detector is not None:
                if fab.detector is not None and fab.detector is not detector:
                    raise ValueError("fabric already has a different detector")
                fab.detector = detector
        else:
            fab = self.fabric = Fabric(
                world_size, timeout=timeout, detector=detector
            )
        if fab.world_size != world_size:
            raise ValueError("fabric world_size does not match")

        results: List[Any] = [None] * world_size
        errors: List[Optional[WorkerError]] = [None] * world_size

        def target(rank: int) -> None:
            comm = fab.communicator(rank)
            try:
                results[rank] = fn(comm)
            except BaseException as exc:  # noqa: BLE001 - must propagate everything
                errors[rank] = WorkerError.capture(rank, exc)
                fab.flight.rings[rank].record(_flight.EV_WORKER_ERROR, rank)
                if elastic:
                    # fail-stop: only this rank dies; survivors are
                    # notified at their next fabric op and may recover.
                    fab.fail_rank(rank, f"raised {exc!r}")
                else:
                    fab.abort(f"rank {rank} raised {exc!r}", rank)

        threads = [
            threading.Thread(target=target, args=(r,), name=f"worker-{r}", daemon=True)
            for r in range(world_size)
        ]
        for t in threads:
            t.start()
        stuck: List[int] = []

        def on_timeout() -> None:
            stuck.extend(r for r, t in enumerate(threads) if t.is_alive())
            fab.abort("join timeout")

        try:
            join_group(threads, Deadline(timeout), on_timeout)
        except TimeoutError:
            pass  # re-raised by the epilogue, naming every stuck worker
        self.abort_origin = fab.abort_rank
        self._postmortem(
            world_size, errors, fab.flight.snapshot,
            failed=fab.failed_ranks, aborted=fab._aborted,
            stuck=stuck, timeout=timeout,
        )
        return results, errors
