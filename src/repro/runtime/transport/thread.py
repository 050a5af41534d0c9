"""The in-process thread transport: the default and the oracle.

Every rank is a daemon thread of this interpreter sharing one
:class:`~repro.runtime.communicator.Fabric`, so payloads move by
reference (zero copies), the full chaos wire / integrity / failure
detector / rejoin machinery applies, and results are deterministic
enough to serve as the bit-exactness oracle the process backend is
differentially tested against.

Threads trade wall-clock parallelism for semantics: compute serializes
on the GIL, which is exactly what the shared-memory process transport
(:mod:`repro.runtime.transport.process`) exists to remove.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

from ...obs import flight as _flight
from .base import Deadline, Transport, WorkerError, join_group

__all__ = ["ThreadTransport"]


class ThreadTransport(Transport):
    """Run every rank as a thread of this process on one shared fabric."""

    name = "thread"
    supports_detector = True
    supports_tracer = True
    chaos = "full"

    def __init__(self, fabric: Any = None, postmortem_to: Optional[str] = None):
        #: the fabric all ranks share; built at launch when not supplied.
        self.fabric = fabric
        #: explicit post-mortem dump directory (falls back to the
        #: ``REPRO_POSTMORTEM_DIR`` environment variable).
        self.postmortem_to = postmortem_to
        #: post-mortem bundle of the most recent *failed* launch (None
        #: after a clean one), and where it was written (if anywhere).
        self.last_postmortem: Optional[Dict] = None
        self.last_postmortem_path: Optional[str] = None

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
                    fab.abort(f"rank {rank} raised {exc!r}")

        threads = [
            threading.Thread(target=target, args=(r,), name=f"worker-{r}", daemon=True)
            for r in range(world_size)
        ]
        for t in threads:
            t.start()
        join_group(
            threads,
            Deadline(timeout),
            on_timeout=lambda: fab.abort("join timeout"),
        )
        self.last_postmortem = None
        self.last_postmortem_path = None
        first = next((e for e in errors if e is not None), None)
        aborted = fab._aborted
        if first is not None or aborted:
            if first is not None:
                reason = {
                    "kind": type(first.original).__name__,
                    "detail": str(first.original),
                    "rank": first.rank,
                }
            else:
                reason = {"kind": "abort", "detail": aborted}
            bundle = _flight.build_postmortem(
                self.name,
                world_size,
                reason,
                fab.flight.snapshot(),
                failed=fab.failed_ranks(),
                aborted=aborted,
            )
            self.last_postmortem = bundle
            directory = self.postmortem_to or _flight.postmortem_dir()
            if directory:
                self.last_postmortem_path = _flight.dump_postmortem(
                    bundle, directory
                )
        return results, errors
