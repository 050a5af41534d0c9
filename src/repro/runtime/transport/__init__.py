"""Pluggable execution transports for worker groups.

``backend="thread"`` (default) runs every rank as a daemon thread on
one shared in-process :class:`~repro.runtime.communicator.Fabric` —
zero-copy, failure detector and rejoin available, the semantic
oracle.  ``backend="process"`` forks one process per rank, each with
the same ``Fabric`` over a :class:`ShmWire`, and ships frames through
shared-memory rings — genuinely parallel compute, same
tag/FIFO/abort/fail-stop/chaos semantics, bit-exact with the thread
backend.
"""

from .base import Deadline, Transport, Wire, WorkerError, join_group
from .shm import (
    ControlBlock,
    Frame,
    FrameDecoder,
    ShmRing,
    encode_frame,
    ring_offset,
    ring_segment_size,
)
from .thread import LocalWire, ThreadTransport

__all__ = [
    "ControlBlock",
    "Deadline",
    "Frame",
    "FrameDecoder",
    "LocalWire",
    "ProcessTransport",
    "ShmRing",
    "ShmWire",
    "ThreadTransport",
    "Transport",
    "Wire",
    "WorkerError",
    "encode_frame",
    "join_group",
    "ring_offset",
    "ring_segment_size",
]

# the process transport imports the communicator (its children build a
# Fabric), which itself imports .base above — resolve lazily so merely
# importing the communicator cannot recurse into this package.
_LAZY = {"ProcessTransport", "ShmWire"}


def __getattr__(name: str):
    if name in _LAZY:
        from . import process

        return getattr(process, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
