"""Simulated multi-worker message-passing runtime.

Stands in for NCCL/torch.distributed on a machine without GPUs: the
same P2P and ring-collective semantics, in-process, deterministic, with
per-pair traffic accounting.  See DESIGN.md §2 for the substitution
argument.
"""

from .chaos import ChaosCrash, ChaosLayer, ChaosPolicy, ChaosStats
from .collectives import (
    all_gather,
    all_reduce,
    barrier,
    broadcast,
    reduce_scatter,
    split_chunks,
)
from .communicator import (
    Communicator,
    DeclaredDead,
    Fabric,
    FabricAborted,
    PeerFailed,
    RecvTimeout,
)
from .detector import FailureDetector
from .integrity import CorruptFrameError, corrupt_copy, payload_crc32
from .launcher import (
    WorkerError,
    resolve_transport,
    run_workers,
    run_workers_elastic,
)
from .message import Message, TrafficStats, payload_nbytes, tag_kind
from .recovery import ElasticResult, RecoveryEvent, RejoinEvent, elastic_worker
from .subgroup import SubCommunicator, split_grid
from .transport import (
    Deadline,
    ProcessTransport,
    ThreadTransport,
    Transport,
    Wire,
)
from .topology import (
    DEFAULT_INTER,
    DEFAULT_INTRA,
    WREF_NBYTES,
    LinkSpec,
    Topology,
    TopologyError,
    default_groups,
    parse_group_shape,
)

__all__ = [
    "ChaosCrash",
    "ChaosLayer",
    "ChaosPolicy",
    "ChaosStats",
    "Communicator",
    "CorruptFrameError",
    "DeclaredDead",
    "ElasticResult",
    "Fabric",
    "FabricAborted",
    "FailureDetector",
    "PeerFailed",
    "RecoveryEvent",
    "RejoinEvent",
    "RecvTimeout",
    "corrupt_copy",
    "payload_crc32",
    "DEFAULT_INTER",
    "DEFAULT_INTRA",
    "LinkSpec",
    "Message",
    "Topology",
    "TopologyError",
    "TrafficStats",
    "WREF_NBYTES",
    "WorkerError",
    "Deadline",
    "ProcessTransport",
    "ThreadTransport",
    "Transport",
    "Wire",
    "default_groups",
    "parse_group_shape",
    "resolve_transport",
    "all_gather",
    "all_reduce",
    "barrier",
    "broadcast",
    "elastic_worker",
    "payload_nbytes",
    "reduce_scatter",
    "run_workers",
    "run_workers_elastic",
    "SubCommunicator",
    "split_grid",
    "split_chunks",
    "tag_kind",
]
