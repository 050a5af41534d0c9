"""Common types for the schedule builder.

The builder (:mod:`.walk`; :func:`.weipipe.build_ring_figure` for the
figures) turns (workload, cluster, exec config) into a
:class:`~repro.sim.engine.TaskGraph` whose compute tasks carry
``worker`` and ``kind`` metadata; the metrics layer derives throughput,
bubble ratios and per-link bandwidth from the simulated timeline.

Conventions:

* compute resources are ``("compute", worker)``;
* point-to-point messages use ``("link", src, dst)`` with the link
  chosen by the cluster topology; collectives use the shared ``("net",)``
  resource;
* pipelines and rings build every rank's timeline; the rank-symmetric
  families (dp / fsdp / tp / sp) build rank 0's alone and set
  ``compute_workers=[0]``, which the metrics scale up;
* compute tasks set ``kind`` in {"F", "B", "W", "turn", "update"} and
  ``worker`` — ``"W"`` also for the formation of factored gradients
  (``FORM``); a receiver's stall on a blocking hop sets
  ``kind="recv-stall"``; comm tasks set ``kind="comm"`` and ``nbytes``.
* With ``overlap=False`` comm rides the *sender's* compute resource,
  serialising it with computation — the ablation for the paper's
  ``batch_isend_irecv`` prefetching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..costmodel import CostModel, ExecConfig, WorkloadDims
from ..engine import TaskGraph
from ..hardware import Cluster

__all__ = ["BuiltSchedule", "comm_resource", "validate_divisible"]


@dataclass
class BuiltSchedule:
    """A ready-to-simulate schedule plus its provenance."""

    name: str
    graph: TaskGraph
    dims: WorkloadDims
    cluster: Cluster
    cost: CostModel
    exec_cfg: ExecConfig
    #: workers that actually do compute (for bubble accounting)
    compute_workers: Optional[list] = None

    @property
    def world_size(self) -> int:
        return self.cluster.world_size


def comm_resource(cluster: Cluster, src: int, dst: int, overlap: bool):
    """Resource a point-to-point message occupies.

    Overlapping transfers ride the directed link; non-overlapping ones
    ride the sender's compute stream (they block computation).
    """
    if overlap:
        return ("link", src, dst)
    return ("compute", src)


def validate_divisible(a: int, b: int, what: str) -> None:
    if a % b != 0:
        raise ValueError(f"{what}: {a} not divisible by {b}")
