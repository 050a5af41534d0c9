"""Metrics derived from a simulated schedule.

* **throughput** — the paper's headline metric, tokens/second/GPU:
  ``N * G * S / makespan / P``;
* **bubble ratio** — mean fraction of compute-stream idle time across
  the workers that actually compute (for rank-symmetric builders like
  FSDP only the representative worker counts);
* **TBW** — the paper's total-bandwidth-usage lens: peak bytes/second
  over any single link, plus the aggregate bytes moved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from .costmodel import ExecConfig, WorkloadDims
from .engine import SimResult, simulate
from .hardware import Cluster
from .memory import peak_memory
from .schedules.base import BuiltSchedule

__all__ = ["SimReport", "evaluate"]


@dataclass
class SimReport:
    """Everything one table cell needs."""

    strategy: str
    makespan: float
    tokens_per_second_per_gpu: float
    bubble_ratio: float
    comm_bytes_total: float
    max_link_bytes_per_second: float
    peak_memory_bytes: float
    oom: bool
    world_size: int
    details: Dict = field(default_factory=dict)

    @property
    def peak_memory_gb(self) -> float:
        return self.peak_memory_bytes / 2**30

    def cell(self) -> str:
        """Table-2-style cell: throughput or OOM."""
        if self.oom:
            return "OOM"
        return f"{self.tokens_per_second_per_gpu:.1f}"


def evaluate(
    built: BuiltSchedule,
    memory_strategy: Optional[str] = None,
    sim: Optional[SimResult] = None,
) -> SimReport:
    """Simulate (if needed) and summarise one schedule.

    ``memory_strategy`` overrides the key used for the analytic memory
    model (defaults to the schedule's name).
    """
    if sim is None:
        sim = simulate(built.graph)
    dims = built.dims
    world = built.world_size
    makespan = sim.makespan

    # throughput: FSDP/DP builders model one representative rank but the
    # job still processed all N microbatches across P ranks.
    tokens = dims.tokens_per_iteration
    throughput = tokens / makespan / world if makespan > 0 else float("inf")

    workers = built.compute_workers or list(range(world))
    busies = [sim.resource_utilisation(("compute", w)) for w in workers]
    bubble = 1.0 - (sum(busies) / len(busies)) if busies else 0.0

    comm_total = 0.0
    link_bytes: Dict = {}
    for t in sim.graph.tasks.values():
        if t.meta.get("kind") == "comm":
            nb = t.meta.get("nbytes", 0.0)
            comm_total += nb
            link_bytes[t.resource] = link_bytes.get(t.resource, 0.0) + nb
    # a collective's task carries the whole job's bytes, which the ring
    # spreads over its P links.
    share = world if built.compute_workers == [0] else 1
    max_link_bw = (
        max(link_bytes.values()) / share / makespan
        if link_bytes and makespan > 0 else 0.0
    )

    mem_key = memory_strategy or built.name
    peak = peak_memory(mem_key, dims, built.cluster, built.exec_cfg)
    oom = peak > built.cluster.gpu.memory

    return SimReport(
        strategy=built.name,
        makespan=makespan,
        tokens_per_second_per_gpu=throughput,
        bubble_ratio=bubble,
        comm_bytes_total=comm_total,
        max_link_bytes_per_second=max_link_bw,
        peak_memory_bytes=peak,
        oom=oom,
        world_size=world,
        details={"busy_fractions": busies},
    )
