"""The paper's evaluation grid (Section 5) as data.

Model configurations: Llama-2-style, 32 heads, 32 layers (16 for the
small-scale weak-scaling study and Table 4), hidden sizes {1024, 2048,
4096} and sequence lengths {4096, 8192, 16384} — 384M to 6.1B params.

Microbatch sizes follow the paper exactly: ``G`` as listed per row for
1F1B/FSDP/WeiPipe; for the ZB baselines memory pressure forces ``G=4``
when ``S=4096`` and ``G=1`` otherwise, with ``N`` scaled so every
strategy sees the same global batch.

The per-strategy execution rules (recomputation, overlap) are
:func:`repro.sim.runner.exec_for`, re-exported here.
"""

from __future__ import annotations

from typing import List, Tuple

from ..sim.costmodel import WorkloadDims
from ..sim.hardware import Cluster, nvlink_cluster, pcie_ethernet_cluster
from ..sim.runner import exec_for

__all__ = [
    "STRATEGY_ORDER",
    "TABLE2_ROWS",
    "TABLE3_ROWS",
    "TABLE4_ROWS",
    "zb_microbatch",
    "make_dims",
    "exec_for",
    "table2_cluster",
    "table3_cluster",
    "table4_cluster",
    "ROUNDS_PER_ITERATION",
]

#: column order of Tables 2-4.
STRATEGY_ORDER = ["1f1b", "zb1", "zb2", "fsdp", "weipipe-interleave"]

#: microbatch rounds per iteration for the main strategies (N = R * P);
#: the paper does not state N, so we fix the global batch at 8 rounds of
#: pipeline depth, a standard Megatron-style setting that keeps fill and
#: drain amortised for every schedule.
ROUNDS_PER_ITERATION = 8

#: (hidden, seq, G) rows of Table 2 and Table 3.
TABLE2_ROWS: List[Tuple[int, int, int]] = [
    (1024, 4096, 16),
    (1024, 8192, 8),
    (1024, 16384, 4),
    (2048, 4096, 16),
    (2048, 8192, 8),
    (2048, 16384, 4),
    (4096, 4096, 16),
    (4096, 8192, 8),
    (4096, 16384, 4),
]

TABLE3_ROWS: List[Tuple[int, int, int]] = [
    (1024, 4096, 16),
    (1024, 16384, 4),
    (2048, 4096, 16),
    (2048, 16384, 4),
    (4096, 4096, 16),
    (4096, 16384, 4),
]

#: Table 4 uses 16 layers on 8 GPUs.
TABLE4_ROWS: List[Tuple[int, int, int]] = [
    (1024, 4096, 16),
    (2048, 16384, 4),
    (4096, 4096, 16),
    (4096, 16384, 4),
]


def zb_microbatch(seq_len: int) -> int:
    """The paper's forced ZB microbatch: 4 at S=4096, 1 beyond."""
    return 4 if seq_len <= 4096 else 1


def make_dims(
    hidden: int,
    seq: int,
    g: int,
    world: int,
    n_layers: int = 32,
    strategy: str = "weipipe-interleave",
) -> WorkloadDims:
    """Workload for one table cell, equalising the global batch.

    The main strategies run ``G = g`` with ``N = ROUNDS * P``; ZB rows
    shrink G per :func:`zb_microbatch` and raise N to keep ``N * G``
    constant.
    """
    n_seqs = ROUNDS_PER_ITERATION * world * g
    if strategy in ("zb1", "zb2"):
        g = zb_microbatch(seq)
    n_mb = max(world, n_seqs // g)
    # keep divisibility by world for the ring/pipeline schedules
    n_mb -= n_mb % world
    return WorkloadDims(
        hidden=hidden,
        n_layers=n_layers,
        seq_len=seq,
        microbatch=g,
        n_microbatches=n_mb,
    )


def table2_cluster() -> Cluster:
    """16 A800s: two 8-GPU NVLink servers, commodity network between."""
    return nvlink_cluster(16, gpus_per_node=8)


def table3_cluster() -> Cluster:
    """16 A800s: PCIe within servers, 10 GbE between (4 GPUs/server)."""
    return pcie_ethernet_cluster(16, gpus_per_node=4)


def table4_cluster() -> Cluster:
    """8 A800s in a single NVLink server — the compute-bound regime."""
    return nvlink_cluster(8, gpus_per_node=8)
