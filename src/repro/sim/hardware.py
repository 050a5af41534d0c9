"""Hardware catalogue: GPUs, links, and cluster topologies.

Calibrated to the paper's testbed (Section 5, "Hardware Environment"):

* **A800** — 80 GB HBM, 312 TFLOPS fp16/bf16 tensor cores, NVLink capped
  at 400 GB/s (vs the A100's 600) — the cap is why even the NVLink
  experiments are mildly communication-constrained.
* **NVLink environment** — 16 GPUs across two 8-GPU servers (Table 2).
* **PCIe + Ethernet environment** — PCIe within a server and 10 Gb
  Ethernet between servers (Table 3, Figures 6–9).

Effective bandwidths are de-rated from the marketing numbers: NCCL ring
payload efficiency on NVLink is ~80%, PCIe 4.0 x16 delivers ~2/3 of the
32 GB/s peak under traffic, and 10 GbE lands near wire speed minus
TCP/IP overhead.  Latencies are per-message NCCL launch+wire figures.

A :class:`Cluster` arranges ``P`` ranks into nodes and answers "which
link connects rank a to rank b" — the single question every schedule
builder asks.  Ring neighbours inside a node use the intra-node link;
ring hops that cross a node boundary use the inter-node link, which is
what makes WeiPipe's flat P2P ring resilient (only 2 of its P hops cross
Ethernet) while FSDP's collectives are paced by the slowest hop.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..runtime.topology import LinkSpec

__all__ = [
    "GPU",
    "Cluster",
    "A800",
    "NVLINK",
    "PCIE",
    "ETHERNET_10G",
    "nvlink_cluster",
    "pcie_ethernet_cluster",
]


#: fixed per layer-op cost (kernel launches, scheduling) — weighs 4x
#: heavier when OOM pressure forces G from 16 down to 4, the reason the
#: paper's ZB baselines trail 1F1B despite near-zero bubbles (§6.1).
OP_OVERHEAD = 1.5e-3


@dataclass(frozen=True)
class GPU:
    """Compute device model.

    ``flops`` is dense fp16/bf16 tensor-core throughput; realised FLOPS
    are ``flops * efficiency(workload)`` with the efficiency curve in
    :mod:`repro.sim.costmodel` (small per-op workloads do not saturate
    the tensor cores — the effect that punishes the ZB baselines when
    memory pressure forces their microbatch size down to 1).

    ``op_overhead`` is the fixed seconds every layer-op pays on top of
    its FLOPs (kernel launches, scheduling): :data:`OP_OVERHEAD` for the
    catalogue's devices, 0 for one ``CostModel.calibrated`` fits to
    measured spans, which already contain the real dispatch cost.  It
    rides on the device, so every schedule builder that prices ops on
    ``cluster.gpu`` charges the same overhead.
    """

    name: str
    flops: float  # peak fp16 FLOP/s
    memory: float  # bytes of HBM
    op_overhead: float = OP_OVERHEAD


A800 = GPU(name="A800-80GB", flops=312e12, memory=80e9)

#: NVLink capped at 400 GB/s on the A800; ~80% achievable on ring traffic.
NVLINK = LinkSpec("nvlink-400", bandwidth=320e9, latency=8e-6)

#: PCIe 4.0 x16 (32 GB/s peak), ~2/3 effective under bidirectional load.
PCIE = LinkSpec("pcie4-x16", bandwidth=22e9, latency=10e-6)

#: 10 Gb Ethernet between servers: ~1.05 GB/s effective, ~50 us latency.
ETHERNET_10G = LinkSpec("eth-10g", bandwidth=1.05e9, latency=5e-5)

#: the NVLink testbed's inter-server fabric (Table 2): the paper never
#: names it, but its measured numbers bound it — WeiPipe's 2.4 GB/turn
#: ring stays compute-bound at H=4096 (needs >~1.3 GB/s) while 134 MB
#: activation hops still visibly hurt 1F1B at H=1024 (needs <~5 GB/s).
#: A bonded/25GbE-class link at ~1.6 GB/s effective fits all three.
INTER_SERVER = LinkSpec("inter-server", bandwidth=1.6e9, latency=3e-5)


@dataclass(frozen=True)
class Cluster:
    """``P = nodes * gpus_per_node`` ranks; dense intra-node links plus a
    slower inter-node fabric."""

    gpu: GPU
    nodes: int
    gpus_per_node: int
    intra: LinkSpec
    inter: LinkSpec

    @property
    def world_size(self) -> int:
        return self.nodes * self.gpus_per_node

    def node_of(self, rank: int) -> int:
        if not (0 <= rank < self.world_size):
            raise ValueError(f"rank {rank} out of range")
        return rank // self.gpus_per_node

    def link(self, src: int, dst: int) -> LinkSpec:
        """The link used by a message from ``src`` to ``dst``."""
        if src == dst:
            raise ValueError("no self-link")
        return self.intra if self.node_of(src) == self.node_of(dst) else self.inter

    def ring_links(self) -> list:
        """Links of the rank ring ``0 -> 1 -> ... -> P-1 -> 0``."""
        p = self.world_size
        return [self.link(i, (i + 1) % p) for i in range(p)]

    def slowest_ring_link(self) -> LinkSpec:
        return min(self.ring_links(), key=lambda l: l.bandwidth)

    def crossing_hops(self) -> int:
        """How many ring hops leave a node (2 per node boundary)."""
        p = self.world_size
        return sum(
            1
            for i in range(p)
            if self.node_of(i) != self.node_of((i + 1) % p)
        )


def nvlink_cluster(
    world_size: int,
    gpus_per_node: int = 8,
    gpu: GPU = A800,
    inter: LinkSpec = INTER_SERVER,
) -> Cluster:
    """The paper's Table 2 environment: NVLink *within* each server.

    "16 A800 GPUs in two clusters, with NVLink connections" — NVLink is
    an intra-server interconnect, so the two 8-GPU servers talk over the
    testbed's commodity network (the same 10 GbE its other experiments
    name).  The slow boundary hop is load-bearing: it is what makes
    134 MB activation messages (H=1024, G=16, S=4096) expensive for
    activation-passing pipelines even in the "NVLink environment", while
    WeiPipe's 2 Ethernet hops out of P carry only weight chunks.  A
    single-node configuration (``world_size == gpus_per_node``) has no
    boundary and is pure NVLink — the paper's Table 4 setting.
    """
    if world_size % gpus_per_node != 0:
        raise ValueError("world_size must be a multiple of gpus_per_node")
    return Cluster(
        gpu=gpu,
        nodes=world_size // gpus_per_node,
        gpus_per_node=gpus_per_node,
        intra=NVLINK,
        inter=inter,
    )


def pcie_ethernet_cluster(
    world_size: int, gpus_per_node: int = 4, gpu: GPU = A800
) -> Cluster:
    """The paper's Table 3 / scaling environment: PCIe within a server,
    10 Gb Ethernet between servers."""
    if world_size % gpus_per_node != 0:
        raise ValueError("world_size must be a multiple of gpus_per_node")
    return Cluster(
        gpu=gpu,
        nodes=world_size // gpus_per_node,
        gpus_per_node=gpus_per_node,
        intra=PCIE,
        inter=ETHERNET_10G,
    )
