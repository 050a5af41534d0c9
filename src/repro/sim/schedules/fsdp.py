"""FSDP (ZeRO-3) and plain DP schedules for the simulator.

FSDP is bulk-synchronous and rank-symmetric: every worker runs the same
per-layer sequence on its own microbatches, so the timeline of rank 0 is
the timeline of the job.  We model it as one compute stream plus one
shared ``("net",)`` resource carrying the collectives:

* forward layer ``i``: ring **all-gather** of the layer's weights, then
  compute; the next layer's gather prefetches during the current
  compute, bounded by a one-layer-ahead buffer (FSDP's default
  ``forward_prefetch``);
* backward layer ``i``: all-gather again (ZeRO-3 frees weights after
  use), B+W compute, then ring **reduce-scatter** of the gradients.

A ring collective over ``P`` ranks of a ``b``-byte buffer costs
``(P-1) * (latency + b / (P * bw_min))`` — paced by the *slowest* link
in the ring, which is how 10 GbE between servers poisons FSDP in
Table 3 while WeiPipe only pays Ethernet prices on the hops that
actually cross it.

Plain DP is the same single-timeline trick: all local microbatches,
then one all-reduce of the full gradients (2x the reduce-scatter time).
"""

from __future__ import annotations

from ...nn.checkpoint import ONE_UNIT_STEP
from ..costmodel import CostModel, ExecConfig, WorkloadDims
from ..engine import TaskGraph
from ..hardware import Cluster
from .base import BuiltSchedule, validate_divisible

__all__ = ["build_fsdp", "build_dp", "ring_collective_time"]


#: ring collectives lose to lockstep straggling: every step waits for the
#: slowest of P simultaneous transfers, so realised bandwidth is well
#: below the point-to-point figure (NCCL over TCP measures ~60-70%).
COLLECTIVE_EFFICIENCY = 0.60


def ring_collective_time(cluster: Cluster, nbytes: float) -> float:
    """Time for one ring all-gather or reduce-scatter of ``nbytes``."""
    p = cluster.world_size
    if p == 1:
        return 0.0
    slow = cluster.slowest_ring_link()
    bw = slow.bandwidth * COLLECTIVE_EFFICIENCY
    return (p - 1) * (slow.latency + nbytes / (p * bw))


def build_fsdp(
    dims: WorkloadDims,
    cluster: Cluster,
    exec_cfg: ExecConfig = ExecConfig(),
) -> BuiltSchedule:
    """Build the rank-symmetric FSDP timeline."""
    world = cluster.world_size
    validate_divisible(dims.n_microbatches, world, "microbatches per rank")
    local_mbs = dims.n_microbatches // world
    cost = CostModel(dims, cluster.gpu, exec_cfg)
    g = TaskGraph()

    layers = dims.n_layers
    t_f, t_bw = (t / layers for t in cost.op_times(ONE_UNIT_STEP, layers))
    w_bytes = cost.weight_chunk_bytes(1)
    d_bytes = cost.wgrad_chunk_bytes(1)
    t_ag = ring_collective_time(cluster, w_bytes)
    t_rs = ring_collective_time(cluster, d_bytes)
    net = ("net",) if exec_cfg.overlap else ("compute", 0)

    prev_compute = None
    for k in range(local_mbs):
        for i in range(layers):
            ag_deps = []
            # prefetch window: gather layer i only once layer i-2 compute
            # is done (two gathered layers alive at most).
            if i >= 2:
                ag_deps.append(("F", k, i - 2))
            elif k > 0 and i == 0:
                ag_deps.append(("B", k - 1, 1))
            g.add(("AGF", k, i), net, t_ag, deps=tuple(ag_deps),
                  kind="comm", nbytes=w_bytes, collective="all-gather")
            deps = [("AGF", k, i)]
            if prev_compute is not None:
                deps.append(prev_compute)
            g.add(("F", k, i), ("compute", 0), t_f, deps=tuple(deps),
                  kind="F", worker=0, mb=k, layer=i)
            prev_compute = ("F", k, i)
        for i in range(layers - 1, -1, -1):
            ag_deps = []
            if i <= layers - 3:
                ag_deps.append(("B", k, i + 2))
            g.add(("AGB", k, i), net, t_ag, deps=tuple(ag_deps),
                  kind="comm", nbytes=w_bytes, collective="all-gather")
            deps = [("AGB", k, i)]
            if prev_compute is not None:
                deps.append(prev_compute)
            g.add(("B", k, i), ("compute", 0), t_bw, deps=tuple(deps),
                  kind="B", worker=0, mb=k, layer=i)
            prev_compute = ("B", k, i)
            g.add(("RS", k, i), net, t_rs, deps=(("B", k, i),),
                  kind="comm", nbytes=d_bytes, collective="reduce-scatter")

    return BuiltSchedule(
        name="fsdp", graph=g, dims=dims, cluster=cluster, cost=cost,
        exec_cfg=exec_cfg, compute_workers=[0],
    )


def build_dp(
    dims: WorkloadDims,
    cluster: Cluster,
    exec_cfg: ExecConfig = ExecConfig(),
) -> BuiltSchedule:
    """Plain data parallelism: local compute + end-of-iteration all-reduce."""
    world = cluster.world_size
    validate_divisible(dims.n_microbatches, world, "microbatches per rank")
    local_mbs = dims.n_microbatches // world
    cost = CostModel(dims, cluster.gpu, exec_cfg)
    g = TaskGraph()
    t_f, t_bw = cost.op_times(ONE_UNIT_STEP, dims.n_layers)
    prev = None
    for k in range(local_mbs):
        g.add(("F", k), ("compute", 0), t_f,
              deps=(prev,) if prev else (), kind="F", worker=0, mb=k)
        g.add(("B", k), ("compute", 0), t_bw, deps=(("F", k),),
              kind="B", worker=0, mb=k)
        prev = ("B", k)
    grad_bytes = cost.wgrad_chunk_bytes(dims.n_layers)
    # all-reduce = reduce-scatter + all-gather
    t_ar = 2.0 * ring_collective_time(cluster, grad_bytes)
    net = ("net",) if exec_cfg.overlap else ("compute", 0)
    g.add(("AR",), net, t_ar, deps=(prev,), kind="comm",
          nbytes=grad_bytes, collective="all-reduce")
    return BuiltSchedule(
        name="dp", graph=g, dims=dims, cluster=cluster, cost=cost,
        exec_cfg=exec_cfg, compute_workers=[0],
    )
