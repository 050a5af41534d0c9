"""Tensor-parallel schedule for the simulator.

Megatron-style TP is rank-symmetric like FSDP/DP, so one representative
timeline suffices: per layer and microbatch, each worker computes
``1/P`` of the layer's GEMMs (attention FLOPs also split by heads) and
the group pays **two all-reduces of a full G*S*H activation** in the
forward pass plus two in the backward — the "frequent and fine-grained
collective communication" the paper's related work cites.  The runtime
keeps full caches (it does not recompute), and so does ``exec_for``.
"""

from __future__ import annotations

from ...nn.checkpoint import ONE_UNIT_STEP
from ..costmodel import CostModel, ExecConfig, WorkloadDims
from ..engine import TaskGraph
from ..hardware import Cluster
from .base import BuiltSchedule, validate_divisible
from .fsdp import ring_collective_time

__all__ = ["build_tp"]


def build_tp(
    dims: WorkloadDims,
    cluster: Cluster,
    exec_cfg: ExecConfig = ExecConfig(),
) -> BuiltSchedule:
    """Build the rank-symmetric TP timeline (all N microbatches local)."""
    world = cluster.world_size
    validate_divisible(dims.n_heads, world, "attention heads per rank")
    cost = CostModel(dims, cluster.gpu, exec_cfg)
    g = TaskGraph()

    # per-rank compute: 1/P of every GEMM and attention product.
    layers = dims.n_layers
    t_f, t_bw = (t / (layers * world) for t in cost.op_times(ONE_UNIT_STEP, layers))
    act_bytes = cost.act_message_bytes()
    t_ar = 2.0 * ring_collective_time(cluster, act_bytes)  # rs + ag
    net = ("net",) if exec_cfg.overlap else ("compute", 0)

    prev = None
    for mb in range(dims.n_microbatches):
        for i in range(layers):
            deps = (prev,) if prev else ()
            g.add(("F", mb, i), ("compute", 0), t_f, deps=deps,
                  kind="F", worker=0, mb=mb, layer=i)
            g.add(("ARF", mb, i), net, 2 * t_ar, deps=(("F", mb, i),),
                  kind="comm", nbytes=2 * act_bytes, collective="all-reduce")
            prev = ("ARF", mb, i) if not exec_cfg.overlap else ("F", mb, i)
        for i in range(layers - 1, -1, -1):
            deps = [prev] if prev else []
            if exec_cfg.overlap:
                deps.append(("ARF", mb, i))  # fwd reduce must have landed
            g.add(("B", mb, i), ("compute", 0), t_bw, deps=tuple(deps),
                  kind="B", worker=0, mb=mb, layer=i)
            g.add(("ARB", mb, i), net, 2 * t_ar, deps=(("B", mb, i),),
                  kind="comm", nbytes=2 * act_bytes, collective="all-reduce")
            prev = ("ARB", mb, i) if not exec_cfg.overlap else ("B", mb, i)

    return BuiltSchedule(
        name="tp", graph=g, dims=dims, cluster=cluster, cost=cost,
        exec_cfg=exec_cfg, compute_workers=[0],
    )
