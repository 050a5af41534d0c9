"""Sequence-parallel schedule for the simulator.

Gather-based context parallelism (the functional
:mod:`repro.parallel.sequence_parallel`): rank-symmetric, so one
representative timeline.  Per layer and microbatch each worker computes
``1/P`` of the layer (positions split; attention scores split by query
rows) and the group pays:

* forward: ring **all-gather of K and V** (``2·(P-1)/P·G·S·H_kv``);
* backward: ring **reduce-scatter of dK and dV**;
* iteration end: an all-reduce of the full weight gradients (weights
  are replicated, DP-style).

Communication scales with ``G·S·H`` — like activation-passing PP and
unlike WeiPipe's ``O(H²)`` ring — which is the comparison the planner
and the crossover benches surface.
"""

from __future__ import annotations

from ...nn.checkpoint import ONE_UNIT_STEP
from ..costmodel import CostModel, ExecConfig, WorkloadDims
from ..engine import TaskGraph
from ..hardware import Cluster
from .base import BuiltSchedule, validate_divisible
from .fsdp import ring_collective_time

__all__ = ["build_sp"]


def build_sp(
    dims: WorkloadDims,
    cluster: Cluster,
    exec_cfg: ExecConfig = ExecConfig(),
) -> BuiltSchedule:
    """Build the rank-symmetric sequence-parallel timeline."""
    world = cluster.world_size
    validate_divisible(dims.seq_len, world, "sequence positions per rank")
    cost = CostModel(dims, cluster.gpu, exec_cfg)
    g = TaskGraph()

    layers = dims.n_layers
    t_f, t_bw = (t / (layers * world) for t in cost.op_times(ONE_UNIT_STEP, layers))
    kv_bytes = 2 * cost.act_message_bytes()  # K and V, full sequence
    t_ag = ring_collective_time(cluster, kv_bytes)
    t_rs = ring_collective_time(cluster, kv_bytes)
    net = ("net",) if exec_cfg.overlap else ("compute", 0)

    prev = None
    for mb in range(dims.n_microbatches):
        for i in range(layers):
            deps = [prev] if prev else []
            g.add(("AG", mb, i), net, t_ag, deps=tuple(d for d in deps if d),
                  kind="comm", nbytes=kv_bytes, collective="all-gather")
            cdeps = [("AG", mb, i)]
            if prev:
                cdeps.append(prev)
            g.add(("F", mb, i), ("compute", 0), t_f, deps=tuple(cdeps),
                  kind="F", worker=0, mb=mb, layer=i)
            prev = ("F", mb, i)
        for i in range(layers - 1, -1, -1):
            g.add(("B", mb, i), ("compute", 0), t_bw, deps=(prev,),
                  kind="B", worker=0, mb=mb, layer=i)
            g.add(("RS", mb, i), net, t_rs, deps=(("B", mb, i),),
                  kind="comm", nbytes=kv_bytes, collective="reduce-scatter")
            prev = ("B", mb, i) if exec_cfg.overlap else ("RS", mb, i)

    grad_bytes = cost.wgrad_chunk_bytes(dims.n_layers)
    t_ar = 2.0 * ring_collective_time(cluster, grad_bytes)
    g.add(("AR",), net, t_ar, deps=(prev,), kind="comm",
          nbytes=grad_bytes, collective="all-reduce")

    return BuiltSchedule(
        name="sp", graph=g, dims=dims, cluster=cluster, cost=cost,
        exec_cfg=exec_cfg, compute_workers=[0],
    )
