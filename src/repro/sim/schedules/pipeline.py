"""Activation-passing pipeline schedules: GPipe, 1F1B, ZB1, ZB2.

Stage ``s`` owns layers ``[s L/P, (s+1) L/P)``.  Forward activations hop
``s -> s+1`` (size ``G*S*H``), activation gradients hop back.  The four
schedules differ only in per-stage op ordering, and that ordering is not
restated here: :func:`build_pipeline` walks the very
:func:`~repro.parallel.pipeline.stage_program` the functional stage
worker executes (one table row per schedule — warmup depth and whether
the backward splits; see that module and DESIGN §18), pricing each
``F`` / ``B`` / ``W`` op with the cost model — a ``B`` with the replays
the checkpoint rule counts for it in that program
(:meth:`~repro.sim.costmodel.CostModel.op_times`).

Dependencies: ``F(s,mb)`` needs the activation from ``s-1``;
``B(s,mb)`` needs the gradient from ``s+1`` and its own forward; W
passes only need their B pass.  Each stage additionally executes its
ops in strict program order (explicit predecessor dependencies): these
schedules are straight-line per-rank programs, so a stage blocked on a
receive does *not* opportunistically run a later op.
"""

from __future__ import annotations

from ...parallel.pipeline import stage_program
from ..costmodel import CostModel, ExecConfig, WorkloadDims
from ..engine import TaskGraph
from ..hardware import Cluster
from .base import BuiltSchedule, comm_resource, validate_divisible

__all__ = ["build_pipeline"]


def build_pipeline(
    schedule: str,
    dims: WorkloadDims,
    cluster: Cluster,
    exec_cfg: ExecConfig = ExecConfig(),
) -> BuiltSchedule:
    """Build the task graph for an activation-passing pipeline."""
    world = cluster.world_size
    validate_divisible(dims.n_layers, world, "layers per stage")
    lps = dims.n_layers // world
    cost = CostModel(dims, cluster.gpu, exec_cfg)
    n_mb = dims.n_microbatches
    g = TaskGraph()

    act_bytes = cost.act_message_bytes()
    bgrad_bytes = cost.bgrad_message_bytes()

    # comm tasks first (their priority only matters within a link queue,
    # where FIFO by microbatch is what a real transport gives).  With
    # overlap off (stock Megatron: blocking send/recv around each
    # compute step) the transfer stalls *both* ends: the send occupies
    # the sender's compute stream and a matching receive-stall occupies
    # the receiver's.
    for s in range(world - 1):
        fwd_res = comm_resource(cluster, s, s + 1, exec_cfg.overlap)
        bwd_res = comm_resource(cluster, s + 1, s, exec_cfg.overlap)
        t_link_f = cluster.link(s, s + 1).time(act_bytes)
        t_link_b = cluster.link(s + 1, s).time(bgrad_bytes)
        for mb in range(n_mb):
            g.add(
                ("CA", s, mb), fwd_res, t_link_f, deps=(("F", s, mb),),
                kind="comm", nbytes=act_bytes, src=s, dst=s + 1,
            )
            g.add(
                ("CG", s + 1, mb), bwd_res, t_link_b, deps=(("B", s + 1, mb),),
                kind="comm", nbytes=bgrad_bytes, src=s + 1, dst=s,
            )
            if not exec_cfg.overlap:
                g.add(("CAr", s, mb), ("compute", s + 1), t_link_f,
                      deps=(("F", s, mb),), kind="recv-stall")
                g.add(("CGr", s + 1, mb), ("compute", s), t_link_b,
                      deps=(("B", s + 1, mb),), kind="recv-stall")

    def hop(name, src, mb):
        """The inbound transfer an op waits for (plus its receive stall)."""
        return [(name, src, mb)] + ([] if exec_cfg.overlap else [(name + "r", src, mb)])

    # compute ops run in strict per-stage program order (these schedules
    # are straight-line programs issued by one Python loop per rank, not
    # dynamic work-stealing executors), so each op depends on its
    # predecessor on the same stage.
    for s in range(world):
        prev = None
        program = stage_program(schedule, world, s, n_mb)
        for (kind, mb), dur in zip(program, cost.op_times(program, lps)):
            if kind == "F":
                deps = hop("CA", s - 1, mb) if s > 0 else []
            elif kind == "B":
                deps = [("F", s, mb)] + (hop("CG", s + 1, mb) if s < world - 1 else [])
            else:
                deps = [("B", s, mb)]
            if prev is not None:
                deps.append(prev)
            prev = (kind, s, mb)
            g.add(prev, ("compute", s), dur, deps=tuple(deps),
                  kind=kind, worker=s, mb=mb)
    return BuiltSchedule(
        name=schedule, graph=g, dims=dims, cluster=cluster, cost=cost,
        exec_cfg=exec_cfg, compute_workers=list(range(world)),
    )
