"""Data parallelism with ring all-reduce gradient synchronisation.

Each of the ``P`` workers holds a full model replica and processes the
microbatches ``{rank, rank+P, ...}``; gradients are summed with the ring
all-reduce of :mod:`repro.runtime.collectives` (volume ``2 (P-1)/P`` of
the model per iteration per worker, the figure the paper's related-work
discussion attributes to DP) and every replica applies the identical
optimizer step.

:func:`dp_step` exposes one iteration as a pure function of the
replicated ``(weights, optimizer state)`` — the step-boundary snapshot
unit used by elastic recovery (:mod:`repro.parallel.elastic`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..nn.checkpoint import CheckpointedChunk
from ..nn import functional as F
from ..nn.params import ParamStruct
from ..optim.optimizer import clone_opt_state
from ..runtime import Communicator, Fabric, all_reduce, run_workers
from .common import (
    TrainResult,
    TrainSpec,
    init_opt_states,
    microbatch,
    pre_update,
    quantize_grads,
    recompute_ledger,
    sum_recompute,
)

__all__ = ["train_data_parallel", "dp_step"]


def dp_step(
    comm: Communicator,
    spec: TrainSpec,
    iteration: int,
    chunks: List[ParamStruct],
    opt_states: List[Dict],
    ck: Optional[CheckpointedChunk] = None,
) -> Tuple[float, List[ParamStruct], List[Dict]]:
    """One DP iteration from explicit replicated state.

    Inputs are cloned, never mutated; every rank returns the identical
    updated ``(loss, chunks, states)`` (replicas stay in lockstep by
    construction).  Runs on any world size that divides
    ``spec.n_microbatches``, including 1.  ``ck`` lets a caller that
    runs many steps read one replay ledger.
    """
    cfg = spec.cfg
    rank, p = comm.rank, comm.world_size
    chunks = [c.clone() for c in chunks]
    states = [clone_opt_state(s) for s in opt_states]
    cos, sin = spec.rope()
    if ck is None:
        ck = CheckpointedChunk(cfg, recompute=spec.recompute)
    opt = spec.make_optimizer()
    q_act = spec.precision.q_act
    q_bgrad = spec.precision.q_act_grad
    scale = 1.0 / spec.n_microbatches
    grad_wire = spec.precision.weight_grad_bytes

    accum = [c.zeros_like() for c in chunks]
    local_loss = 0.0
    for mb in range(rank, spec.n_microbatches, p):
        tokens, targets = microbatch(spec, iteration, mb)
        x = tokens
        fwd_states = []
        for i in range(cfg.n_layers):
            x, st = ck.fwd(i, chunks[i], x, cos, sin)
            x = q_act(x)
            fwd_states.append(st)
        loss, c_loss = F.cross_entropy_fwd(x, targets)
        local_loss += loss
        dy = F.cross_entropy_bwd(1.0, c_loss)
        for i in range(cfg.n_layers - 1, -1, -1):
            dy, g = ck.bwd(i, chunks[i], dy, fwd_states[i])
            if dy is not None:
                dy = q_bgrad(dy)
            accum[i].add_(quantize_grads(g, spec.precision), scale=scale)

    # synchronise: one ring all-reduce per chunk (flat).
    for i, g in enumerate(accum):
        flat = g.pack(dtype=np.float64)
        reduced = all_reduce(
            comm, flat, tag=("dp-grad", iteration, i), nbytes_per_element=grad_wire
        )
        accum[i] = g.unpack_from(reduced)

    loss_sum = all_reduce(
        comm, np.array([local_loss]), tag=("dp-loss", iteration)
    )[0]
    # grads are complete replicas after the all-reduce: the global
    # norm is local, no extra collective needed.
    pre_update(spec, iteration, opt, accum)
    for i, c in enumerate(chunks):
        opt.step(c, accum[i], states[i])
    return float(loss_sum) / spec.n_microbatches, chunks, states


def _worker(comm: Communicator, spec: TrainSpec) -> TrainResult:
    chunks = spec.init_chunks()
    opt = spec.make_optimizer()
    states = init_opt_states(spec, opt, chunks)
    ck = CheckpointedChunk(spec.cfg, recompute=spec.recompute)
    losses: List[float] = []
    for it in range(spec.iters):
        loss, chunks, states = dp_step(comm, spec, it, chunks, states, ck=ck)
        losses.append(loss)
    return TrainResult(
        losses=losses, chunks=chunks,
        extra={"opt_state": states, "recompute": recompute_ledger(ck)},
    )


def train_data_parallel(
    spec: TrainSpec, world_size: int, fabric: Optional[Fabric] = None
) -> TrainResult:
    """Run DP on ``world_size`` simulated workers; returns rank 0's view
    (all replicas are identical by construction — asserted in tests)."""
    if spec.n_microbatches % world_size != 0:
        raise ValueError("n_microbatches must be divisible by world_size")
    results = run_workers(
        world_size, lambda comm: _worker(comm, spec), fabric=fabric
    )
    results[0].extra["recompute"] = sum_recompute(results)
    return results[0]
