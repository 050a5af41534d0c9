"""Single-worker baseline: the numerical ground truth.

Every distributed strategy in this repository must reproduce this
function's losses and final weights (exactly in fp32/fp64 policies, up
to accumulation-order noise).  It is also the semantic spec: loss is the
mean over the iteration's microbatches, gradients accumulate scaled by
``1/N``, one optimizer step per iteration.

:func:`serial_step` exposes exactly one iteration as a pure function of
``(weights, optimizer state)`` — the step-boundary granularity the
elastic runtime (:mod:`repro.parallel.elastic`) snapshots and rolls back
to, and the unit checkpoint/resume must reproduce bit-for-bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..nn.checkpoint import CheckpointedChunk
from ..nn import functional as F
from ..nn.params import ParamStruct
from ..optim.optimizer import clone_opt_state
from .common import (
    TrainResult,
    TrainSpec,
    init_opt_states,
    microbatch,
    pre_update,
    quantize_grads,
    recompute_ledger,
)

__all__ = ["train_serial", "serial_step"]


def serial_step(
    spec: TrainSpec,
    iteration: int,
    chunks: List[ParamStruct],
    opt_states: List[Dict],
    ck: Optional[CheckpointedChunk] = None,
) -> Tuple[float, List[ParamStruct], List[Dict]]:
    """One full training iteration from explicit state.

    Pure with respect to its inputs: ``chunks`` and ``opt_states`` are
    cloned, updated copies are returned alongside the iteration's mean
    loss.  ``iteration`` is relative to ``spec.start_iteration`` (the
    data/LR offset is applied inside ``microbatch``/``pre_update``).
    ``ck`` lets a caller that runs many steps read one replay ledger.
    """
    cfg = spec.cfg
    chunks = [c.clone() for c in chunks]
    states = [clone_opt_state(s) for s in opt_states]
    cos, sin = spec.rope()
    if ck is None:
        ck = CheckpointedChunk(cfg, recompute=spec.recompute)
    opt = spec.make_optimizer()
    q_act = spec.precision.q_act
    q_bgrad = spec.precision.q_act_grad
    scale = 1.0 / spec.n_microbatches

    accum: List[ParamStruct] = [c.zeros_like() for c in chunks]
    total = 0.0
    for mb in range(spec.n_microbatches):
        tokens, targets = microbatch(spec, iteration, mb)
        x = tokens
        fwd_states = []
        for i in range(cfg.n_layers):
            x, st = ck.fwd(i, chunks[i], x, cos, sin)
            x = q_act(x)
            fwd_states.append(st)
        loss, c_loss = F.cross_entropy_fwd(x, targets)
        total += loss
        dy = F.cross_entropy_bwd(1.0, c_loss)
        for i in range(cfg.n_layers - 1, -1, -1):
            dy, g = ck.bwd(i, chunks[i], dy, fwd_states[i])
            if dy is not None:
                dy = q_bgrad(dy)
            accum[i].add_(quantize_grads(g, spec.precision), scale=scale)
    pre_update(spec, iteration, opt, accum)
    for i, c in enumerate(chunks):
        opt.step(c, accum[i], states[i])
    return total / spec.n_microbatches, chunks, states


def train_serial(spec: TrainSpec) -> TrainResult:
    """Train on one worker; returns per-iteration losses and final chunks."""
    chunks = spec.init_chunks()
    opt = spec.make_optimizer()
    states = init_opt_states(spec, opt, chunks)
    ck = CheckpointedChunk(spec.cfg, recompute=spec.recompute)
    losses: List[float] = []
    for it in range(spec.iters):
        loss, chunks, states = serial_step(spec, it, chunks, states, ck=ck)
        losses.append(loss)
    return TrainResult(
        losses=losses, chunks=chunks,
        extra={"opt_state": states, "recompute": recompute_ledger(ck)},
    )
