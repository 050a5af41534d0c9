"""Fully Sharded Data Parallelism (ZeRO-3), the paper's FSDP baseline.

Every worker owns a ``1/P`` flat shard of each layer chunk (weights and
optimizer state).  For each microbatch, each layer's full weights are
materialised with a ring **all-gather** just before use — once in the
forward pass and again in the backward pass — and gradients leave via a
ring **reduce-scatter**, after which the full weights are freed.  Per
iteration each worker therefore moves ``3 (P-1)/P`` of the model per
microbatch group, the collective-communication load the paper contrasts
with WeiPipe's weight ring.

Data is split like DP: worker ``r`` runs microbatches ``{r, r+P, ...}``.

:func:`fsdp_step` exposes one iteration as a pure function of the
*canonical* (unsharded) ``(weights, optimizer state)``: shard on entry,
run the normal FSDP schedule, gather back on exit.  Sharding round-trips
through float64 flats, so chaining steps is bit-identical to a
persistent-shard run — the property elastic ring-shrink recovery
(:mod:`repro.parallel.elastic`) relies on when it resumes the same
problem on fewer workers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..nn.checkpoint import CheckpointedChunk
from ..nn import functional as F
from ..nn.params import ParamStruct
from ..optim.optimizer import Optimizer, map_opt_state
from ..runtime import (
    Communicator,
    Fabric,
    all_gather,
    all_reduce,
    reduce_scatter,
    run_workers,
    split_chunks,
)
from .common import TrainResult, TrainSpec, microbatch, pre_update, quantize_grads
from .common import recompute_ledger, sum_recompute

__all__ = ["train_fsdp", "fsdp_step"]


def _gather_chunk(
    comm: Communicator,
    shard: np.ndarray,
    template: ParamStruct,
    tag: tuple,
    wire_bytes: int,
) -> ParamStruct:
    """All-gather a chunk's shards and unpack to named weights."""
    shards = all_gather(
        comm, shard, tag=tag, nbytes=int(shard.size * wire_bytes)
    )
    return template.unpack_from(np.concatenate(shards))


def _shard_opt_state(state: Dict, p: int, rank: int) -> Dict:
    """Slice a canonical optimizer state to this rank's flat shard.

    Tensor leaves become ``ParamStruct({"flat": shard})`` in float64 —
    the exact layout ``opt.init_state`` produces for a fresh FSDP run —
    while scalar leaves (step counters) pass through.
    """
    return map_opt_state(
        state,
        lambda ps: ParamStruct(
            {"flat": split_chunks(ps.pack(dtype=np.float64), p)[rank].copy()}
        ),
    )


def _gather_opt_state(comm: Communicator, shard_state, template, tag: tuple):
    """Reassemble a canonical optimizer state from per-rank flat shards.

    ``template`` supplies names/shapes (e.g. a fresh
    ``opt.init_state(chunk)``); values are gathered at float64 so a
    subsequent :func:`_shard_opt_state` reproduces the shards exactly.
    Scalar leaves are taken from the shard state (identical on every
    rank — each rank stepped the same number of times).
    """
    if isinstance(template, ParamStruct):
        flats = all_gather(comm, shard_state["flat"], tag=tag)
        return template.astype(np.float64).unpack_from(np.concatenate(flats))
    if isinstance(template, dict):
        return {
            k: _gather_opt_state(comm, shard_state[k], template[k], tag + (k,))
            for k in template
        }
    return shard_state


def _fsdp_iteration(
    comm: Communicator,
    spec: TrainSpec,
    it: int,
    shards: List[np.ndarray],
    templates: List[ParamStruct],
    opt: Optimizer,
    states: List[Dict],
    ck: CheckpointedChunk,
    cos: np.ndarray,
    sin: np.ndarray,
) -> float:
    """One FSDP iteration over persistent flat shards (mutated in place)."""
    cfg = spec.cfg
    rank, p = comm.rank, comm.world_size
    q_act = spec.precision.q_act
    q_bgrad = spec.precision.q_act_grad
    w_wire = spec.precision.weight_bytes
    d_wire = spec.precision.weight_grad_bytes
    scale = 1.0 / spec.n_microbatches

    grad_shards = [np.zeros_like(s) for s in shards]
    local_loss = 0.0
    for k, mb in enumerate(range(rank, spec.n_microbatches, p)):
        # collective tags use the local ordinal k (identical on every
        # rank), not the global microbatch id (which differs per rank).
        tokens, targets = microbatch(spec, it, mb)
        x = tokens
        fwd_states = []
        for i in range(cfg.n_layers):
            w = _gather_chunk(
                comm, shards[i], templates[i], ("fsdp-agf", it, k, i), w_wire
            )
            x, st = ck.fwd(i, w, x, cos, sin)
            x = q_act(x)
            fwd_states.append(st)
            del w  # freed immediately, as FSDP does

        loss, c_loss = F.cross_entropy_fwd(x, targets)
        local_loss += loss
        dy = F.cross_entropy_bwd(1.0, c_loss)

        for i in range(cfg.n_layers - 1, -1, -1):
            w = _gather_chunk(
                comm, shards[i], templates[i], ("fsdp-agb", it, k, i), w_wire
            )
            dy, g = ck.bwd(i, w, dy, fwd_states[i])
            del w
            if dy is not None:
                dy = q_bgrad(dy)
            flat_g = quantize_grads(g, spec.precision).pack(dtype=np.float64)
            mine = reduce_scatter(
                comm,
                flat_g,
                tag=("fsdp-rs", it, k, i),
                nbytes_per_element=d_wire,
            )
            grad_shards[i] += scale * mine

    loss_sum = all_reduce(comm, np.array([local_loss]), tag=("fsdp-loss", it))[0]
    grad_structs = [ParamStruct({"flat": g}) for g in grad_shards]
    pre_update(spec, it, opt, grad_structs, comm=comm, tag=("fsdp-clip", it))
    for i, s in enumerate(shards):
        ps = ParamStruct({"flat": s})
        opt.step(ps, grad_structs[i], states[i])
        shards[i] = ps["flat"]
    return float(loss_sum) / spec.n_microbatches


def fsdp_step(
    comm: Communicator,
    spec: TrainSpec,
    iteration: int,
    chunks: List[ParamStruct],
    opt_states: List[Dict],
) -> Tuple[float, List[ParamStruct], List[Dict]]:
    """One FSDP iteration from canonical (unsharded) state.

    Shards ``chunks``/``opt_states`` exactly as a fresh run would, runs
    the standard schedule, then gathers everything back.  Returned
    tensors are float64 so the shard → gather → shard round trip is
    lossless; every rank returns the identical full state.
    """
    cfg = spec.cfg
    rank, p = comm.rank, comm.world_size
    cos, sin = spec.rope()
    ck = CheckpointedChunk(cfg, recompute=spec.recompute)
    templates = [c.zeros_like() for c in chunks]
    shards = [
        split_chunks(c.pack(dtype=np.float64), p)[rank].copy() for c in chunks
    ]
    opt = spec.make_optimizer()
    states = [_shard_opt_state(s, p, rank) for s in opt_states]

    loss = _fsdp_iteration(
        comm, spec, iteration, shards, templates, opt, states, cos=cos, sin=sin, ck=ck
    )

    w_wire = spec.precision.weight_bytes
    new_chunks = [
        templates[i]
        .astype(np.float64)
        .unpack_from(
            np.concatenate(
                all_gather(
                    comm,
                    shards[i],
                    tag=("fsdp-state-w", iteration, i),
                    nbytes=int(shards[i].size * w_wire),
                )
            )
        )
        for i in range(cfg.n_layers)
    ]
    state_templates = [opt.init_state(templates[i]) for i in range(cfg.n_layers)]
    new_states = [
        _gather_opt_state(
            comm, states[i], state_templates[i], ("fsdp-state-opt", iteration, i)
        )
        for i in range(cfg.n_layers)
    ]
    return loss, new_chunks, new_states


def _worker(comm: Communicator, spec: TrainSpec) -> TrainResult:
    cfg = spec.cfg
    rank, p = comm.rank, comm.world_size
    cos, sin = spec.rope()
    ck = CheckpointedChunk(cfg, recompute=spec.recompute)
    w_wire = spec.precision.weight_bytes

    # shard the deterministically initialised model; drop the full copy.
    full = spec.init_chunks()
    templates = [c.zeros_like() for c in full]
    shards: List[np.ndarray] = [
        split_chunks(c.pack(dtype=np.float64), p)[rank].copy() for c in full
    ]
    del full

    opt = spec.make_optimizer()
    if spec.initial_opt_state is not None:
        if len(spec.initial_opt_state) != cfg.n_layers:
            raise ValueError(
                f"initial_opt_state has {len(spec.initial_opt_state)} "
                f"entries, expected {cfg.n_layers}"
            )
        states = [_shard_opt_state(s, p, rank) for s in spec.initial_opt_state]
    else:
        states = [opt.init_state(ParamStruct({"flat": s})) for s in shards]

    losses: List[float] = []
    for it in range(spec.iters):
        losses.append(
            _fsdp_iteration(
                comm, spec, it, shards, templates, opt, states, cos=cos, sin=sin, ck=ck
            )
        )

    # reassemble full weights once, for result comparison.
    final = [
        _gather_chunk(comm, shards[i], templates[i], ("fsdp-final", i), w_wire)
        for i in range(cfg.n_layers)
    ]
    return TrainResult(
        losses=losses, chunks=final, extra={"recompute": recompute_ledger(ck)}
    )


def train_fsdp(
    spec: TrainSpec, world_size: int, fabric: Optional[Fabric] = None
) -> TrainResult:
    """Run ZeRO-3 FSDP on ``world_size`` simulated workers."""
    if spec.n_microbatches % world_size != 0:
        raise ValueError("n_microbatches must be divisible by world_size")
    results = run_workers(
        world_size, lambda comm: _worker(comm, spec), fabric=fabric
    )
    results[0].extra["recompute"] = sum_recompute(results)
    return results[0]
