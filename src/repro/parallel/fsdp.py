"""Fully Sharded Data Parallelism (ZeRO-3), the paper's FSDP baseline.

Every worker owns a ``1/P`` flat shard of each layer chunk (weights and
optimizer state).  For each microbatch, each layer's full weights are
materialised with a ring **all-gather** just before use — once in the
forward pass and again in the backward pass — and gradients leave via a
ring **reduce-scatter**, after which the full weights are freed.  Per
iteration each worker therefore moves ``3 (P-1)/P`` of the model per
microbatch group, the collective-communication load the paper contrasts
with WeiPipe's weight ring.

Data is split like DP: worker ``r`` runs microbatches ``{r, r+P, ...}``
in the shared iteration (:class:`~repro.parallel.common.RankLoop`), each
chunk through an :class:`FSDPSeam` that holds those collectives.

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

from ..nn.params import ParamStruct
from ..optim.optimizer import map_opt_state
from ..runtime import (
    Communicator,
    Fabric,
    all_gather,
    all_reduce,
    reduce_scatter,
    run_workers,
    split_chunks,
)
from .common import ChunkSeam, Post, TrainResult, TrainSpec, recompute_ledger, sum_recompute
from .data_parallel import DPLoop

__all__ = ["train_fsdp", "fsdp_step", "FSDPSeam"]


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


def _shard(chunk: ParamStruct, p: int, rank: int) -> ParamStruct:
    """This rank's flat float64 shard of ``chunk``."""
    return ParamStruct(
        {"flat": split_chunks(chunk.pack(dtype=np.float64), p)[rank].copy()}
    )


def _shard_opt_state(state: Dict, p: int, rank: int) -> Dict:
    """Slice a canonical optimizer state to this rank's flat shard.

    Tensor leaves become ``ParamStruct({"flat": shard})`` in float64 —
    the exact layout ``opt.init_state`` produces for a fresh FSDP run —
    while scalar leaves (step counters) pass through.
    """
    return map_opt_state(state, lambda ps: _shard(ps, p, rank))


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


class FSDPSeam(ChunkSeam):
    """ZeRO-3 around one chunk of one microbatch, ``key = (it, k, i)``:
    the chunk's full weights are all-gathered before its F and again
    before its B (``("fsdp-agf" | "fsdp-agb",) + key``), and its gradient
    leaves by a reduce-scatter to this rank's flat shard
    (``("fsdp-rs",) + key``).  ``k`` is the rank's local microbatch
    ordinal, identical on every rank, unlike the global microbatch id."""

    def __init__(self, comm: Communicator, spec: TrainSpec,
                 template: ParamStruct, key: Tuple):
        super().__init__(spec.cfg.n_heads)
        self.comm, self.template, self.key = comm, template, key
        self.w_wire = spec.precision.weight_bytes
        self.d_wire = spec.precision.weight_grad_bytes

    def gather(self, w: ParamStruct, op: str) -> ParamStruct:
        tag = ("fsdp-ag" + op.lower(),) + self.key
        return _gather_chunk(self.comm, w["flat"], self.template, tag, self.w_wire)

    def reduce(self, g: ParamStruct) -> ParamStruct:
        mine = reduce_scatter(
            self.comm, g.pack(dtype=np.float64), tag=("fsdp-rs",) + self.key,
            nbytes_per_element=self.d_wire,
        )
        return ParamStruct({"flat": mine})


class FSDPLoop(DPLoop):
    """An FSDP rank: DP's microbatches over flat weight shards, each chunk
    through an :class:`FSDPSeam`; the gradients arrive reduce-scattered,
    so the sync sums only the loss and clipping sums the shards' norms.
    The full weights are gathered once more at the end of the call."""

    POSTS = (Post("F", "all-gather", "fsdp-agf", "chunk", "weight"),
             Post("B", "all-gather", "fsdp-agb", "chunk", "weight"),
             Post("B", "reduce-scatter", "fsdp-rs", "chunk", "wgrad"),
             Post("end", "all-reduce", "fsdp-loss", "one", "loss"),
             Post("call", "all-gather", "fsdp-final", "chunk", "weight"))

    def __init__(self, spec: TrainSpec, comm: Communicator,
                 templates: List[ParamStruct]):
        super().__init__(spec, comm)
        self.templates = templates

    def seam(self, key):
        it, mb, i = key
        k = self.microbatches().index(mb)  # the rank's k-th microbatch
        return FSDPSeam(self.comm, self.spec, self.templates[i], (it, k, i))

    def sync(self, it, grads, loss):
        return all_reduce(self.comm, np.array([loss]), tag=("fsdp-loss", it))[0]

    def clip_args(self, it):
        return {"comm": self.comm, "tag": ("fsdp-clip", it)}


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
    rank, p = comm.rank, comm.world_size
    templates = [c.zeros_like() for c in chunks]
    shards = [_shard(c, p, rank) for c in chunks]
    loop = FSDPLoop(spec, comm, templates)
    states = [_shard_opt_state(s, p, rank) for s in opt_states]
    loss = loop.step(iteration, shards, states)

    w_wire = spec.precision.weight_bytes
    new_chunks = [
        _gather_chunk(comm, s["flat"], t.astype(np.float64),
                      ("fsdp-state-w", iteration, i), w_wire)
        for i, (s, t) in enumerate(zip(shards, templates))
    ]
    new_states = [
        _gather_opt_state(comm, states[i], loop.opt.init_state(t),
                          ("fsdp-state-opt", iteration, i))
        for i, t in enumerate(templates)
    ]
    return loss, new_chunks, new_states


def _worker(comm: Communicator, spec: TrainSpec) -> TrainResult:
    rank, p = comm.rank, comm.world_size
    # shard the deterministically initialised model; drop the full copy.
    full = spec.init_chunks()
    templates = [c.zeros_like() for c in full]
    shards = [_shard(c, p, rank) for c in full]
    del full

    loop = FSDPLoop(spec, comm, templates)
    losses, _ = loop.train(shards, shard=lambda s: _shard_opt_state(s, p, rank))

    # reassemble full weights once, for result comparison.
    w_wire = spec.precision.weight_bytes
    final = [
        _gather_chunk(comm, s["flat"], t, ("fsdp-final", i), w_wire)
        for i, (s, t) in enumerate(zip(shards, templates))
    ]
    return TrainResult(
        losses=losses, chunks=final, extra={"recompute": recompute_ledger(loop.ck)}
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
