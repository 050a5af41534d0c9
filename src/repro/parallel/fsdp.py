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

Elastic recovery (:mod:`repro.parallel.elastic`) runs one iteration at
a time from the *canonical* (unsharded) state: :meth:`FSDPLoop.init_state`
shards it, :meth:`FSDPLoop.unshard` gathers it back.  Sharding
round-trips through float64 flats, so chaining steps is bit-identical to
a persistent-shard run, on any number of workers.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..nn.params import ParamStruct
from ..optim.optimizer import map_opt_state
from ..runtime import Communicator, all_gather, all_reduce, reduce_scatter, split_chunks
from .common import ChunkSeam, Post, TrainSpec, init_opt_states
from .data_parallel import DPLoop

__all__ = ["FSDPLoop", "FSDPSeam"]


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
    whole = False

    def init_state(self):
        """The rank's flat shard of every chunk and of its optimizer
        state; the chunks' shapes are kept as ``templates``."""
        p, rank = self.world, self.rank
        full = self.spec.init_chunks()
        self.templates = [c.zeros_like() for c in full]
        shards = [_shard(c, p, rank) for c in full]
        del full  # only the shards stay
        return shards, init_opt_states(self.spec, self.opt, shards, shard=lambda s: (
            _shard_opt_state(s, p, rank)))

    def unshard(self, chunks, states):
        """Every chunk and optimizer state all-gathered from the shards,
        in float64, so that sharding them again is lossless."""
        comm, w_wire = self.comm, self.spec.precision.weight_bytes
        return [
            _gather_chunk(comm, s["flat"], t.astype(np.float64), ("fsdp-state-w", i), w_wire)
            for i, (s, t) in enumerate(zip(chunks, self.templates))
        ], [
            _gather_opt_state(comm, st, self.opt.init_state(t), ("fsdp-state-opt", i))
            for i, (st, t) in enumerate(zip(states, self.templates))
        ]

    def seam(self, key):
        it, mb, i = key
        k = self.microbatches().index(mb)  # the rank's k-th microbatch
        return FSDPSeam(self.comm, self.spec, self.templates[i], (it, k, i))

    def sync(self, it, grads, loss):
        return all_reduce(self.comm, np.array([loss]), tag=("fsdp-loss", it))[0]

    def clip_args(self, it):
        return {"comm": self.comm, "tag": ("fsdp-clip", it)}

    def report(self, losses, chunks, states):
        """Every rank takes part in gathering the full weights once
        (``("fsdp-final", i)``); rank 0 reports them."""
        w_wire = self.spec.precision.weight_bytes
        final = [
            _gather_chunk(self.comm, s["flat"], t, ("fsdp-final", i), w_wire)
            for i, (s, t) in enumerate(zip(chunks, self.templates))
        ]
        return losses, dict(enumerate(final)) if self.rank == 0 else {}, self.ledgers()
