"""Tensor parallelism (Megatron-style), the intra-layer baseline.

The paper's related-work discussion contrasts WeiPipe with TP: splitting
the matrix products *inside* each layer across workers costs "frequent
and fine-grained collective communication" — two all-reduces of a full
``G*S*H`` activation per layer in the forward pass and two more in the
backward, every microbatch.  This module implements that baseline on
the functional runtime so the trade-off is measurable.

Partitioning (classic Megatron):

* ``Wq/Wk/Wv`` column-split by heads — each worker computes its
  ``n_heads / P`` heads locally;
* ``Wo`` row-split — partial outputs summed with an **all-reduce**;
* ``W_gate/W_up`` column-split by FFN width, ``W_down`` row-split —
  second forward all-reduce;
* norms, embedding and LM head replicated (all workers compute them
  identically on identical data).

Every worker sees *every* microbatch (pure TP, no data parallelism), so
split parameters accumulate complete gradients locally and replicated
parameters compute identical gradients everywhere — no gradient
synchronisation step is needed at all; the price has already been paid
inside the layers.

Each rank runs the shared iteration
(:class:`~repro.parallel.common.RankLoop`) and the shared chunk code
through a :class:`TPSeam`, which all-reduces at the layer's four seam
points; there is no second copy of the loop or the layer here.

Numerical contract: bit-identical to the serial baseline at world 1
(``tests/parallel/test_seam_equivalence.py``); at world ``P`` equal to
it up to the all-reduces' summation order
(``tests/parallel/test_tensor_parallel.py``).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..nn.params import ParamStruct
from ..optim.optimizer import map_opt_state
from ..runtime import Communicator, all_gather, all_reduce
from .common import ChunkSeam, Post, RankLoop, TrainSpec, init_opt_states

__all__ = ["TPLoop", "split_layer_weights", "merge_layer_grads", "TPSeam"]


def _col_slice(w: np.ndarray, rank: int, world: int) -> np.ndarray:
    """Columns ``[rank*cols/P, (rank+1)*cols/P)`` of a (in, out) matrix."""
    cols = w.shape[1]
    if cols % world != 0:
        raise ValueError("output width not divisible by TP world size")
    per = cols // world
    return w[:, rank * per : (rank + 1) * per].copy()


def _row_slice(w: np.ndarray, rank: int, world: int) -> np.ndarray:
    rows = w.shape[0]
    if rows % world != 0:
        raise ValueError("input width not divisible by TP world size")
    per = rows // world
    return w[rank * per : (rank + 1) * per, :].copy()


#: how each layer parameter is partitioned across TP ranks.
_PARTITION = {
    "attn_norm": "replicated",
    "wq": "column",
    "wk": "column",
    "wv": "column",
    "wo": "row",
    "ffn_norm": "replicated",
    "w_gate": "column",
    "w_up": "column",
    "w_down": "row",
    "embed": "replicated",
    "final_norm": "replicated",
    "head": "replicated",
}


def split_layer_weights(w: ParamStruct, rank: int, world: int) -> ParamStruct:
    """This rank's shard of one chunk's weights."""
    out: Dict[str, np.ndarray] = {}
    for name, arr in w.items():
        kind = _PARTITION[name]
        if kind == "replicated":
            out[name] = arr.copy()
        elif kind == "column":
            out[name] = _col_slice(arr, rank, world)
        else:
            out[name] = _row_slice(arr, rank, world)
    return ParamStruct(out)


def _merge(parts: List[Dict[str, np.ndarray]], replicated: ParamStruct) -> ParamStruct:
    """One chunk from every rank's split tensors (``parts``, in rank
    order) and ``replicated``'s replicated ones."""
    axis = {"column": 1, "row": 0}
    return ParamStruct({
        name: replicated[name].copy() if _PARTITION[name] == "replicated"
        else np.concatenate([p[name] for p in parts], axis=axis[_PARTITION[name]])
        for name in replicated.keys()
    })


def merge_layer_grads(
    comm: Communicator, shard: ParamStruct, tag: Tuple
) -> Optional[ParamStruct]:
    """Reassemble a full chunk on rank 0 (for result export): every other
    rank sends it its column- and row-split tensors point to point and
    returns ``None``; rank 0 keeps its own replicated tensors."""
    split = {n: a for n, a in shard.items() if _PARTITION[n] != "replicated"}
    if comm.rank != 0:
        comm.send(split, 0, tag)
        return None
    return _merge([split] + [comm.recv(r, tag) for r in range(1, comm.world_size)], shard)


class TPSeam(ChunkSeam):
    """Megatron's split of one layer on one TP rank: ``n_heads / P`` local
    heads, and an all-reduce of a full ``G*S*H`` activation at each of
    the layer's four seam points (the TP tax) — its row-parallel outputs
    in the forward, tagged ``("tp-f", it, mb, i, site)``, and its
    column-parallel input gradients in the backward (``"tp-b"``)."""

    def __init__(self, comm: Communicator, spec: TrainSpec, key: Tuple):
        super().__init__(spec.cfg.n_heads // comm.world_size)
        self.comm, self.key = comm, key
        self.wire = spec.precision.act_bytes

    def row_out(self, y: np.ndarray, site: str) -> np.ndarray:
        return self._reduce(y, ("tp-f",) + self.key + (site,))

    def col_grad(self, dx: np.ndarray, site: str) -> np.ndarray:
        return self._reduce(dx, ("tp-b",) + self.key + (site,))

    def _reduce(self, partial: np.ndarray, tag: Tuple) -> np.ndarray:
        flat = all_reduce(
            self.comm, partial.reshape(-1), tag=tag, nbytes_per_element=self.wire
        )
        return flat.reshape(partial.shape)


class TPLoop(RankLoop):
    """A TP rank: every microbatch through its shards, no gradient sync;
    replicated tensors exist on every rank, so clipping counts their
    squared norm on rank 0 only and split tensors everywhere they live.
    At the end of the call every other rank sends rank 0 its split
    tensors (:func:`merge_layer_grads`)."""

    POSTS = (Post("F", "all-reduce", "tp-f", "act", "act", count=2),
             Post("B", "all-reduce", "tp-b", "act", "act", count=2),
             Post("call", "hop", "tp-final", "split", "dtype", peer="root"))
    whole = False

    @classmethod
    def check(cls, spec, world):
        if spec.recompute:
            raise ValueError(
                "the TP baseline does not implement recomputation "
                "(full caches are kept; combine with pipeline stages for that)"
            )

    def init_state(self):
        """This rank's split of every chunk and of its optimizer state."""
        split = lambda ps: split_layer_weights(ps, self.rank, self.world)
        shards = [split(c) for c in self.spec.init_chunks()]
        return shards, init_opt_states(self.spec, self.opt, shards, shard=lambda s: (
            map_opt_state(s, split)))

    def unshard(self, chunks, states):
        """Every rank's split tensors all-gathered, of the chunks and of
        their optimizer states; the replicated ones are rank 0's."""
        tags = itertools.count()

        def whole(shard: ParamStruct) -> ParamStruct:
            parts = all_gather(self.comm, shard, tag=("tp-state", next(tags)))
            return _merge(parts, parts[0])

        return [whole(c) for c in chunks], [map_opt_state(s, whole) for s in states]

    def seam(self, key):
        return TPSeam(self.comm, self.spec, key)

    def clip_args(self, it):
        count = lambda name: _PARTITION[name] != "replicated" or self.rank == 0
        return {"comm": self.comm, "count": count, "tag": ("tp-clip", it)}

    def report(self, losses, chunks, states):
        """Rank 0 reports the model it merges (``("tp-final", i)``)."""
        final = [merge_layer_grads(self.comm, c, ("tp-final", i)) for i, c in enumerate(chunks)]
        return losses, dict(enumerate(final)) if self.rank == 0 else {}, self.ledgers()
