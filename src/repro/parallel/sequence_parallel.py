"""Sequence (context) parallelism — the long-context-specific baseline.

The paper's related work cites sequence parallelism as the technique
"specifically designed for long sequences": split each microbatch's
*positions* across workers so activation memory per worker shrinks by
``P``, at the price of attention-time communication (queries must see
every key/value).  This module implements the gather-based variant
(Megatron context parallelism):

* worker ``r`` owns positions ``[r·S/P, (r+1)·S/P)`` of **every**
  microbatch; everything except attention is position-local;
* attention **all-gathers K and V** (each ``G·S·H/P`` per hop, ring) and
  runs block-causal attention of the local query block against the full
  sequence (:func:`repro.nn.attention.attention_block_fwd`);
* the backward produces dK/dV contributions for *all* positions, which
  **reduce-scatter** back to their owners;
* weight gradients are partial over positions, so they all-reduce at
  iteration end like data parallelism (every worker then updates its
  full replica identically).

Per layer per microbatch the attention pays ``~4·(P-1)/P·G·S·H``
elements of collective traffic — like activation-passing PP, it scales
with context length, which is exactly the contrast with WeiPipe's
``O(H²)`` ring that the comparison tests measure.

Each rank runs the shared iteration
(:class:`~repro.parallel.common.RankLoop`) and the shared chunk code on
its block through an :class:`SPSeam`, which stands in for the attention
core; there is no second copy of the loop or the layer here.

Numerical contract: bit-identical to the serial baseline at world 1
(``tests/parallel/test_seam_equivalence.py``); at world ``P`` equal to
it up to the collectives' summation order
(``tests/parallel/test_sequence_parallel.py``).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..nn.attention import attention_block_bwd, attention_block_fwd
from ..runtime import Communicator, all_gather, reduce_scatter
from .common import ChunkSeam, Post, RankLoop, TrainSpec
from .data_parallel import all_reduce_grads

__all__ = ["SPLoop", "SPSeam"]


class SPSeam(ChunkSeam):
    """Context parallelism's seam on one SP rank: the attention core of
    the rank's query block against the whole sequence.  The forward
    all-gathers K and V (``("sp-f", it, mb, i, "k" | "v")``) and runs
    block-causal attention at the block's offset; the backward routes the
    dK / dV every rank produced for every position home with a
    reduce-scatter (``("sp-b", ..., "dk" | "dv")``).  Everything else in
    the layer is position-local, so the other seam points are identities.
    """

    attention_core = True

    def __init__(self, comm: Communicator, spec: TrainSpec, key: Tuple):
        super().__init__(spec.cfg.n_heads)
        self.comm, self.key, self.world = comm, key, comm.world_size
        self.block = spec.cfg.seq_len // self.world
        self.offset = comm.rank * self.block
        self.act_wire = spec.precision.act_bytes
        self.bgrad_wire = spec.precision.act_grad_bytes

    def attention_fwd(self, qh: np.ndarray, kh: np.ndarray, vh: np.ndarray):
        k_full = self._gather(kh, ("sp-f",) + self.key + ("k",))
        v_full = self._gather(vh, ("sp-f",) + self.key + ("v",))
        return attention_block_fwd(qh, k_full, v_full, self.offset)

    def attention_bwd(self, dattn: np.ndarray, cache: tuple):
        dqh, dk_full, dv_full = attention_block_bwd(dattn, cache)
        dkh = self._scatter(dk_full, ("sp-b",) + self.key + ("dk",))
        dvh = self._scatter(dv_full, ("sp-b",) + self.key + ("dv",))
        return dqh, dkh, dvh

    def _gather(self, local: np.ndarray, tag: Tuple) -> np.ndarray:
        """All-gather (G, nh, S/P, hd) blocks into the full sequence."""
        blocks = all_gather(
            self.comm, local, tag=tag, nbytes=int(local.size * self.act_wire)
        )
        return np.concatenate(blocks, axis=2)

    def _scatter(self, full_grad: np.ndarray, tag: Tuple) -> np.ndarray:
        """Reduce-scatter (G, nh, S, hd) position grads to their owners.

        ``reduce_scatter`` partitions the *flat* buffer into P contiguous
        chunks, so the position axis must be block-major first: reorder
        to (P, G, nh, block, hd), then chunk ``r`` is exactly worker
        ``r``'s position block.
        """
        g, nh, s, hd = full_grad.shape
        blocked = full_grad.reshape(g, nh, self.world, self.block, hd)
        block_major = np.ascontiguousarray(blocked.transpose(2, 0, 1, 3, 4))
        flat = reduce_scatter(
            self.comm, block_major.reshape(-1),
            tag=tag, nbytes_per_element=self.bgrad_wire,
        )
        return flat.reshape(g, nh, self.block, hd)


class SPLoop(RankLoop):
    """An SP rank: its position block of every microbatch (its loss 1/P
    of the microbatch's mean), then DP's all-reduce of the
    position-partial weight gradients."""

    POSTS = (Post("F", "all-gather", "sp-f", "act", "act", count=2),
             Post("B", "reduce-scatter", "sp-b", "act", "act_grad", count=2),
             Post("end", "all-reduce", "sp-grad", "chunk", "wgrad"),
             Post("end", "all-reduce", "sp-loss", "one", "loss"))
    whole = False

    def __init__(self, spec: TrainSpec, comm: Communicator):
        super().__init__(spec, comm)
        self.parts = self.world
        block = spec.cfg.seq_len // self.world
        self.positions = slice(self.rank * block, (self.rank + 1) * block)
        self.cos, self.sin = self.cos[self.positions], self.sin[self.positions]

    @classmethod
    def check(cls, spec, world):
        if spec.recompute:
            raise ValueError(
                "the SP baseline does not implement recomputation "
                "(it would re-gather K/V in the backward)"
            )

    def seam(self, key):
        return SPSeam(self.comm, self.spec, key)

    def sync(self, it, grads, loss):
        return all_reduce_grads(self.comm, self.spec, "sp", it, grads, loss)
