"""Data parallelism with ring all-reduce gradient synchronisation.

Each of the ``P`` workers holds a full model replica and processes the
microbatches ``{rank, rank+P, ...}``; gradients are summed with the ring
all-reduce of :mod:`repro.runtime.collectives` (volume ``2 (P-1)/P`` of
the model per iteration per worker, the figure the paper's related-work
discussion attributes to DP) and every replica applies the identical
optimizer step.

The replicas are the whole state, so elastic recovery
(:mod:`repro.parallel.elastic`) snapshots any rank's as it stands.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..nn.params import ParamStruct
from ..runtime import Communicator, all_reduce
from .common import Post, RankLoop, TrainSpec

__all__ = ["DPLoop", "all_reduce_grads"]


def all_reduce_grads(
    comm: Communicator, spec: TrainSpec, name: str, it: int,
    grads: List[ParamStruct], loss: float,
) -> float:
    """Sum every rank's gradients (in place) and loss: one ring all-reduce
    per chunk, tagged ``(name + "-grad", it, i)``, then the loss's.  The
    gradients are complete replicas afterwards, so clipping is local."""
    for i, g in enumerate(grads):
        flat = all_reduce(
            comm, g.pack(dtype=np.float64), tag=(f"{name}-grad", it, i),
            nbytes_per_element=spec.precision.weight_grad_bytes,
        )
        grads[i] = g.unpack_from(flat)
    return all_reduce(comm, np.array([loss]), tag=(f"{name}-loss", it))[0]


class DPLoop(RankLoop):
    """A DP rank: microbatches ``{rank, rank+P, ...}`` on its replica,
    then :func:`all_reduce_grads`."""

    POSTS = (Post("end", "all-reduce", "dp-grad", "chunk", "wgrad"),
             Post("end", "all-reduce", "dp-loss", "one", "loss"))

    def microbatches(self):
        return range(self.rank, self.spec.n_microbatches, self.world)

    def sync(self, it, grads, loss):
        return all_reduce_grads(self.comm, self.spec, "dp", it, grads, loss)
