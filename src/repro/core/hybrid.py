"""2-D hybrid: WeiPipe rings inside data-parallel replica groups.

The paper evaluates a single ring of up to 32 workers; scaling further
in practice means composing parallelisms.  The natural 2-D layout keeps
the ring small (bubbles grow with ring size, and each ring wants
``n_layers % ring == 0``) and adds data-parallel *replicas* of the whole
ring:

* the world is a ``dp x ring`` grid: rank ``r`` is ring position
  ``r % ring`` of replica ``r // ring``;
* each replica ring runs standard WeiPipe-Interleave over its ``1/dp``
  share of the microbatches (round-robin by global index, so any world
  shape sees the same data);
* at the end of the ring turns (``RingLoop.sync``, beside the loss
  all-gather), each slot owner all-reduces its accumulated ``D`` across
  the ``dp`` replicas of the same ring position (one small weight-sized
  collective per slot — still no activation traffic), then every
  replica applies the identical update.

Numerical contract: identical to serial and to a pure WeiPipe ring of
any size (``tests/core/test_hybrid.py``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from ..parallel.common import TrainResult, TrainSpec, gather_owned, microbatch
from ..runtime import Communicator, Fabric, all_reduce, run_workers
from ..runtime.subgroup import split_grid
from .weipipe import RingLoop

__all__ = ["train_weipipe_dp"]


class _ShardedData:
    """Round-robin microbatch view: replica ``g`` of ``dp`` sees the
    global microbatches ``g, g+dp, g+2dp, ...`` as its local 0, 1, 2..."""

    def __init__(self, base_spec: TrainSpec, dp_index: int, dp_degree: int):
        self.base = base_spec
        self.dp_index = dp_index
        self.dp_degree = dp_degree

    def microbatch(self, iteration: int, index: int, g: int, s: int):
        return microbatch(
            self.base, iteration, index * self.dp_degree + self.dp_index
        )


def train_weipipe_dp(
    spec: TrainSpec,
    ring_size: int,
    dp_degree: int,
    fabric: Optional[Fabric] = None,
) -> TrainResult:
    """Train with ``dp_degree`` data-parallel WeiPipe rings of
    ``ring_size`` workers each (world = dp_degree * ring_size)."""
    world = ring_size * dp_degree
    if spec.cfg.n_layers % ring_size != 0:
        raise ValueError("n_layers must be divisible by ring_size")
    if spec.n_microbatches % (ring_size * dp_degree) != 0:
        raise ValueError(
            "n_microbatches must be divisible by ring_size * dp_degree"
        )

    def worker(comm: Communicator) -> TrainResult:
        ring_comm, dp_comm, dp_idx, _ring_rank = split_grid(
            comm, dp_degree, ring_size
        )
        local_spec = replace(
            spec,
            n_microbatches=spec.n_microbatches // dp_degree,
            data=_ShardedData(spec, dp_idx, dp_degree),
        )
        w = RingLoop(ring_comm, local_spec, "interleave", dp_comm=dp_comm)
        losses = []
        for it in range(spec.iters):
            ring_mean = w.run_iteration(it)
            # global mean = mean of equal-share replica means.
            total = all_reduce(dp_comm, np.array([ring_mean]), tag=("hdp-loss", it))
            losses.append(float(total[0]) / dp_degree)
        # report replica 0's weights (asserted identical in tests).
        chunks = gather_owned(ring_comm, {i: w.bwd_slot[i] for i in w.ids}, ("hdp-final",))
        return TrainResult(losses=losses, chunks=chunks, extra={"dp": dp_idx})

    results = run_workers(world, worker, fabric=fabric)
    return results[0]
