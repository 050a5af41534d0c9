"""Activation-passing pipeline parallelism: GPipe, 1F1B, ZB1, ZB2.

The classical pipelines the paper compares against.  The model's layer
chunks are split into ``P`` contiguous *stages*; microbatch activations
travel ``stage s -> s+1`` in the forward pass and their gradients travel
back, so the per-hop message size is ``G * S * H`` elements — the volume
that explodes with context length and motivates WeiPipe.

A stage is one more subclass of the shared loop,
:class:`~repro.parallel.common.RankLoop` (:class:`StageLoop`): it runs a
per-rank *program* — a list of ``("F" | "B" | "W", microbatch)`` ops from
:func:`stage_program` — with the loop's one body per op kind, and keeps
only its chunk ids, its program, its wire (activations in and out, their
gradients back) and its two collectives.  The four schedules are the
four rows of :data:`PIPELINE_SCHEDULES`:
how many forwards a stage runs before its first backward (warmup depth)
and whether the backward is split into B and W ops.  A split schedule
runs each W one B behind.  All four compute bit-identical numbers; they
differ in *when* each stage runs which pass, i.e. in bubbles and
liveness:

* **GPipe** — all ``N`` forwards, then all ``N`` backwards (peak ``N``
  in-flight activation sets per stage).
* **1F1B** (Dapple/Megatron) — ``P - 1 - rank`` warmup forwards, then a
  one-forward-one-backward rhythm (peak ``min(N, P - rank)`` in-flight).
* **ZB1 / ZB2** (zero bubble, Qi et al.) — the backward is split into a
  **B pass** (gradient w.r.t. activations; unblocks the upstream stage
  at once) and a **W pass** (gradient w.r.t. weights; local GEMMs,
  freely deferrable) that fills bubbles.  ZB1 warms up ``P - rank``
  deep; ZB2 warms up ``2(P - rank) - 1`` deep, buying a smaller bubble
  (in time; see ``repro.sim``) with about twice the in-flight caches.
  Both run each W one B behind, in ZB-H2's steady ``F B W`` rhythm.

Between a microbatch's B pass and its W pass the stage holds both the
forward cache and the B-pass gradient bundle.  The paper's Table 2
finding — ZB1/ZB2 go OOM where 1F1B does not, once Flash Attention makes
FFN activations dominant — is driven by those caches, so every result
carries ``extra["peak_inflight"]`` and ``extra["peak_pending_w"]``
(rank -> peak count of microbatches between F and B / B and W; the
latter 0 for fused schedules): the per-field maxima of the program's
:func:`~repro.core.schedule.liveness` walk.  With recomputation a split
schedule's B pass rebuilds the cache and parks it for the W pass; the
paper runs ZB without it (§5), a policy ``repro.sim.exec_for`` keeps.

The same program is what ``repro.sim.schedules.pipeline`` turns into a
task graph and what ``repro.sim.memory`` walks (DESIGN §18).
"""

from __future__ import annotations

from typing import List, Tuple

from ..runtime import Communicator, all_gather
from .common import Post, RankLoop, TrainSpec, microbatch, slot_chunk_ids

__all__ = [
    "PIPELINE_SCHEDULES",
    "splits_backward",
    "stage_program",
    "StageLoop",
]

#: schedule -> (warmup depth of stage ``r`` of ``P`` running ``n``
#: microbatches, does it split the backward into B and W).  The depth is
#: capped at ``n`` by :func:`stage_program`.
PIPELINE_SCHEDULES = {
    "gpipe": (lambda P, r, n: n, False),
    "1f1b": (lambda P, r, n: P - 1 - r, False),
    "zb1": (lambda P, r, n: P - r, True),
    "zb2": (lambda P, r, n: 2 * (P - r) - 1, True),
}


def _row(schedule: str) -> tuple:
    try:
        return PIPELINE_SCHEDULES[schedule]
    except KeyError:
        raise ValueError(
            f"unknown pipeline schedule {schedule!r}; "
            f"choose from {sorted(PIPELINE_SCHEDULES)}"
        ) from None


def splits_backward(schedule: str) -> bool:
    """Does ``schedule`` run B and W as separate ops?  Such a schedule
    keeps each B pass's cache until its W pass."""
    return _row(schedule)[1]


def stage_program(
    schedule: str, world: int, rank: int, n_mb: int
) -> List[Tuple[str, int]]:
    """Stage ``rank``'s straight-line op sequence as ``(kind, mb)`` pairs.

    Three phases: ``warmup`` forwards; then per microbatch one forward
    (while any remain), its B, and — on a split schedule — the W of the
    B before it; then the last W.
    """
    depth, split = _row(schedule)
    warmup = min(n_mb, depth(world, rank, n_mb))
    ops = [("F", mb) for mb in range(warmup)]
    for b in range(n_mb):
        if warmup + b < n_mb:
            ops.append(("F", warmup + b))
        ops.append(("B", b))
        if split and b > 0:
            ops.append(("W", b - 1))
    if split and n_mb:
        ops.append(("W", n_mb - 1))
    return ops


class StageLoop(RankLoop):
    """Pipeline stage ``rank``: the shared loop over the stage's chunks
    (:func:`~repro.parallel.common.slot_chunk_ids`) running its
    :func:`stage_program`.  Stage 0 reads the tokens and every other stage
    receives its input from the stage before (``("act", it, mb)``); the
    last stage holds the loss and every other one sends its output on.
    The gradients flow back the same way (``("bgrad", it, mb)``).  The
    stages clip by the ``("pp-clip", it)`` all-reduce, and the
    ``("pp-loss", it)`` all-gather shares the last stage's loss."""

    POSTS = (Post("F", "hop", "act", "act", "act", peer="next"),
             Post("B", "hop", "bgrad", "act", "act_grad", peer="prev"),
             Post("end", "all-gather", "pp-loss", "ranks", "loss"))

    @classmethod
    def build(cls, record, spec, comm):
        """Stage ``comm.rank`` of the record's schedule."""
        return cls(spec, comm, record.schedule)

    def __init__(self, spec: TrainSpec, comm: Communicator, schedule: str):
        super().__init__(spec, comm)
        self.ids = slot_chunk_ids(self.rank, self.world, spec.cfg.n_layers)
        self.split = splits_backward(schedule)
        self._program = stage_program(schedule, self.world, self.rank, spec.n_microbatches)
        self.span_args = {"schedule": schedule}

    def program(self):
        return self._program

    def x_in(self, it, mb):
        tokens, targets = microbatch(self.spec, it, mb)
        if self.rank > 0:
            tokens = self.comm.recv(self.rank - 1, ("act", it, mb))
        return tokens, targets if self.rank == self.world - 1 else None

    def x_out(self, it, mb, x):
        nbytes = int(x.size * self.spec.precision.act_bytes)
        self.comm.send(x, self.rank + 1, ("act", it, mb), nbytes=nbytes)

    def dy_in(self, it, mb):
        return self.comm.recv(self.rank + 1, ("bgrad", it, mb))

    def dy_out(self, it, mb, dy):
        nbytes = int(dy.size * self.spec.precision.act_grad_bytes)
        self.comm.send(dy, self.rank - 1, ("bgrad", it, mb), nbytes=nbytes)

    def sync(self, it, grads, loss):
        return sum(all_gather(self.comm, loss, tag=("pp-loss", it)))

    def clip_args(self, it):
        return {"comm": self.comm, "tag": ("pp-clip", it)}
