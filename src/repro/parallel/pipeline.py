"""Activation-passing pipeline parallelism: GPipe, 1F1B, ZB1, ZB2.

The classical pipelines the paper compares against.  The model's layer
chunks are split into ``P`` contiguous *stages*; microbatch activations
travel ``stage s -> s+1`` in the forward pass and their gradients travel
back, so the per-hop message size is ``G * S * H`` elements — the volume
that explodes with context length and motivates WeiPipe.

There is one stage worker.  It interprets a per-rank *program* — a list
of ``("F" | "B" | "W", microbatch)`` ops from :func:`stage_program` —
and the four schedules are the four rows of :data:`PIPELINE_SCHEDULES`:
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

from time import perf_counter
from typing import Dict, List, Optional, Tuple

from ..nn.checkpoint import CheckpointedChunk
from ..nn import functional as F
from ..nn.params import ParamStruct
from ..runtime import Communicator, Fabric, all_gather, run_workers
from .common import TrainResult, TrainSpec, init_opt_states, microbatch, pre_update
from .common import quantize_grads, recompute_ledger, sum_recompute

__all__ = [
    "PIPELINE_SCHEDULES",
    "splits_backward",
    "stage_chunk_range",
    "stage_program",
    "train_pipeline",
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


def stage_chunk_range(n_layers: int, world_size: int, rank: int) -> range:
    """Chunk indices owned by pipeline stage ``rank`` (contiguous split)."""
    if n_layers % world_size != 0:
        raise ValueError("n_layers must be divisible by the number of stages")
    per = n_layers // world_size
    return range(rank * per, (rank + 1) * per)


class _StageWorker:
    """One pipeline stage: three op bodies and the loop that runs them."""

    def __init__(self, comm: Communicator, spec: TrainSpec, schedule: str):
        self.comm = comm
        self.spec = spec
        self.cfg = spec.cfg
        self.schedule = schedule
        self.rank = comm.rank
        self.world = comm.world_size
        self.is_first = self.rank == 0
        self.is_last = self.rank == self.world - 1
        self.chunk_ids = list(
            stage_chunk_range(self.cfg.n_layers, self.world, self.rank)
        )
        self.chunks = dict(zip(self.chunk_ids, spec.init_chunks(self.chunk_ids)))
        self.cos, self.sin = spec.rope()
        self.ck = CheckpointedChunk(self.cfg, recompute=spec.recompute)
        self.opt = spec.make_optimizer()
        self.opt_states = dict(zip(self.chunk_ids, init_opt_states(
            spec, self.opt, list(self.chunks.values()), self.chunk_ids)))
        self.q_act = spec.precision.q_act
        self.q_bgrad = spec.precision.q_act_grad
        self.act_wire = spec.precision.act_bytes
        self.bgrad_wire = spec.precision.act_grad_bytes
        self.scale = 1.0 / spec.n_microbatches
        self.split = splits_backward(schedule)
        self.program = stage_program(
            schedule, self.world, self.rank, spec.n_microbatches
        )
        # mb -> per-chunk forward states, alive from F to B
        self.inflight: Dict[int, list] = {}
        # mb -> [(chunk id, cache, wcache), ...], alive from B to W
        self.pending_w: Dict[int, list] = {}
        self.loss_caches: Dict[int, tuple] = {}
        self.peak_inflight = 0
        self.peak_pending_w = 0
        self.local_losses: Dict[int, float] = {}
        self.trace = comm.trace

    # -- the three ops --------------------------------------------------------

    def forward(self, it: int, mb: int) -> None:
        if self.is_first:
            tokens, targets = microbatch(self.spec, it, mb)
            x = tokens
        else:
            x = self.comm.recv(self.rank - 1, ("act", it, mb))
            _, targets = microbatch(self.spec, it, mb)
        c0 = perf_counter()
        states = []
        for i in self.chunk_ids:
            x, st = self.ck.fwd(i, self.chunks[i], x, self.cos, self.sin)
            x = self.q_act(x)
            states.append(st)
        self.inflight[mb] = states
        self.peak_inflight = max(self.peak_inflight, len(self.inflight))
        if self.is_last:
            loss, c_loss = F.cross_entropy_fwd(x, targets)
            self.local_losses[mb] = loss
            self.loss_caches[mb] = c_loss
        if self.trace.enabled:
            self.trace.complete("F", "compute", c0, perf_counter() - c0,
                                {"mb": mb, "it": it})
        if not self.is_last:
            self.comm.send(
                x,
                self.rank + 1,
                ("act", it, mb),
                nbytes=int(x.size * self.act_wire),
            )

    def backward(self, it: int, mb: int, accum: Dict[int, ParamStruct]) -> None:
        """Fused schedules: B + W per chunk, accumulated at once.  Split
        schedules: the activation-gradient half only; each chunk's
        ``(cache, wcache)`` is parked for the microbatch's W op."""
        if self.is_last:
            dy = F.cross_entropy_bwd(1.0, self.loss_caches.pop(mb))
        else:
            dy = self.comm.recv(self.rank + 1, ("bgrad", it, mb))
        c0 = perf_counter()
        replayed = self.ck.replayed
        states = self.inflight.pop(mb)
        parked = []
        for pos in range(len(self.chunk_ids) - 1, -1, -1):
            i = self.chunk_ids[pos]
            if self.split:
                dy, cache, wcache = self.ck.bwd_input(i, self.chunks[i], dy, states[pos])
                parked.append((i, cache, wcache))
            else:
                dy, g = self.ck.bwd(i, self.chunks[i], dy, states[pos])
                accum[i].add_(quantize_grads(g, self.spec.precision), scale=self.scale)
            if dy is not None:
                dy = self.q_bgrad(dy)
        if self.split:
            self.pending_w[mb] = parked
            self.peak_pending_w = max(self.peak_pending_w, len(self.pending_w))
        if self.trace.enabled:
            self.trace.complete("B", "compute", c0, perf_counter() - c0,
                                {"mb": mb, "it": it,
                                 "replayed": self.ck.replayed - replayed})
        if not self.is_first:
            self.comm.send(
                dy,
                self.rank - 1,
                ("bgrad", it, mb),
                nbytes=int(dy.size * self.bgrad_wire),
            )

    def w_pass(self, it: int, mb: int, accum: Dict[int, ParamStruct]) -> None:
        """Weight-gradient half of a parked microbatch."""
        c0 = perf_counter()
        for i, cache, wcache in self.pending_w.pop(mb):
            g = self.ck.bwd_weight(i, cache, wcache)
            accum[i].add_(quantize_grads(g, self.spec.precision), scale=self.scale)
        if self.trace.enabled:
            self.trace.complete("W", "compute", c0, perf_counter() - c0,
                                {"mb": mb, "it": it})

    # -- iteration ------------------------------------------------------------

    def run_iteration(self, it: int) -> float:
        if not self.trace.enabled:
            return self._run_iteration(it)
        t0 = perf_counter()
        loss = self._run_iteration(it)
        self.trace.complete("iteration", "iteration", t0, perf_counter() - t0,
                            {"it": it, "schedule": self.schedule})
        return loss

    def _run_iteration(self, it: int) -> float:
        accum = {i: self.chunks[i].zeros_like() for i in self.chunk_ids}
        for kind, mb in self.program:
            if kind == "F":
                self.forward(it, mb)
            elif kind == "B":
                self.backward(it, mb, accum)
            else:
                self.w_pass(it, mb, accum)

        pre_update(
            self.spec, it, self.opt, [accum[i] for i in self.chunk_ids],
            comm=self.comm, tag=("pp-clip", it),
        )
        for i in self.chunk_ids:
            self.opt.step(self.chunks[i], accum[i], self.opt_states[i])

        # mean loss lives on the last stage; share it for reporting.
        losses = all_gather(
            self.comm, sum(self.local_losses.values()), tag=("pp-loss", it)
        )
        self.local_losses.clear()
        return sum(losses) / self.spec.n_microbatches


def _worker(comm: Communicator, spec: TrainSpec, schedule: str) -> TrainResult:
    w = _StageWorker(comm, spec, schedule)
    losses = [w.run_iteration(it) for it in range(spec.iters)]
    return TrainResult(
        losses=losses,
        chunks=[w.chunks[i] for i in w.chunk_ids],
        extra={
            "rank": w.rank,
            "peak_inflight": w.peak_inflight,
            "peak_pending_w": w.peak_pending_w,
            "recompute": recompute_ledger(w.ck),
        },
    )


def train_pipeline(
    spec: TrainSpec,
    world_size: int,
    schedule: str = "1f1b",
    fabric: Optional[Fabric] = None,
) -> TrainResult:
    """Run an activation-passing pipeline (``schedule`` names a row of
    :data:`PIPELINE_SCHEDULES`).

    Returns losses plus the *full* model (stage chunk lists concatenated
    in order).  ``extra["peak_inflight"]`` / ``extra["peak_pending_w"]``
    map rank -> peak count of microbatches between F and B / B and W;
    ``extra["recompute"]`` is the stages' replayed / kept backward count.
    Configuration errors raise ``ValueError`` here, before any worker is
    launched.
    """
    stage_chunk_range(spec.cfg.n_layers, world_size, 0)  # validate divisibility
    _row(schedule)  # validate the schedule name
    results = run_workers(
        world_size, lambda comm: _worker(comm, spec, schedule), fabric=fabric
    )
    chunks: List[ParamStruct] = []
    for r in results:
        chunks.extend(r.chunks)
    return TrainResult(
        losses=results[0].losses,
        chunks=chunks,
        extra={
            **{
                key: {r.extra["rank"]: r.extra[key] for r in results}
                for key in ("peak_inflight", "peak_pending_w")
            },
            "recompute": sum_recompute(results),
        },
    )
