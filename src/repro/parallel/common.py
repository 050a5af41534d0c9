"""Shared scaffolding for all training strategies.

A :class:`TrainSpec` pins down everything that defines a training run —
model, data, optimizer, precision, recomputation, microbatching — so
that every strategy (serial, DP, FSDP, GPipe, 1F1B, ZB, WeiPipe) trains
*the same problem* and can be compared for numerical equivalence.

Data is synthetic next-token prediction over random token streams
(:func:`microbatch`): a pure function of ``(data_seed, iteration,
microbatch index)``, so any worker can materialise any microbatch
without a shared data loader — exactly how the equivalence tests keep
strategies honest.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.random import default_rng

from ..nn import functional as F
from ..nn.checkpoint import CheckpointedChunk
from ..nn.layer import Seam, draw_scratch
from ..nn.model import (
    ModelConfig, chunk_bwd, chunk_fwd, chunk_param_count, init_chunk, rope_tables,
)
from ..nn.params import BufferPool, ParamStruct
from ..nn.precision import FP32, PrecisionPolicy, is_exact
from ..optim.optimizer import SGD, Optimizer, clone_opt_state

__all__ = [
    "TrainSpec",
    "TrainResult",
    "microbatch",
    "quantize_grads",
    "quantize_grads_",
    "init_opt_states",
    "sharded_microbatch",
    "recompute_ledger",
    "sum_recompute",
]


#: the smallest chunk, in elements, that :meth:`TrainSpec.init_chunks`
#: draws on more than one thread.  A thread start costs ~0.1-0.3 ms and
#: 2^20 float64 normals ~15 ms, so from here on the start is lost in the
#: draw; the suite's long-context chunks (~65 k) stay sequential.
CONCURRENT_DRAW_MIN = 1 << 20


def usable_cores() -> int:
    """Cores this process may run on: its affinity mask, or the
    machine's count where there is none (macOS)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclass
class TrainSpec:
    """Complete description of one training problem.

    ``n_microbatches`` is the paper's ``N`` (per iteration) and
    ``microbatch_size`` its ``G``.  ``recompute`` toggles gradient
    checkpointing (the paper enables it for 1F1B/FSDP/WeiPipe, disables
    it for the ZB baselines).  ``seed`` names the weight-init streams —
    chunk ``i`` is drawn from ``(seed, i)``, as microbatch ``i`` of
    iteration ``t`` is from ``(data_seed, t, i)`` — so any worker can
    materialise exactly the chunks it holds (:meth:`init_chunks`).
    """

    cfg: ModelConfig
    n_microbatches: int = 4
    microbatch_size: int = 2
    iters: int = 1
    seed: int = 0
    data_seed: int = 1234
    recompute: bool = False
    precision: PrecisionPolicy = field(default_factory=lambda: FP32)
    make_optimizer: Callable[[], Optimizer] = field(
        default_factory=lambda: (lambda: SGD(lr=0.1))
    )
    #: optional LR schedule: iteration -> multiplier on the base lr.
    lr_schedule: Optional[Callable[[int], float]] = None
    #: optional global-L2-norm gradient clipping threshold.
    clip_norm: Optional[float] = None
    #: optional data source with a deterministic
    #: ``microbatch(iteration, index, g, s)`` method (see repro.data);
    #: None means i.i.d. uniform tokens.
    data: Optional[object] = None
    #: optional starting weights (e.g. from repro.io.load_checkpoint);
    #: None means fresh deterministic init from ``seed``.
    initial_chunks: Optional[List[ParamStruct]] = None
    #: optional per-chunk optimizer states to resume from (canonical
    #: full-tensor layout, as produced by ``opt.init_state(chunk)``);
    #: None means fresh zero state.  Strategies that shard state (FSDP)
    #: re-shard it on entry.
    initial_opt_state: Optional[List[Dict]] = None
    #: global iteration this run starts at (resume offset).  Applied
    #: centrally in :func:`microbatch` (data selection) and
    #: :func:`pre_update` (LR schedule), so iteration ``it`` of this run
    #: trains global iteration ``start_iteration + it`` under *every*
    #: strategy — a checkpointed run continued for the remaining
    #: iterations sees the same data and LR as the uninterrupted one.
    start_iteration: int = 0

    def __post_init__(self):
        if self.n_microbatches < 1:
            raise ValueError("need at least one microbatch")
        if self.iters < 1:
            raise ValueError("need at least one iteration")

    def init_chunks(
        self,
        ids: Optional[Sequence[int]] = None,
        pool: Optional[BufferPool] = None,
    ) -> List[ParamStruct]:
        """Starting weight chunks, quantised to the storage precision so
        all strategies start identically: either a deterministic fresh
        init from ``seed`` or the ``initial_chunks`` override (resume).

        ``ids`` names the chunks wanted, returned in that order (default:
        all ``n_layers``).  Only those are drawn — every chunk has its own
        init stream (:func:`~repro.nn.model.init_chunk`) — or cloned, so a
        worker that holds ``1/P`` of the model pays for ``1/P`` of it and
        never aliases the caller's ``initial_chunks``.  With ``pool`` the
        chunks are drawn (or cloned) into buffers acquired from it, for a
        worker whose slots must live there.  Large draws run on every core
        (:meth:`_draw`).
        """
        if ids is None:
            ids = range(self.cfg.n_layers)
        if self.initial_chunks is not None:
            if len(self.initial_chunks) != self.cfg.n_layers:
                raise ValueError("initial_chunks do not match the model config")
            chunks = [self.initial_chunks[i].clone(pool) for i in ids]
        else:
            chunks = self._draw(list(ids), pool)
        # in place (the chunks are ours, and a pooled buffer stays one),
        # and not at all where the storage format is the array's own.
        q, fmt = self.precision.q_weight, self.precision.weights
        for c in chunks:
            for a in c.values():
                if not is_exact(fmt, a.dtype):
                    a[...] = q(a)
        return chunks

    def _draw(
        self, ids: List[int], pool: Optional[BufferPool]
    ) -> List[ParamStruct]:
        """Fresh chunks ``ids`` from their own streams.

        Two or more chunks of at least :data:`CONCURRENT_DRAW_MIN`
        elements are drawn on ``min(len(ids), usable_cores())`` threads,
        this one among them; each chunk reads only its own stream, so the
        result is the sequential draw's, byte for byte.  Every buffer
        (``pool``'s, else ``np.empty``) and every float64 scratch is
        acquired here, on the calling thread, before any draw: a thread
        that allocated its chunk itself would leave the block cached in
        its own glibc arena, tens of MB of RSS in every rank forked later.
        The threads are joined before return, so a launch that forks next
        forks no thread.
        """
        cfg = self.cfg
        sizes = [chunk_param_count(cfg, i) for i in ids]
        bufs = [
            pool.acquire(n, cfg.dtype) if pool is not None
            else np.empty(n, dtype=cfg.dtype)
            for n in sizes
        ]
        n_threads = 1
        if len(ids) > 1 and min(sizes) >= CONCURRENT_DRAW_MIN:
            n_threads = min(len(ids), usable_cores())
        scratches = [draw_scratch() for _ in range(n_threads)]
        chunks: List[Optional[ParamStruct]] = [None] * len(ids)
        errors: List[BaseException] = []

        def draw(k: int) -> None:
            try:
                for j in range(k, len(ids), n_threads):
                    chunks[j] = init_chunk(
                        cfg, self.seed, ids[j], bufs[j], scratches[k]
                    )
            except BaseException as e:  # re-raised on the calling thread
                errors.append(e)

        threads: List[threading.Thread] = []
        try:
            for k in range(1, n_threads):
                t = threading.Thread(target=draw, args=(k,))
                t.start()
                threads.append(t)
            draw(0)
        finally:
            for t in threads:
                t.join()
        if errors:
            raise errors[0]
        return chunks

    def rope(self) -> Tuple[np.ndarray, np.ndarray]:
        return rope_tables(self.cfg)


def microbatch(
    spec: TrainSpec, iteration: int, index: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic microbatch ``index`` of ``iteration``.

    Delegates to ``spec.data`` when set (see :mod:`repro.data`); the
    default is uniform random tokens with next-token targets.  The seed
    mixes iteration and index so microbatches never repeat but any rank
    can regenerate any of them — the property every distributed strategy
    relies on instead of a shared data loader.
    """
    g, s, v = spec.microbatch_size, spec.cfg.seq_len, spec.cfg.vocab
    iteration = spec.start_iteration + iteration  # resume offset
    if spec.data is not None:
        tokens, targets = spec.data.microbatch(iteration, index, g, s)
        if tokens.shape != (g, s) or targets.shape != (g, s):
            raise ValueError(
                f"data source returned shape {tokens.shape}, expected {(g, s)}"
            )
        if tokens.max() >= v or targets.max() >= v:
            raise ValueError("data source produced token ids >= vocab")
        return tokens, targets
    rng = default_rng((spec.data_seed, iteration, index))
    stream = rng.integers(0, v, size=(g, s + 1))
    return stream[:, :-1], stream[:, 1:]


def init_opt_states(spec: TrainSpec, opt: Optimizer, chunks: List[ParamStruct]) -> List[Dict]:
    """Per-chunk optimizer states: fresh, or cloned from
    ``spec.initial_opt_state`` (checkpoint / elastic-snapshot resume)."""
    if spec.initial_opt_state is not None:
        if len(spec.initial_opt_state) != len(chunks):
            raise ValueError(
                f"initial_opt_state has {len(spec.initial_opt_state)} "
                f"entries, expected {len(chunks)}"
            )
        return [clone_opt_state(s) for s in spec.initial_opt_state]
    return [opt.init_state(c) for c in chunks]


def quantize_grads(grads: ParamStruct, policy: PrecisionPolicy) -> ParamStruct:
    """Quantise weight gradients to their wire format (paper: fp16 ``D``)."""
    q = policy.q_weight_grad
    return grads.map(lambda a: q(a).astype(a.dtype, copy=False))


def quantize_grads_(grads: ParamStruct, policy: PrecisionPolicy) -> ParamStruct:
    """In-place variant of :func:`quantize_grads` — same values, zero
    struct churn.  The overlap hot path (DESIGN.md §10) uses this so the
    circulating D keeps its arena across ring turns."""
    q = policy.q_weight_grad
    for a in grads.values():
        a[...] = q(a)
    return grads


def pre_update(
    spec: "TrainSpec",
    iteration: int,
    opt: Optimizer,
    grads: list,
    comm=None,
    count=None,
    tag: tuple = ("clip",),
) -> None:
    """Common pre-optimizer hook: LR schedule + global-norm clipping.

    ``grads`` is this worker's list of gradient :class:`ParamStruct`
    shards (mutated in place when clipping fires); ``comm`` is the
    communicator for the scalar norm all-reduce (``None`` when the
    worker already holds complete gradients, e.g. serial or post-
    all-reduce DP); ``count`` filters parameter names whose squares this
    worker contributes (used by TP to count replicated tensors once).
    Every strategy calls this at the same point — right before its
    optimizer steps — so scheduled/clipped runs stay equivalent.
    """
    if spec.lr_schedule is not None:
        opt.set_lr_scale(spec.lr_schedule(spec.start_iteration + iteration))
    if spec.clip_norm is not None:
        from ..optim.clip import apply_scale, global_clip_scale, local_sumsq

        scale = global_clip_scale(
            comm, local_sumsq(grads, count), spec.clip_norm, tag=tag
        )
        apply_scale(grads, scale)


def sharded_microbatch(
    spec: "TrainSpec",
    chunks: List[ParamStruct],
    accum: List[ParamStruct],
    tokens: np.ndarray,
    targets: np.ndarray,
    cos: np.ndarray,
    sin: np.ndarray,
    seam: Callable[[int], Seam],
    share: float = 1.0,
) -> float:
    """One microbatch through every chunk on a rank that holds a shard of
    each layer (TP, SP): :func:`~repro.parallel.serial.serial_step`'s body
    without recomputation, chunk ``i`` running through ``seam(i)``.

    Folds the scaled, quantised gradients into ``accum`` and returns the
    loss over ``targets``; ``share`` is that loss's weight in the
    microbatch's (1 unless the rank holds part of the positions).
    """
    cfg, p = spec.cfg, spec.precision
    x, caches = tokens, []
    for i, w in enumerate(chunks):
        x, cache = chunk_fwd(cfg, i, w, x, cos, sin, seam=seam(i))
        x = p.q_act(x)
        caches.append(cache)
    loss, c_loss = F.cross_entropy_fwd(x, targets)
    dy = F.cross_entropy_bwd(share, c_loss)
    for i in range(cfg.n_layers - 1, -1, -1):
        dy, g = chunk_bwd(cfg, i, chunks[i], dy, caches[i])
        if dy is not None:
            dy = p.q_act_grad(dy)
        accum[i].add_(quantize_grads(g, p), scale=1.0 / spec.n_microbatches)
    return loss


@dataclass
class TrainResult:
    """What every strategy returns: per-iteration mean losses and the
    final weight chunks (fp32-master values where applicable).  Inside a
    ring launch, workers other than rank 0 report ``chunks=None``."""

    losses: List[float]
    chunks: Optional[List[ParamStruct]]
    extra: Dict = field(default_factory=dict)

    def final_loss(self) -> float:
        return self.losses[-1]


def recompute_ledger(ck: CheckpointedChunk) -> Dict[str, int]:
    """One worker's ``extra["recompute"]``: how many of its backwards
    re-ran their forward and how many took the cache the checkpoint had
    kept (both 0 without ``spec.recompute``)."""
    return {"replayed": ck.replayed, "kept": ck.kept}


def sum_recompute(results: Sequence[TrainResult]) -> Dict[str, int]:
    """A launch's ``extra["recompute"]``: its ranks' ledgers summed."""
    return {
        key: sum(r.extra["recompute"][key] for r in results)
        for key in ("replayed", "kept")
    }
