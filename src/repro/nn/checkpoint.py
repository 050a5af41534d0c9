"""Activation recomputation (gradient checkpointing).

The paper enables recomputation for 1F1B, FSDP and WeiPipe (but *not*
for the zero-bubble baselines, where it saves nothing and only adds
compute — see Section 5).  Recomputation stores each chunk's *input*
during the forward pass and replays the forward inside the backward to
rebuild the cache, trading the replay for an ``O(caches)`` →
``O(boundary activations)`` memory reduction.

A replay is not a forward.  With the streaming attention core the state
also keeps the core's ``out`` and ``logsumexp`` — in the paper's regime
(``G S > 12 H``) about two thirds of a layer forward's time, and all it
leaves the backward is that pair: ``G S H (1 + 1/head_dim)`` elements,
one more boundary activation, with exactly the checkpoint's lifespan.
So the checkpoint term is ``2 G S H + G S n_heads`` elements per layer
per in-flight microbatch (twice the paper's boundary), against a cache
some 25x that.  ``q, k, v`` are *not* kept:
that is three more boundaries to save three thin GEMMs and two RoPE
passes.  The materialised core keeps nothing — its cache is the
``O(S^2)`` recomputation exists to drop.  The replay then runs the same
``chunk_fwd`` body handed what was kept: it rebuilds the attention cache
around the recomputed ``q, k, v`` without the core, and skips the GEMM
whose result only the chunk's *output* needs (the down projection; on
the last chunk, whose final norm reads the layer output, the logits).
The cache it returns is the one a whole second forward builds from the
same arrays, entry for entry.

One replay buys no memory: the one whose backward is the worker's very
next checkpointed op.  Read off the op sequence the way *Pipeline
Parallelism with Controllable Memory* reads peak memory off each
microbatch's lifespan, dropping that cache and rebuilding it
materialises the same bytes at the same moment.  So the newest
forward's cache is kept until the next checkpointed op — the last chunk
of a serial / DP / FSDP microbatch, every microbatch of 1F1B's last
stage, slot ``P - 1`` on the weight ring — and every other backward
replays as before (DESIGN.md §17).  A split backward recomputes the
same way: its B pass rebuilds the cache and parks it for the W pass.

:class:`CheckpointedChunk` wraps the chunk-level fwd/bwd of
:mod:`repro.nn.model` behind the same interface, so strategies toggle
recomputation with a flag instead of branching.

The rule is stated once, beside the class, in three parts that the
simulator's cost model, the memory model, the FLOP count and the trace
analyzer's ``reconcile()`` all read: :func:`checkpoint_elements` (bytes
kept), :func:`replay_flops` (what a replay re-runs) and
:func:`replayed_chunks` (which backward replays).
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .model import (
    ModelConfig,
    chunk_bwd,
    chunk_bwd_input,
    chunk_bwd_weight,
    chunk_fwd,
    chunk_kept,
)
from .params import ParamStruct

__all__ = ["CheckpointedChunk", "ONE_UNIT_STEP", "checkpoint_elements", "replay_flops",
           "replayed_chunks"]

#: one microbatch on a rank that runs the whole model as one unit (serial,
#: DP, FSDP, TP, SP): its forward, then its backward.
ONE_UNIT_STEP = (("F", 0), ("B", 0))


def checkpoint_elements(tokens: int, hidden: int, n_heads: int, flash: bool) -> int:
    """Elements one layer's checkpoint keeps for a microbatch of
    ``tokens`` positions: the layer input and, with the streaming core,
    the core's ``out`` and ``logsumexp`` (``2 G S H + G S n_heads``)."""
    x = tokens * hidden
    return x + (x + tokens * n_heads if flash else 0)


def replay_flops(fwd: Mapping[str, float], flash: bool) -> float:
    """FLOPs one layer's replay re-runs, from its forward's breakdown (the
    keys of :func:`repro.nn.accounting.layer_fwd_flops`): the forward
    without the down projection — one of the three ``ffn`` GEMMs — and,
    with the streaming core, without ``attention_scores``.  (The last
    chunk keeps its down projection and skips the logits instead.)"""
    core = fwd["attention_scores"] if flash else 0.0
    return fwd["total"] - fwd["ffn"] / 3.0 - core


def replayed_chunks(ops: Sequence[Tuple[str, object]], layers: int) -> List[int]:
    """Per op of one rank's program — ``(kind, unit)`` pairs, a unit being
    ``layers`` chunks — how many chunk forwards it replays under
    recomputation.  A ``B`` replays all its chunks except one when the
    rank's latest checkpointed op is the ``F`` of the same unit (that
    forward's newest cache is kept); ``W`` is no checkpointed op, it runs
    on the cache its ``B`` rebuilt.  ``F`` and ``W`` replay nothing."""
    counts, latest = [], None
    for kind, unit in ops:
        counts.append(layers - (latest == ("F", unit)) if kind == "B" else 0)
        if kind != "W":
            latest = (kind, unit)
    return counts


class CheckpointedChunk:
    """Uniform chunk fwd/bwd with optional recomputation.

    With ``recompute=False`` the full forward cache is kept (classical
    behaviour).  With ``recompute=True`` the state is the chunk input
    plus :func:`~repro.nn.model.chunk_kept` of the cache — the streaming
    attention core's ``(out, logsumexp)``, else nothing — and the cache
    is rebuilt on demand in :meth:`bwd` / :meth:`bwd_input`.

    The exception is one *warm* entry: the newest forward's
    ``(state, cache)``.  It is dropped on entry to every :meth:`fwd` and
    every backward, before anything is allocated, so it never coexists
    with a cache the plain scheme would not also hold; a backward that
    is handed the warm state itself takes the cache instead of replaying.
    The match is by identity, not equality: a state is the tuple one
    ``fwd`` call returned, so an entry left behind by an aborted step, or
    another microbatch with equal inputs, can never be mistaken for it.
    The kept cache is the tuple the replay would rebuild from the same
    inputs with the same calls, so results are bit-identical either way;
    ``replayed`` / ``kept`` count which way each backward went.

    Note the cache rebuilt during backward needs the *same weights* the
    forward used.  WeiPipe guarantees this because the backward weight
    flow delivers exactly the pre-update weights; classical pipelines
    keep their stage weights in place across the iteration.
    """

    def __init__(self, cfg: ModelConfig, recompute: bool = False):
        self.cfg = cfg
        self.recompute = recompute
        self._warm: Optional[Tuple[tuple, tuple]] = None
        #: backwards that re-ran their forward / took the warm cache.
        self.replayed = 0
        self.kept = 0

    def fwd(
        self,
        idx: int,
        w: ParamStruct,
        x: np.ndarray,
        cos: np.ndarray,
        sin: np.ndarray,
    ) -> Tuple[np.ndarray, tuple]:
        """Forward chunk ``idx``; the returned state feeds :meth:`bwd`."""
        self._warm = None
        y, cache = chunk_fwd(self.cfg, idx, w, x, cos, sin)
        if self.recompute:
            # the state keeps the boundary input and what the attention
            # core leaves of its work; the heavy cache lives on until the
            # next checkpointed op and no longer.
            state = ("recompute", x, cos, sin, chunk_kept(cache))
            self._warm = (state, cache)
            return y, state
        return y, ("full", cache)

    def _materialize(self, idx: int, w: ParamStruct, state: tuple) -> tuple:
        warm, self._warm = self._warm, None
        if state[0] == "full":
            return state[1]
        if warm is not None and warm[0] is state:
            self.kept += 1
            return warm[1]
        warm = None  # a stale cache is gone before the replay allocates
        self.replayed += 1
        _, x, cos, sin, kept = state
        _, cache = chunk_fwd(self.cfg, idx, w, x, cos, sin, replay=kept)
        return cache

    def bwd(
        self, idx: int, w: ParamStruct, dy: np.ndarray, state: tuple
    ) -> Tuple[Optional[np.ndarray], ParamStruct]:
        """Fused backward (B + W) with recomputation if enabled."""
        cache = self._materialize(idx, w, state)
        return chunk_bwd(self.cfg, idx, w, dy, cache)

    def bwd_input(
        self, idx: int, w: ParamStruct, dy: np.ndarray, state: tuple
    ) -> Tuple[Optional[np.ndarray], tuple, dict]:
        """Decoupled B pass; returns ``(dx, cache, wcache)``.

        The materialised ``cache`` is returned so the later W pass does
        not recompute the forward a second time.
        """
        cache = self._materialize(idx, w, state)
        dx, wcache = chunk_bwd_input(self.cfg, idx, w, dy, cache)
        return dx, cache, wcache

    def bwd_weight(self, idx: int, cache: tuple, wcache: dict) -> ParamStruct:
        """Decoupled W pass (cache must come from :meth:`bwd_input`)."""
        return chunk_bwd_weight(self.cfg, idx, cache, wcache)
