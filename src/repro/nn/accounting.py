"""FLOP and memory accounting for the functional substrate.

Two purposes:

* analytic FLOP counts (:func:`layer_fwd_flops`,
  :func:`training_step_flops`) matching the actual matmuls the layer
  executes — the ground truth the simulator's cost model
  (:mod:`repro.sim.costmodel`) is tested against; recomputation is
  counted by the checkpoint rule of :mod:`repro.nn.checkpoint`;
* empirical cache measurement (:func:`tensor_bytes`) — walks a forward
  cache and sums the *unique* ndarray payloads, giving the real
  activation footprint the memory model's ``ACT_FULL_COEF`` must match.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from .checkpoint import ONE_UNIT_STEP, replay_flops, replayed_chunks
from .model import ModelConfig

__all__ = [
    "layer_fwd_flops",
    "model_fwd_flops",
    "training_step_flops",
    "tensor_bytes",
]


def layer_fwd_flops(
    cfg: ModelConfig, g: int, causal: bool = True
) -> Dict[str, float]:
    """Forward FLOPs of one decoder layer for a (g, S) microbatch.

    Counts every GEMM at ``2 m n k`` plus the attention score/value
    products; elementwise work (norms, SiLU, residuals) is omitted, as
    in all standard accounting.  Returns a breakdown dict with a
    ``total`` key.
    """
    tokens = g * cfg.seq_len
    h, f = cfg.hidden, cfg.ffn
    qkvo = 2 * tokens * h * h * 4
    ffn = 2 * tokens * h * f * 3
    attn = 2 * 2 * g * cfg.n_heads * cfg.seq_len**2 * cfg.head_dim
    if causal:
        # only the lower triangle is useful, and the streaming kernel
        # computes only that (it skips query rows above each key block;
        # the diagonal tiles, ~block/S of the panel work, are computed in
        # full).  The materialised core still computes the whole square.
        attn /= 2
    return {
        "attention_projections": float(qkvo),
        "ffn": float(ffn),
        "attention_scores": float(attn),
        "total": float(qkvo + ffn + attn),
    }


def model_fwd_flops(cfg: ModelConfig, g: int) -> float:
    """Forward FLOPs of the full model incl. embedding-free LM head."""
    per_layer = layer_fwd_flops(cfg, g)["total"]
    head = 2 * g * cfg.seq_len * cfg.hidden * cfg.vocab
    return per_layer * cfg.n_layers + head


def training_step_flops(cfg: ModelConfig, g: int, recompute: bool) -> float:
    """One microbatch's forward+backward (+recompute) FLOPs, run as the
    one-unit program ``F, B`` over all ``n_layers`` chunks.

    Backward costs ~2x forward (one dgrad + one wgrad GEMM per forward
    GEMM).  Recomputation adds what the checkpoint rule prices: the
    replays :func:`~repro.nn.checkpoint.replayed_chunks` counts — every
    chunk but the last, whose cache the checkpoint kept — each at
    :func:`~repro.nn.checkpoint.replay_flops`.
    """
    replays = sum(replayed_chunks(ONE_UNIT_STEP, cfg.n_layers)) if recompute else 0
    replay = replay_flops(layer_fwd_flops(cfg, g), cfg.flash_attention)
    return 3.0 * model_fwd_flops(cfg, g) + replays * replay


def tensor_bytes(obj: Any) -> int:
    """Total bytes of the *unique* ndarrays reachable from ``obj``.

    Walks tuples/lists/dicts recursively and deduplicates aliased arrays
    by identity (caches frequently share views), so the result is the
    real incremental memory the object pins.
    """
    seen = set()
    total = 0
    stack = [obj]
    while stack:
        item = stack.pop()
        if isinstance(item, np.ndarray):
            base = item.base if item.base is not None else item
            if id(base) not in seen:
                seen.add(id(base))
                total += base.nbytes
        elif isinstance(item, (tuple, list)):
            stack.extend(item)
        elif isinstance(item, dict):
            stack.extend(item.values())
            stack.extend(item.keys())
    return total
