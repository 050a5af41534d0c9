"""Autoregressive decoding and evaluation for the NumPy substrate.

Two decoding paths:

* :func:`generate` — incremental decoding with a **KV cache**: each new
  token runs one position through every layer, attending over the
  cached keys/values (O(n) per token instead of O(n²) re-forward).
* the full re-forward used internally by :func:`sequence_logprobs` —
  also the reference the KV-cache path is tested against.

Plus :func:`perplexity`, the standard eval metric, which pairs with
:meth:`repro.data.MarkovCorpus.entropy_rate` to measure how close a
trained model is to the data's information-theoretic floor.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from . import functional as F
from .attention import _softmax_scale
from .layer import _from_heads, _to_heads
from .model import ModelConfig, model_fwd
from .params import ParamStruct
from .rope import rope_angles, rope_apply

__all__ = ["KVCache", "generate", "sequence_logprobs", "perplexity"]


class KVCache:
    """Per-layer key/value tensors grown one position at a time."""

    def __init__(self, n_layers: int):
        self.k: List[Optional[np.ndarray]] = [None] * n_layers
        self.v: List[Optional[np.ndarray]] = [None] * n_layers

    def append(self, layer: int, k: np.ndarray, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Append (G, nh, t, hd) entries; returns the full cached K/V."""
        if self.k[layer] is None:
            self.k[layer], self.v[layer] = k, v
        else:
            self.k[layer] = np.concatenate([self.k[layer], k], axis=2)
            self.v[layer] = np.concatenate([self.v[layer], v], axis=2)
        return self.k[layer], self.v[layer]

    @property
    def length(self) -> int:
        return 0 if self.k[0] is None else self.k[0].shape[2]


def _layer_step(
    cfg: ModelConfig,
    w: ParamStruct,
    x: np.ndarray,
    cache: KVCache,
    layer: int,
    cos: np.ndarray,
    sin: np.ndarray,
    past: int,
) -> np.ndarray:
    """Forward ``t`` new positions of one layer against the KV cache.

    ``x``: (G, t, H); ``cos``/``sin`` rows are those of the new
    positions; ``past`` is the number of *previously cached* positions
    (passed explicitly — layer 0's cache has already grown by the time
    deeper layers run, so it cannot be read back).  Causality within the
    new block is enforced by a mask when ``t > 1`` (prompt ingestion).
    """
    nh = cfg.n_heads
    h1, _ = F.rmsnorm_fwd(x, w["attn_norm"])
    q = _to_heads(h1 @ w["wq"], nh)
    k = _to_heads(h1 @ w["wk"], nh)
    v = _to_heads(h1 @ w["wv"], nh)
    q = rope_apply(q, cos, sin)
    k = rope_apply(k, cos, sin)
    k_all, v_all = cache.append(layer, k, v)

    scores = (q @ np.swapaxes(k_all, -1, -2)) * _softmax_scale(cfg.head_dim)
    t_new, t_all = q.shape[-2], k_all.shape[-2]
    if t_new > 1:
        rows = past + np.arange(t_new)[:, None]
        cols = np.arange(t_all)[None, :]
        scores = np.where(cols > rows, -np.inf, scores)
    p, _ = F.softmax_fwd(scores)
    attn = _from_heads(p @ v_all)
    x = x + attn @ w["wo"]

    h2, _ = F.rmsnorm_fwd(x, w["ffn_norm"])
    gate, _ = F.silu_fwd(h2 @ w["w_gate"])
    return x + (gate * (h2 @ w["w_up"])) @ w["w_down"]


def _decode_step(
    cfg: ModelConfig,
    chunks: List[ParamStruct],
    tokens: np.ndarray,
    cache: KVCache,
    cos_all: np.ndarray,
    sin_all: np.ndarray,
) -> np.ndarray:
    """Run ``tokens`` (G, t) through all layers; returns last-position logits."""
    past = cache.length
    t = tokens.shape[1]
    cos = cos_all[past : past + t]
    sin = sin_all[past : past + t]
    x, _ = F.embedding_fwd(tokens, chunks[0]["embed"])
    for i, w in enumerate(chunks):
        x = _layer_step(cfg, w, x, cache, i, cos, sin, past)
    h, _ = F.rmsnorm_fwd(x[:, -1:, :], chunks[-1]["final_norm"])
    return (h @ chunks[-1]["head"])[:, 0, :]


def generate(
    cfg: ModelConfig,
    chunks: List[ParamStruct],
    prompt: np.ndarray,
    n_new: int,
    temperature: float = 0.0,
    seed: int = 0,
) -> np.ndarray:
    """Decode ``n_new`` tokens after ``prompt`` (shape (G, t0)).

    ``temperature == 0`` is greedy argmax; otherwise softmax sampling at
    the given temperature (seeded, deterministic).  Returns the full
    (G, t0 + n_new) token array.
    """
    prompt = np.atleast_2d(np.asarray(prompt))
    if prompt.shape[1] < 1:
        raise ValueError("prompt must contain at least one token")
    total = prompt.shape[1] + n_new
    cos_all, sin_all = rope_angles(total, cfg.head_dim, cfg.rope_base, cfg.dtype)
    cache = KVCache(cfg.n_layers)
    rng = np.random.default_rng(seed)

    out = prompt.copy()
    logits = _decode_step(cfg, chunks, prompt, cache, cos_all, sin_all)
    for _ in range(n_new):
        if temperature <= 0.0:
            nxt = logits.argmax(axis=-1)
        else:
            probs, _ = F.softmax_fwd(logits / temperature)
            nxt = np.array(
                [rng.choice(cfg.vocab, p=row) for row in probs]
            )
        out = np.concatenate([out, nxt[:, None]], axis=1)
        if out.shape[1] == total:
            break
        logits = _decode_step(
            cfg, chunks, nxt[:, None], cache, cos_all, sin_all
        )
    return out


def sequence_logprobs(
    cfg: ModelConfig,
    chunks: List[ParamStruct],
    tokens: np.ndarray,
    targets: np.ndarray,
) -> np.ndarray:
    """Per-position log-probabilities of ``targets`` given ``tokens``
    (full re-forward; shape (G, S))."""
    tokens = np.atleast_2d(tokens)
    targets = np.atleast_2d(targets)
    cos, sin = rope_angles(
        tokens.shape[1], cfg.head_dim, cfg.rope_base, cfg.dtype
    )
    logits, _ = model_fwd(cfg, chunks, tokens, cos, sin)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1)) + logits.max(axis=-1)
    picked = np.take_along_axis(logits, targets[..., None], axis=-1)[..., 0]
    return picked - logz


def perplexity(
    cfg: ModelConfig,
    chunks: List[ParamStruct],
    tokens: np.ndarray,
    targets: np.ndarray,
) -> float:
    """``exp`` of the mean next-token cross entropy."""
    lp = sequence_logprobs(cfg, chunks, tokens, targets)
    return float(np.exp(-lp.mean()))
