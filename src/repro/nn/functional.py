"""Primitive neural-network ops with explicit forward/backward pairs.

Every op is a pure function.  ``*_fwd`` returns ``(output, cache)`` where
``cache`` holds exactly the tensors the backward needs; ``*_bwd`` consumes
the upstream gradient and the cache.  Nothing is hidden in object state,
which is what lets the pipeline strategies decide explicitly *which*
tensors are stored, recomputed, or shipped between workers — the central
bookkeeping question of the WeiPipe paper.

Matmul backward is additionally split into the two GEMMs that
zero-bubble schedules separate:

* :func:`linear_bwd_input` — the "B pass" half, gradient w.r.t. the input
  (needs the weights),
* :func:`linear_bwd_weight` — the "W pass" half, gradient w.r.t. the
  weights (needs the cached input and the upstream gradient but *not* the
  weights).

Shapes follow the convention ``x: (..., in)``, ``w: (in, out)``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "linear_fwd",
    "linear_bwd",
    "linear_bwd_input",
    "linear_bwd_weight",
    "silu_fwd",
    "silu_bwd",
    "softmax_fwd",
    "softmax_bwd",
    "rmsnorm_fwd",
    "rmsnorm_bwd",
    "rmsnorm_bwd_input",
    "rmsnorm_bwd_weight",
    "cross_entropy_fwd",
    "cross_entropy_bwd",
    "embedding_fwd",
    "embedding_bwd",
]


# ---------------------------------------------------------------------------
# linear


def linear_fwd(x: np.ndarray, w: np.ndarray) -> Tuple[np.ndarray, tuple]:
    """``y = x @ w``.  Cache keeps ``x`` (for W pass) and ``w`` (for B pass)."""
    y = x @ w
    return y, (x, w)


def linear_bwd_input(dy: np.ndarray, w: np.ndarray) -> np.ndarray:
    """B-pass half: ``dx = dy @ w.T``.

    A microbatch with fewer tokens than either weight dim (a thin ``dy``
    against a wide layer) runs as ``(w @ dy.T).T`` instead, the operand
    orientation BLAS runs fastest at that shape (DESIGN.md §17); the
    result is then a transposed view, equal to ``dy @ w.T`` to rounding.
    """
    tokens = dy.size // dy.shape[-1]
    if tokens < min(w.shape):
        flat = dy.reshape(tokens, dy.shape[-1])
        return (w @ flat.T).T.reshape(*dy.shape[:-1], w.shape[0])
    return dy @ w.T


def linear_bwd_weight(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """W-pass half: ``dw = x.T @ dy`` summed over all leading axes."""
    x2 = x.reshape(-1, x.shape[-1])
    dy2 = dy.reshape(-1, dy.shape[-1])
    return x2.T @ dy2


def linear_bwd(dy: np.ndarray, cache: tuple) -> Tuple[np.ndarray, np.ndarray]:
    x, w = cache
    return linear_bwd_input(dy, w), linear_bwd_weight(x, dy)


# ---------------------------------------------------------------------------
# SiLU (swish) — used by the SwiGLU FFN


def silu_fwd(x: np.ndarray) -> Tuple[np.ndarray, tuple]:
    """``y = x * sigmoid(x)``."""
    sig = 1.0 / (1.0 + np.exp(-x))
    return x * sig, (x, sig)


def silu_bwd(dy: np.ndarray, cache: tuple) -> np.ndarray:
    x, sig = cache
    return dy * sig * (1.0 + x * (1.0 - sig))


# ---------------------------------------------------------------------------
# softmax (last axis)


def softmax_fwd(x: np.ndarray) -> Tuple[np.ndarray, tuple]:
    """Numerically stable softmax over the last axis."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)
    return p, (p,)


def softmax_bwd(dy: np.ndarray, cache: tuple) -> np.ndarray:
    (p,) = cache
    inner = (dy * p).sum(axis=-1, keepdims=True)
    return p * (dy - inner)


# ---------------------------------------------------------------------------
# RMSNorm — Llama's normalisation.  y = g * x / sqrt(mean(x^2) + eps)


def rmsnorm_fwd(
    x: np.ndarray, g: np.ndarray, eps: float = 1e-6
) -> Tuple[np.ndarray, tuple]:
    ms = np.mean(np.square(x), axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(ms + eps)
    xhat = x * inv
    return xhat * g, (x, g, inv)


def rmsnorm_bwd_input(dy: np.ndarray, cache: tuple) -> np.ndarray:
    """B-pass half of RMSNorm backward (gradient w.r.t. ``x``)."""
    x, g, inv = cache
    h = x.shape[-1]
    dxhat = dy * g
    # d/dx of x * inv with inv depending on x:
    #   dx = inv * dxhat - x * inv^3 / H * sum(dxhat * x)
    dot = (dxhat * x).sum(axis=-1, keepdims=True)
    return inv * dxhat - x * (inv**3) * dot / h


def rmsnorm_bwd_weight(dy: np.ndarray, cache: tuple) -> np.ndarray:
    """W-pass half of RMSNorm backward (gradient w.r.t. the gain ``g``)."""
    x, _g, inv = cache
    xhat = x * inv
    return (dy * xhat).reshape(-1, x.shape[-1]).sum(axis=0)


def rmsnorm_bwd(dy: np.ndarray, cache: tuple) -> Tuple[np.ndarray, np.ndarray]:
    return rmsnorm_bwd_input(dy, cache), rmsnorm_bwd_weight(dy, cache)


# ---------------------------------------------------------------------------
# token cross entropy


def cross_entropy_fwd(
    logits: np.ndarray, targets: np.ndarray
) -> Tuple[float, tuple]:
    """Mean token-level cross entropy.

    ``logits``: (..., V) float, ``targets``: (...) int token ids.
    Returns the scalar mean loss over all positions.
    """
    flat = logits.reshape(-1, logits.shape[-1])
    tgt = targets.reshape(-1)
    row_max = flat.max(axis=-1)
    shifted = flat - row_max[:, None]
    logsumexp = np.log(np.exp(shifted).sum(axis=-1)) + row_max
    picked = flat[np.arange(flat.shape[0]), tgt]
    losses = logsumexp - picked
    loss = float(losses.mean())
    return loss, (flat, tgt, logsumexp, logits.shape)


def cross_entropy_bwd(dloss: float, cache: tuple) -> np.ndarray:
    flat, tgt, logsumexp, shape = cache
    p = np.exp(flat - logsumexp[:, None])
    p[np.arange(flat.shape[0]), tgt] -= 1.0
    p *= dloss / flat.shape[0]
    return p.reshape(shape)


# ---------------------------------------------------------------------------
# embedding lookup


def embedding_fwd(
    tokens: np.ndarray, table: np.ndarray
) -> Tuple[np.ndarray, tuple]:
    """``y[i] = table[tokens[i]]``; tokens: int array (...,)."""
    return table[tokens], (tokens, table.shape)


def embedding_bwd(dy: np.ndarray, cache: tuple) -> np.ndarray:
    tokens, table_shape = cache
    dtable = np.zeros(table_shape, dtype=dy.dtype)
    np.add.at(dtable, tokens.reshape(-1), dy.reshape(-1, dy.shape[-1]))
    return dtable
