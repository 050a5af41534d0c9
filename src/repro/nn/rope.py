"""Rotary positional embeddings (RoPE), as used by Llama-style models.

RoPE rotates each consecutive pair of channels of q and k by a
position-dependent angle.  It is a per-position orthogonal linear map, so
its backward is rotation by the negative angle and it needs no cached
activations — only the (cheap, recomputable) angle tables.

Rotating the pair ``(a, b)`` by ``theta`` is multiplying ``a + i b`` by
``e^{i theta}``, so an operand whose last axis is stride-1 is read as
``head_dim // 2`` complex pairs per row (complex64 for fp32, complex128
for fp64) and rotated by one elementwise multiply with a ``cos + i sin``
table: one stride-1 pass instead of six passes over stride-2 views.  The
product is elementwise, so its bits do not depend on the operand's
layout — a head slice, a sequence slice or a strided view rotates to
exactly the bytes of its contiguous copy.  The result is a new
C-contiguous (head-major) array, which the attention cores read without
a row stride.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["rope_angles", "rope_apply", "rope_apply_bwd"]


def rope_angles(
    seq_len: int, head_dim: int, base: float = 10000.0, dtype=np.float64
) -> Tuple[np.ndarray, np.ndarray]:
    """Precompute ``cos``/``sin`` tables of shape ``(seq_len, head_dim//2)``.

    ``head_dim`` must be even; pair ``i`` rotates with frequency
    ``base ** (-2 i / head_dim)``.
    """
    if head_dim % 2 != 0:
        raise ValueError("RoPE requires an even head dimension")
    half = head_dim // 2
    freqs = base ** (-np.arange(half, dtype=dtype) * 2.0 / head_dim)
    angles = np.arange(seq_len, dtype=dtype)[:, None] * freqs[None, :]
    return np.cos(angles), np.sin(angles)


def _rotate(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate channel pairs of ``x``: shape (..., S, head_dim)."""
    pair = np.result_type(x.dtype, np.complex64)  # complex64 | complex128
    if x.strides[-1] != x.itemsize:
        x = x.copy()
    turn = np.empty(cos.shape, pair)
    turn.real = cos
    turn.imag = sin
    out = np.empty(x.shape, x.dtype)
    np.multiply(x.view(pair), turn, out=out.view(pair))
    return out


def rope_apply(
    x: np.ndarray, cos: np.ndarray, sin: np.ndarray
) -> np.ndarray:
    """Apply RoPE to ``x`` of shape ``(..., S, head_dim)``.

    ``cos``/``sin`` have shape ``(S, head_dim//2)`` and broadcast over the
    leading (batch, head) axes.
    """
    return _rotate(x, cos, sin)


def rope_apply_bwd(
    dy: np.ndarray, cos: np.ndarray, sin: np.ndarray
) -> np.ndarray:
    """Backward of :func:`rope_apply` — rotation by the negative angle."""
    return _rotate(dy, cos, -sin)
