"""Causal multi-head attention cores: materialised and streaming (Flash).

Two numerically equivalent implementations of
``softmax(q k^T / sqrt(d) + causal) v``:

* :func:`attention_block_fwd` / :func:`attention_block_bwd` — the
  textbook version that materialises the ``(t_q, t_k)`` probability
  matrix of a query block against the full key range (the shape
  sequence parallelism produces).  Its cache is ``O(S^2)`` per head,
  which is exactly the memory blow-up Flash Attention removes.
  :func:`attention_fwd` / :func:`attention_bwd` are the same body at
  ``row_offset = 0``; it is the numerical oracle of the streaming core.

* :func:`flash_attention_fwd` / :func:`flash_attention_bwd` — a
  block-streaming version modelled on FlashAttention-2.  The forward
  keeps only the output and the per-row log-sum-exp ``L`` (cache
  ``O(S)``), and the backward recomputes each probability block from
  ``q``, ``k`` and ``L``.  It does the causal half of the work only:

  - *row skipping*: for key block ``[j0, j1)`` only query rows ``j0:``
    are touched.  Rows above are fully masked — their rescale factor is
    1 and their probabilities 0 — so leaving them alone is exact, and
    every row that is touched sees at least key ``j0``, so the running
    max is finite and no ``-inf - -inf`` can arise;
  - *diagonal-only mask*: of the ``(S - j0, block)`` panel only the
    ``block x block`` tile on the diagonal straddles the causal
    boundary; it is masked with one ``triu`` built once per call;
  - *scratch buffers*: two panel scratches (scores/probabilities, and
    in the backward ``dout v^T``), one ``(S, head_dim)`` scratch for the
    panel GEMM results and two length-``S`` row scratches are allocated
    once per call; every elementwise step (scale, running max, ``exp``,
    row sum, rescale, ``dq``/``dk``/``dv``) runs in place via ``out=``.

Every core preserves the dtype of its inputs.  The trap it avoids: under
NumPy >= 2 promotion (NEP 50) ``float32_array * np.float64(x)`` is
``float64`` — a NumPy scalar is *not* weak the way a Python float is —
so the softmax scale must be ``1.0 / math.sqrt(head_dim)`` (a Python
float, bit-identical in fp64), never ``1.0 / np.sqrt(head_dim)``.

The WeiPipe paper's memory analysis (Section 4, "Memory consumption")
hinges on Flash Attention removing the ``S^2`` activations: with it
enabled, FFN activations dominate and the zero-bubble baselines' peak
memory doubles, which is why ZB1/ZB2 go OOM in Table 2.  Both variants
are exercised by the equivalence tests; strategies pick one via
``ModelConfig.flash_attention``.

Shapes: ``q, k, v: (B, n_heads, S, head_dim)``.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

__all__ = [
    "attention_fwd",
    "attention_bwd",
    "flash_attention_fwd",
    "flash_attention_bwd",
    "attention_block_fwd",
    "attention_block_bwd",
]


def _softmax_scale(head_dim: int) -> float:
    """``1 / sqrt(head_dim)`` as a Python float (weak under NEP 50)."""
    return 1.0 / math.sqrt(head_dim)


# ---------------------------------------------------------------------------
# materialised implementation (also block-causal, for sequence parallelism)


def attention_block_fwd(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, row_offset: int
) -> Tuple[np.ndarray, tuple]:
    """Causal attention of a *query block* against full keys/values.

    ``q`` holds positions ``row_offset .. row_offset + t - 1`` of the
    sequence while ``k``/``v`` hold positions ``0 .. S-1`` — the shape
    sequence parallelism produces after all-gathering K/V.  With
    ``row_offset == 0`` and square shapes this is :func:`attention_fwd`.
    """
    t_q, t_k = q.shape[-2], k.shape[-2]
    if not (0 <= row_offset and row_offset + t_q <= t_k):
        raise ValueError("query block does not fit inside the key range")
    scale = _softmax_scale(q.shape[-1])
    scores = (q @ np.swapaxes(k, -1, -2)) * scale
    rows = row_offset + np.arange(t_q)[:, None]
    cols = np.arange(t_k)[None, :]
    scores = np.where(cols > rows, -np.inf, scores)
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)
    out = p @ v
    return out, (q, k, v, p, scale)


def attention_block_bwd(
    dout: np.ndarray, cache: tuple
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward of :func:`attention_block_fwd`.

    Returns ``(dq, dk, dv)`` where ``dk``/``dv`` cover the *full* key
    range — in sequence parallelism these partial contributions are
    reduce-scattered back to the positions' owners.
    """
    q, k, v, p, scale = cache
    dv = np.swapaxes(p, -1, -2) @ dout
    dp = dout @ np.swapaxes(v, -1, -2)
    # softmax backward; masked entries have p == 0 so they contribute 0.
    inner = (dp * p).sum(axis=-1, keepdims=True)
    dscores = p * (dp - inner)
    dq = (dscores @ k) * scale
    dk = (np.swapaxes(dscores, -1, -2) @ q) * scale
    return dq, dk, dv


def attention_fwd(
    q: np.ndarray, k: np.ndarray, v: np.ndarray
) -> Tuple[np.ndarray, tuple]:
    """Causal attention materialising the probability matrix."""
    return attention_block_fwd(q, k, v, 0)


def attention_bwd(
    dout: np.ndarray, cache: tuple
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward of :func:`attention_fwd`."""
    return attention_block_bwd(dout, cache)


# ---------------------------------------------------------------------------
# streaming (Flash-style) implementation


def _scratch(q: np.ndarray, block: int, n_panels: int):
    """Per-call scratch of the streaming cores, sized for the first (the
    tallest) block: ``n_panels`` score panels ``(S, block)`` and one
    ``(S, head_dim)`` GEMM result — plus the strictly-upper triangle
    (key ``j`` > query ``i``) of a diagonal tile.  The block loop slices
    these; it allocates nothing."""
    lead, (seq, head_dim) = q.shape[:-2], q.shape[-2:]
    width = min(block, seq)
    panels = [np.empty(lead + (seq, width), q.dtype) for _ in range(n_panels)]
    acc = np.empty(lead + (seq, head_dim), q.dtype)
    future = np.triu(np.ones((width, width), dtype=bool), k=1)
    return panels, acc, future


def _masked_scores(
    q: np.ndarray, k: np.ndarray, j0: int, j1: int, scale: float,
    panel: np.ndarray, future: np.ndarray,
) -> np.ndarray:
    """Scaled scores of query rows ``j0:`` against key block ``[j0, j1)``,
    written into ``panel`` with the future keys at ``-inf``."""
    w = j1 - j0
    s = panel[..., : q.shape[-2] - j0, :w]
    np.matmul(
        q[..., j0:, :], np.swapaxes(k[..., j0:j1, :], -1, -2), out=s
    )
    s *= scale
    # rows j0:j1 are the only ones with a masked key in this block.
    np.copyto(s[..., :w, :], -np.inf, where=future[:w, :w])
    return s


def flash_attention_fwd(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    block: int = 128,
) -> Tuple[np.ndarray, tuple]:
    """Causal attention streamed over key blocks.

    Keeps a running row-max ``m`` and normaliser ``l``; never holds more
    than one ``(S - j0, block)`` score panel at a time, and for key
    block ``[j0, j1)`` touches only query rows ``j0:`` (see the module
    docstring).  The cache stores only ``q, k, v, out`` and the per-row
    log-sum-exp — the ``O(S)`` footprint Flash Attention is prized for.
    """
    seq = q.shape[-2]
    scale = _softmax_scale(q.shape[-1])
    lead = q.shape[:-2]
    (panel,), acc, future = _scratch(q, block, n_panels=1)

    out = np.zeros_like(q)
    m = np.full(lead + (seq,), -np.inf, dtype=q.dtype)
    l = np.zeros(lead + (seq,), dtype=q.dtype)
    row_a, row_b = np.empty_like(m), np.empty_like(m)

    for j0 in range(0, seq, block):
        j1 = min(j0 + block, seq)
        n = seq - j0
        p = _masked_scores(q, k, j0, j1, scale, panel, future)
        m_j, l_j, out_j = m[..., j0:], l[..., j0:], out[..., j0:, :]

        # every row here sees key j0, so m_new is finite; rows meeting
        # their first block have m == -inf and alpha == exp(-inf) == 0.
        m_new = np.max(p, axis=-1, out=row_a[..., :n])
        np.maximum(m_new, m_j, out=m_new)
        alpha = np.subtract(m_j, m_new, out=m_j)
        np.exp(alpha, out=alpha)
        p -= m_new[..., None]
        np.exp(p, out=p)  # masked entries: exp(-inf) == 0

        l_j *= alpha
        l_j += np.sum(p, axis=-1, out=row_b[..., :n])
        out_j *= alpha[..., None]
        out_j += np.matmul(p, v[..., j0:j1, :], out=acc[..., :n, :])
        m_j[...] = m_new

    # every causal row attends to at least itself, so l > 0.
    out /= l[..., None]
    logsumexp = np.log(l, out=l)
    logsumexp += m
    return out, (q, k, v, out, logsumexp, scale, block)


def flash_attention_bwd(
    dout: np.ndarray, cache: tuple
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward of :func:`flash_attention_fwd`, recomputing score blocks.

    Uses the FlashAttention-2 identity: with ``delta = rowsum(dout*out)``,
    ``dscores = p * (dout @ v^T - delta)`` where ``p`` is rebuilt per block
    from the stored log-sum-exp.  Like the forward it visits only query
    rows ``j0:`` of key block ``[j0, j1)``; each ``dk``/``dv`` block is
    therefore written exactly once and ``dq`` rows ``j0:`` accumulate.
    """
    q, k, v, out, logsumexp, scale, block = cache
    seq = q.shape[-2]
    (panel, dpanel), acc, future = _scratch(q, block, n_panels=2)
    delta = np.sum(np.multiply(dout, out, out=acc), axis=-1)

    dq = np.zeros_like(q)
    dk = np.empty_like(k)
    dv = np.empty_like(v)

    for j0 in range(0, seq, block):
        j1 = min(j0 + block, seq)
        n, w = seq - j0, j1 - j0
        q_j, dout_j = q[..., j0:, :], dout[..., j0:, :]
        kb, vb = k[..., j0:j1, :], v[..., j0:j1, :]
        dk_b, dv_b = dk[..., j0:j1, :], dv[..., j0:j1, :]

        p = _masked_scores(q, k, j0, j1, scale, panel, future)
        p -= logsumexp[..., j0:, None]
        np.exp(p, out=p)  # masked entries: exp(-inf) == 0

        np.matmul(np.swapaxes(p, -1, -2), dout_j, out=dv_b)
        dscores = np.matmul(
            dout_j, np.swapaxes(vb, -1, -2), out=dpanel[..., :n, :w]
        )
        dscores -= delta[..., j0:, None]
        dscores *= p

        dq_j = np.matmul(dscores, kb, out=acc[..., :n, :])
        dq_j *= scale
        dq[..., j0:, :] += dq_j
        np.matmul(np.swapaxes(dscores, -1, -2), q_j, out=dk_b)
        dk_b *= scale

    return dq, dk, dv
