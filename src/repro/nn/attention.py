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
  ``q``, ``k`` and ``L``.  Both do the causal half of the work only, on
  contiguous panels, with every per-row term folded into a GEMM:

  - *forward, by query block*: block ``[i0, i1)`` meets its whole
    causal key prefix ``[:i1]`` in one ``(block, i1)`` panel — keys
    after ``i1`` are never computed.  Seeing all its keys at once, a
    block is a plain softmax, not an online one: no running max, no
    rescale of earlier partial sums, and its ``out`` rows and ``L`` are
    produced exactly once.  The row max runs over ``block`` long
    contiguous rows; every row sees key 0, so it is finite and no
    ``-inf - -inf`` can arise.  The normaliser rides the second GEMM as
    a ones column, ``p @ [v | 1]``, and one divide per group writes
    ``out``;
  - *backward, by key block*: for keys ``[j0, j1)`` only query rows
    ``j0:`` are touched (rows above are fully masked: ``p = 0``), so
    each ``dk``/``dv`` block is written once by its GEMM and only ``dq``
    accumulates.  The two per-row shifts ride the score GEMMs as one
    extra column: ``[q | -L] @ [k * scale | 1]^T`` is
    ``scale * q k^T - L`` and ``[dout | -delta] @ [v | 1]^T`` is
    ``dout v^T - delta``, so no elementwise scale or subtract pass
    touches a panel;
  - *diagonal-only mask*: only the ``block x block`` tile on the
    diagonal straddles the causal boundary; an additive ``0 / -inf``
    tile built once per call is added to it — in the backward too,
    before the ``exp``, so a future key's score cannot overflow;
  - *bounded scratch, a group of heads at a time*: the cores walk the
    leading ``(B, n_heads)`` axes in groups of heads whose score panels
    fit a fixed byte budget (:data:`_PANEL_BYTES`: one head at the
    long-context shape, every head of a sample at toy shapes), so the
    scratch does not grow with ``B * n_heads``; it is allocated once per
    call and reused by every group and block.  Panels are contiguous
    ``(group, rows, cols)`` views of the head of one flat buffer (two
    in the backward) sized for the largest panel; the operands widened
    by a column, the ``(S, head_dim + 1)`` GEMM result and the
    contiguous ``dq`` accumulator are ``O(S * head_dim)`` per head of
    the group.  The scale is applied once per group, to ``k``.  Nothing
    is kept between calls — both pipeline stages of the thread backend
    run these functions in one interpreter.

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
    "flash_attention_kept",
    "flash_attention_resume",
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


#: Byte budget of one score panel.  The streaming cores take as many heads
#: at a time as fit it, so their scratch is bounded by this constant
#: instead of growing with ``B * n_heads``: one head of the long-context
#: ``(128, 1024)`` fp32 panel, which stays L2-resident with its operands;
#: toy shapes fit whole and run as one batched group.
_PANEL_BYTES = 1 << 19


def _head_groups(lead: tuple, panel_nbytes: int) -> Tuple[int, list]:
    """Split the leading ``(B, n_heads)`` axes into groups of heads whose
    panels fit :data:`_PANEL_BYTES`: ``(heads per group, selections)``,
    each selection indexing one ``(group, S, head_dim)`` view.  The group
    size divides ``n_heads``, so every group is full."""
    if not lead:  # a bare (S, head_dim) head: one group of one
        return 1, [(None,)]
    heads = lead[-1]
    fit = max(1, _PANEL_BYTES // panel_nbytes)
    group = max(d for d in range(1, heads + 1) if heads % d == 0 and d <= fit)
    return group, [
        idx + (slice(h0, h0 + group),)
        for idx in np.ndindex(*lead[:-1])
        for h0 in range(0, heads, group)
    ]


def _future_tile(width: int, dtype) -> np.ndarray:
    """Additive causal mask of a diagonal tile: ``-inf`` where the key is
    after the query (strictly above the diagonal), ``0`` elsewhere."""
    return np.triu(np.full((width, width), -np.inf, dtype), k=1)


def _panel(flat: np.ndarray, group: int, rows: int, cols: int) -> np.ndarray:
    """The head of the flat scratch as a *contiguous* ``(group, rows,
    cols)`` panel.  Slicing a fixed ``(group, block, S)`` array instead
    would leave an ``S``-element row stride — 4096 bytes at ``S = 1024``
    fp32, which aliases in the cache on every elementwise pass."""
    return flat[: group * rows * cols].reshape(group, rows, cols)


def flash_attention_fwd(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    block: int = 128,
) -> Tuple[np.ndarray, tuple]:
    """Causal attention streamed over query blocks, a group of heads at
    a time.

    Query block ``[i0, i1)`` meets its whole causal key prefix ``[:i1]``
    in one ``(block, i1)`` panel, so each block is a plain softmax: one
    row max, one ``exp``, and ``p @ [v | 1]`` yields the unnormalised
    output and the normaliser together (see the module docstring).  The
    cache stores only ``q, k, v, out`` and the per-row log-sum-exp — the
    ``O(S)`` footprint Flash Attention is prized for.
    """
    if block < 1:
        raise ValueError(f"flash block must be >= 1, got {block}")
    lead, (seq, head_dim) = q.shape[:-2], q.shape[-2:]
    scale = _softmax_scale(head_dim)
    width = min(block, seq)
    group, selections = _head_groups(lead, width * seq * q.itemsize)

    out = np.empty_like(q)
    logsumexp = np.empty(lead + (seq,), q.dtype)

    # one group's scratch, reused by every group and every block.
    k_s = np.empty((group, seq, head_dim), q.dtype)
    k_t = np.swapaxes(k_s, -1, -2)
    v_1 = np.empty((group, seq, head_dim + 1), q.dtype)
    v_1[..., -1] = 1.0
    flat = np.empty(group * width * seq, q.dtype)
    future = _future_tile(width, q.dtype)
    m = np.empty((group, seq, 1), q.dtype)
    pv = np.empty((group, seq, head_dim + 1), q.dtype)

    for sel in selections:
        q_g = q[sel]
        np.multiply(k[sel], scale, out=k_s)
        v_1[..., :-1] = v[sel]
        for i0 in range(0, seq, block):
            i1 = min(i0 + block, seq)
            b = i1 - i0
            p = _panel(flat, group, b, i1)
            np.matmul(q_g[:, i0:i1], k_t[..., :i1], out=p)
            # only the diagonal tile straddles the causal boundary.
            p[..., i0:] += future[:b, :b]
            # every row sees key 0, so its max is finite.
            p -= np.max(p, axis=-1, keepdims=True, out=m[:, i0:i1])
            np.exp(p, out=p)  # masked entries: exp(-inf) == 0
            np.matmul(p, v_1[:, :i1], out=pv[:, i0:i1])
        # every causal row attends to at least itself, so l > 0.
        np.divide(pv[..., :-1], pv[..., -1:], out=out[sel])
        lse_g = np.log(pv[..., -1], out=logsumexp[sel])
        lse_g += m[..., 0]
    return out, (q, k, v, out, logsumexp, scale, block)


def flash_attention_kept(cache: tuple) -> Tuple[np.ndarray, np.ndarray]:
    """What a checkpoint keeps of a :func:`flash_attention_fwd` cache:
    ``(out, logsumexp)``, everything the core computed and
    ``S * (head_dim + 1)`` elements per head.  ``q, k, v`` are its inputs
    and are cheap to rebuild (thin GEMMs and RoPE); these two are the
    core's whole ``O(S^2)`` work."""
    _q, _k, _v, out, logsumexp, _scale, _block = cache
    return out, logsumexp


def flash_attention_resume(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    kept: Tuple[np.ndarray, np.ndarray],
    block: int = 128,
) -> Tuple[np.ndarray, tuple]:
    """:func:`flash_attention_fwd` of ``q, k, v`` given the
    :func:`flash_attention_kept` pair of an earlier call on equal
    inputs: the same ``(out, cache)``, and no score panel computed."""
    out, logsumexp = kept
    return out, (q, k, v, out, logsumexp, _softmax_scale(q.shape[-1]), block)


def flash_attention_bwd(
    dout: np.ndarray, cache: tuple
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward of :func:`flash_attention_fwd`, recomputing score blocks.

    Uses the FlashAttention-2 identity: with ``delta = rowsum(dout*out)``,
    ``dscores = p * (dout @ v^T - delta)`` where ``p`` is rebuilt per block
    from the stored log-sum-exp.  It walks key blocks ``[j0, j1)`` against
    query rows ``j0:`` (rows above are fully masked), so each ``dk``/``dv``
    block is written exactly once by its GEMM and ``dq`` rows ``j0:``
    accumulate.  Both per-row shifts ride the score GEMMs as one extra
    column: ``[q | -L] @ [k*scale | 1]^T`` and ``[dout | -delta] @ [v | 1]^T``.
    """
    q, k, v, out, logsumexp, scale, block = cache
    lead, (seq, head_dim) = q.shape[:-2], q.shape[-2:]
    width = min(block, seq)
    group, selections = _head_groups(lead, seq * width * q.itemsize)

    dq = np.empty_like(q)
    dk = np.empty_like(k)
    dv = np.empty_like(v)

    # one group's scratch, reused by every group and every block.
    wide = (group, seq, head_dim + 1)
    q_l, k_1, do_d, v_1 = (np.empty(wide, q.dtype) for _ in range(4))
    k_1[..., -1] = 1.0
    v_1[..., -1] = 1.0
    k_s = k_1[..., :-1]
    flat_p = np.empty(group * seq * width, q.dtype)
    flat_ds = np.empty_like(flat_p)
    future = _future_tile(width, q.dtype)
    # dq accumulates contiguously and takes q's layout once per group.
    dq_g = np.empty((group, seq, head_dim), q.dtype)
    dq_j = np.empty_like(dq_g)

    for sel in selections:
        q_g, dout_g, dk_g, dv_g = q[sel], dout[sel], dk[sel], dv[sel]
        q_l[..., :-1] = q_g
        np.negative(logsumexp[sel], out=q_l[..., -1])
        np.multiply(k[sel], scale, out=k_s)
        do_d[..., :-1] = dout_g
        delta = np.einsum("hsd,hsd->hs", dout_g, out[sel], out=do_d[..., -1])
        np.negative(delta, out=delta)
        v_1[..., :-1] = v[sel]
        dq_g.fill(0.0)

        for j0 in range(0, seq, block):
            j1 = min(j0 + block, seq)
            n, w = seq - j0, j1 - j0
            p = _panel(flat_p, group, n, w)
            dscores = _panel(flat_ds, group, n, w)
            k_b = np.swapaxes(k_1[:, j0:j1], -1, -2)
            v_b = np.swapaxes(v_1[:, j0:j1], -1, -2)
            dk_b = dk_g[:, j0:j1]

            # scale * q k^T - L; rows j0:j1 alone have a masked key here,
            # and the mask lands before the exp so a future score cannot
            # overflow.
            np.matmul(q_l[:, j0:], k_b, out=p)
            p[:, :w] += future[:w, :w]
            np.exp(p, out=p)  # masked entries: exp(-inf) == 0

            np.matmul(np.swapaxes(p, -1, -2), dout_g[:, j0:], out=dv_g[:, j0:j1])
            np.matmul(do_d[:, j0:], v_b, out=dscores)  # dout v^T - delta
            dscores *= p

            dq_g[:, j0:] += np.matmul(dscores, k_s[:, j0:j1], out=dq_j[:, :n])
            np.matmul(np.swapaxes(dscores, -1, -2), q_g[:, j0:], out=dk_b)
            dk_b *= scale
        dq[sel] = dq_g
    return dq, dk, dv
