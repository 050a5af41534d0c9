"""A Llama-style transformer decoder layer with decoupled backward passes.

The layer is the unit WeiPipe pipelines: its weights form one ring chunk
(~``12 H^2`` parameters, the figure the paper's communication analysis
uses), and its backward is available in two forms:

* :func:`layer_bwd` — the fused backward every classical pipeline uses
  (compute ``dx`` and all weight gradients together),
* :func:`layer_bwd_input` (the **B pass**) + :func:`layer_bwd_weight`
  (the **W pass**) — the decoupled form required by zero-bubble
  schedules (ZB1/ZB2, weipipe-zb).  The B pass produces ``dx`` plus a
  *W-cache* of (input, upstream-gradient) pairs; the W pass later turns
  the W-cache into weight gradients with pure GEMMs and needs **no
  weights at all** — the property that lets zero-bubble schedules defer
  it arbitrarily.

Layer structure (pre-norm Llama):

.. code-block:: text

    h1 = rmsnorm(x, attn_norm)
    q, k, v = h1 Wq, h1 Wk, h1 Wv      (reshape to heads, RoPE on q,k)
    o = attention(q, k, v) Wo
    x2 = x + o
    h2 = rmsnorm(x2, ffn_norm)
    y  = x2 + (silu(h2 Wgate) * (h2 Wup)) Wdown
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import functional as F
from .attention import (
    attention_bwd,
    attention_fwd,
    flash_attention_bwd,
    flash_attention_fwd,
    flash_attention_kept,
    flash_attention_resume,
)
from .params import ParamStruct
from .rope import rope_apply, rope_apply_bwd

__all__ = [
    "Seam",
    "layer_layout",
    "draw_scratch",
    "init_params",
    "init_layer_weights",
    "layer_param_count",
    "layer_fwd",
    "layer_kept",
    "layer_bwd",
    "layer_bwd_input",
    "layer_bwd_weight",
    "LINEAR_INPUTS",
    "layer_factors",
]


#: standard deviation of the scaled-normal weight init.
INIT_STD = 0.02
#: float64 draws per block of :func:`init_params`: what lives between the
#: generator and the weights, whatever the matrix size.
_DRAW_BLOCK = 1 << 15

Layout = Sequence[Tuple[str, Tuple[int, ...]]]


def layer_layout(hidden: int, ffn: int) -> List[Tuple[str, Tuple[int, ...]]]:
    """``(name, shape)`` of one decoder layer's parameters, in storage
    (and draw) order."""
    return [
        ("attn_norm", (hidden,)),
        ("wq", (hidden, hidden)),
        ("wk", (hidden, hidden)),
        ("wv", (hidden, hidden)),
        ("wo", (hidden, hidden)),
        ("ffn_norm", (hidden,)),
        ("w_gate", (hidden, ffn)),
        ("w_up", (hidden, ffn)),
        ("w_down", (ffn, hidden)),
    ]


def draw_scratch() -> np.ndarray:
    """The float64 block :func:`init_params` draws through."""
    return np.empty(_DRAW_BLOCK)


def init_params(
    layout: Layout,
    rng: np.random.Generator,
    buf: np.ndarray,
    scratch: np.ndarray,
) -> ParamStruct:
    """Scaled-normal init of ``layout`` into the caller's flat ``buf``
    (its dtype is the weights'), as one arena-backed struct.

    Vectors are norm gains and start at 1; matrices are drawn
    ``N(0, INIT_STD^2)`` in layout order.  The draws are float64 whatever
    the weights' dtype is — block by block through ``scratch``, a
    :func:`draw_scratch`, and cast on the store into ``buf`` — which is
    the stream ``rng.normal(0.0, INIT_STD, shape).astype(dtype)`` per
    matrix reads, without a float64 copy of any matrix.  Both arrays come
    from the caller, so a thread that runs this fills and never allocates.
    """
    w = ParamStruct.from_arena(layout, buf)
    for name, shape in layout:
        flat = w[name].reshape(-1)
        if len(shape) == 1:
            flat[...] = 1.0
            continue
        for i in range(0, flat.size, _DRAW_BLOCK):
            z = scratch[: flat.size - i]
            rng.standard_normal(out=z)
            z *= INIT_STD
            flat[i : i + z.size] = z
    return w


def init_layer_weights(
    hidden: int, ffn: int, rng: np.random.Generator, dtype=np.float64
) -> ParamStruct:
    """Initialise one decoder layer (scaled-normal init, Llama-style)."""
    buf = np.empty(layer_param_count(hidden, ffn), dtype=dtype)
    return init_params(layer_layout(hidden, ffn), rng, buf, draw_scratch())


def layer_param_count(hidden: int, ffn: int) -> int:
    """Exact parameter count of one layer: ``4H^2 + 3HF + 2H``.

    With the Llama ratio ``F = 8H/3`` this is the ``12 H^2`` the paper
    quotes for the per-layer weight chunk.
    """
    return 4 * hidden * hidden + 3 * hidden * ffn + 2 * hidden


def _to_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """(G, S, H) -> (G, n_heads, S, head_dim)."""
    g, s, h = x.shape
    return x.reshape(g, s, n_heads, h // n_heads).transpose(0, 2, 1, 3)


def _from_heads(x: np.ndarray) -> np.ndarray:
    """(G, n_heads, S, head_dim) -> (G, S, H)."""
    g, nh, s, hd = x.shape
    return x.transpose(0, 2, 1, 3).reshape(g, s, nh * hd)


class Seam:
    """Where one layer's shard meets the other ranks' shards.

    A layer split across ranks runs this module's one body; the split
    shows only at four fixed points, where the layer calls its seam:
    :meth:`row_out` on the outputs of the row-parallel ``wo`` and
    ``w_down`` GEMMs (sites ``"o"`` / ``"d"``) and :meth:`col_grad` on
    the input gradients of the column-parallel ``q/k/v`` and
    ``gate/up`` GEMMs (``"dh1"`` / ``"dh2"``).  ``n_heads`` is the head
    count the shard runs.  With ``attention_core`` set,
    ``attention_fwd(qh, kh, vh) -> (attn, cache)`` and
    ``attention_bwd(dattn, cache) -> (dq, dk, dv)`` replace the
    attention core.  This base is the identity at every point; the
    subclasses in :mod:`repro.parallel` carry the collectives, so this
    package never talks to a wire.
    """

    attention_core = False

    def __init__(self, n_heads: int):
        self.n_heads = n_heads

    def row_out(self, y: np.ndarray, site: str) -> np.ndarray:
        return y

    def col_grad(self, dx: np.ndarray, site: str) -> np.ndarray:
        return dx


def layer_fwd(
    w: ParamStruct,
    x: np.ndarray,
    n_heads: int,
    cos: np.ndarray,
    sin: np.ndarray,
    flash: bool = False,
    flash_block: int = 128,
    kept: tuple = (),
    cache_only: bool = False,
    seam: Optional[Seam] = None,
) -> Tuple[Optional[np.ndarray], tuple]:
    """Forward one decoder layer.  ``x: (G, S, H)``.

    Returns ``(y, cache)`` where ``cache`` holds the tensors the backward
    needs.  With ``flash=True`` the attention cache is ``O(S)`` per row
    instead of ``O(S^2)``.

    A replay (:mod:`repro.nn.checkpoint`) runs this same body for less.
    ``kept`` — the :func:`layer_kept` of an earlier forward of the same
    ``w`` and ``x`` — stands in for the attention core, whose cache is
    resumed around the recomputed ``q, k, v``.  ``cache_only`` says
    nobody reads ``y``: the layer stops at ``silu(gate) * up``, skipping
    the down projection and the residual add, and returns ``y = None``.
    The cache is the one the plain call builds, entry for entry.

    ``seam`` (a :class:`Seam`) runs the layer as one rank's shard; it
    rides in the cache, so the backward meets the forward's seam.
    """
    if seam is not None:
        n_heads = seam.n_heads
    h1, c_norm1 = F.rmsnorm_fwd(x, w["attn_norm"])
    q, c_q = F.linear_fwd(h1, w["wq"])
    k, c_k = F.linear_fwd(h1, w["wk"])
    v, c_v = F.linear_fwd(h1, w["wv"])

    qh = rope_apply(_to_heads(q, n_heads), cos, sin)
    kh = rope_apply(_to_heads(k, n_heads), cos, sin)
    vh = _to_heads(v, n_heads)

    if seam is not None and seam.attention_core:
        attn, c_attn = seam.attention_fwd(qh, kh, vh)
    elif kept:
        attn, c_attn = flash_attention_resume(qh, kh, vh, kept, flash_block)
    elif flash:
        attn, c_attn = flash_attention_fwd(qh, kh, vh, block=flash_block)
    else:
        attn, c_attn = attention_fwd(qh, kh, vh)
    attn_flat = _from_heads(attn)
    o, c_o = F.linear_fwd(attn_flat, w["wo"])
    if seam is not None:
        o = seam.row_out(o, "o")
    x2 = x + o

    h2, c_norm2 = F.rmsnorm_fwd(x2, w["ffn_norm"])
    gate, c_gate = F.linear_fwd(h2, w["w_gate"])
    up, c_up = F.linear_fwd(h2, w["w_up"])
    act, c_act = F.silu_fwd(gate)
    f = act * up
    if cache_only:
        y, c_down = None, (f, w["w_down"])  # linear_fwd's cache, no GEMM
    else:
        d, c_down = F.linear_fwd(f, w["w_down"])
        if seam is not None:
            d = seam.row_out(d, "d")
        y = x2 + d

    cache = (
        n_heads,
        cos,
        sin,
        flash,
        c_norm1,
        c_q,
        c_k,
        c_v,
        c_attn,
        c_o,
        c_norm2,
        c_gate,
        c_up,
        c_act,
        up,
        act,
        c_down,
        seam,
    )
    return y, cache


def layer_kept(cache: tuple) -> tuple:
    """What a checkpoint keeps of a :func:`layer_fwd` cache beside the
    layer input, to hand back as ``layer_fwd(..., kept=)``: the streaming
    core's output pair, or nothing — the materialised core's cache is the
    ``O(S^2)`` recomputation exists to drop."""
    _n_heads, _cos, _sin, flash, _c_norm1, _c_q, _c_k, _c_v, c_attn, *_ = cache
    return flash_attention_kept(c_attn) if flash else ()


def layer_bwd_input(
    w: ParamStruct, dy: np.ndarray, cache: tuple
) -> Tuple[np.ndarray, dict]:
    """The **B pass**: gradient w.r.t. the layer input.

    Returns ``(dx, wcache)``.  ``wcache`` maps parameter names to the
    upstream gradients (and, via the forward cache, inputs) the W pass
    needs; it contains *no* references to the weights themselves.
    """
    (
        n_heads,
        cos,
        sin,
        flash,
        c_norm1,
        c_q,
        c_k,
        c_v,
        c_attn,
        c_o,
        c_norm2,
        c_gate,
        c_up,
        c_act,
        up,
        act,
        c_down,
        seam,
    ) = cache

    # FFN branch: y = x2 + (silu(h2 Wg) * (h2 Wu)) Wd
    dd = dy
    df = F.linear_bwd_input(dd, w["w_down"])
    dact = df * up
    dup = df * act
    dgate = F.silu_bwd(dact, c_act)
    dh2 = F.linear_bwd_input(dgate, w["w_gate"]) + F.linear_bwd_input(
        dup, w["w_up"]
    )
    if seam is not None:
        dh2 = seam.col_grad(dh2, "dh2")
    dx2 = dy + F.rmsnorm_bwd_input(dh2, c_norm2)

    # attention branch: x2 = x + attn(h1) Wo
    do = dx2
    dattn_flat = F.linear_bwd_input(do, w["wo"])
    dattn = _to_heads(dattn_flat, n_heads)
    if seam is not None and seam.attention_core:
        dqh, dkh, dvh = seam.attention_bwd(dattn, c_attn)
    elif flash:
        dqh, dkh, dvh = flash_attention_bwd(dattn, c_attn)
    else:
        dqh, dkh, dvh = attention_bwd(dattn, c_attn)
    dq = _from_heads(rope_apply_bwd(dqh, cos, sin))
    dk = _from_heads(rope_apply_bwd(dkh, cos, sin))
    dv = _from_heads(dvh)
    dh1 = (
        F.linear_bwd_input(dq, w["wq"])
        + F.linear_bwd_input(dk, w["wk"])
        + F.linear_bwd_input(dv, w["wv"])
    )
    if seam is not None:
        dh1 = seam.col_grad(dh1, "dh1")
    dx = dx2 + F.rmsnorm_bwd_input(dh1, c_norm1)

    wcache = {
        "d_down": dd,
        "d_gate": dgate,
        "d_up": dup,
        "d_h2": dh2,
        "d_o": do,
        "d_q": dq,
        "d_k": dk,
        "d_v": dv,
        "d_h1": dh1,
    }
    return dx, wcache


def layer_bwd_weight(cache: tuple, wcache: dict) -> ParamStruct:
    """The **W pass**: weight gradients from cached inputs + B-pass grads.

    Pure GEMMs/reductions; uses no weights, so a zero-bubble schedule may
    run it long after the weights have left the worker.
    """
    (
        _n_heads,
        _cos,
        _sin,
        _flash,
        c_norm1,
        c_q,
        c_k,
        c_v,
        _c_attn,
        c_o,
        c_norm2,
        c_gate,
        c_up,
        _c_act,
        _up,
        _act,
        c_down,
        _seam,
    ) = cache

    return ParamStruct(
        {
            "attn_norm": F.rmsnorm_bwd_weight(wcache["d_h1"], c_norm1),
            "wq": F.linear_bwd_weight(c_q[0], wcache["d_q"]),
            "wk": F.linear_bwd_weight(c_k[0], wcache["d_k"]),
            "wv": F.linear_bwd_weight(c_v[0], wcache["d_v"]),
            "wo": F.linear_bwd_weight(c_o[0], wcache["d_o"]),
            "ffn_norm": F.rmsnorm_bwd_weight(wcache["d_h2"], c_norm2),
            "w_gate": F.linear_bwd_weight(c_gate[0], wcache["d_gate"]),
            "w_up": F.linear_bwd_weight(c_up[0], wcache["d_up"]),
            "w_down": F.linear_bwd_weight(c_down[0], wcache["d_down"]),
        }
    )


#: each linear's input in a layer's factor bundle (:func:`layer_factors`),
#: by the weight's name; the output gradient rides under the weight's own.
LINEAR_INPUTS = {"wq": "h1", "wk": "h1", "wv": "h1", "wo": "attn",
                 "w_gate": "h2", "w_up": "h2", "w_down": "f"}


def layer_factors(cache: tuple, wcache: dict) -> dict:
    """The layer's *factor bundle*: what its W pass reads, without running
    it.  Each linear's input (named in :data:`LINEAR_INPUTS`) and output
    gradient (under the weight's name), and each norm gain's gradient,
    a vector.  Below the regime boundary the bundle is smaller than the
    dense gradient it factors (``repro.nn.model.chunk_factored``), and a
    weight's gradient over many microbatches is one GEMM on their stacked
    bundles (``repro.nn.model.chunk_form``).  Arrays are the cache's and
    the B pass's own, not copies."""
    _, _, _, _, c_norm1, c_q, _, _, _, c_o, c_norm2, c_gate, *_, c_down, _seam = cache
    return {
        "h1": c_q[0], "attn": c_o[0], "h2": c_gate[0], "f": c_down[0],
        "wq": wcache["d_q"], "wk": wcache["d_k"], "wv": wcache["d_v"], "wo": wcache["d_o"],
        "w_gate": wcache["d_gate"], "w_up": wcache["d_up"], "w_down": wcache["d_down"],
        "attn_norm": F.rmsnorm_bwd_weight(wcache["d_h1"], c_norm1),
        "ffn_norm": F.rmsnorm_bwd_weight(wcache["d_h2"], c_norm2),
    }


def layer_bwd(
    w: ParamStruct, dy: np.ndarray, cache: tuple
) -> Tuple[np.ndarray, ParamStruct]:
    """Fused backward: B pass immediately followed by W pass."""
    dx, wcache = layer_bwd_input(w, dy, cache)
    grads = layer_bwd_weight(cache, wcache)
    return dx, grads
