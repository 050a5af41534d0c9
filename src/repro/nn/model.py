"""Llama-style model assembled from per-layer weight chunks.

The model is deliberately stored as a ``list`` of per-layer
:class:`~repro.nn.params.ParamStruct` chunks rather than one flat bag of
weights, because *the chunk is the unit every strategy in the paper
moves around*: WeiPipe circulates chunks on the ring, pipeline baselines
assign contiguous chunk ranges to stages, FSDP shards each chunk.

Chunk 0 additionally carries the token embedding; the last chunk carries
the final RMSNorm and the LM head.  In classical pipeline parallelism
these naturally live on the first/last stage; in WeiPipe they ride the
ring with their layer, exactly like the paper's implementation where
every worker runs the full model for its own microbatches.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
# bound at import: NumPy 2 loads numpy.random lazily, and a forked
# rank that drew first would import it again on every launch.
from numpy.random import default_rng

from . import functional as F
from .layer import (
    LINEAR_INPUTS,
    Seam,
    draw_scratch,
    init_params,
    layer_bwd,
    layer_bwd_input,
    layer_bwd_weight,
    layer_factors,
    layer_fwd,
    layer_kept,
    layer_layout,
    layer_param_count,
)
from .params import ParamStruct
from .rope import rope_angles

__all__ = [
    "ModelConfig",
    "default_ffn",
    "rope_tables",
    "init_chunk",
    "init_model",
    "chunk_param_count",
    "model_param_count",
    "chunk_fwd",
    "chunk_kept",
    "chunk_bwd",
    "chunk_bwd_input",
    "chunk_bwd_weight",
    "chunk_factored",
    "chunk_factors",
    "factor_numel",
    "chunk_factor_numel",
    "chunk_form",
    "FACTOR_INPUTS",
    "model_fwd",
    "model_loss_and_grads",
    "sequence_logprobs",
    "perplexity",
]


def default_ffn(hidden: int) -> int:
    """Llama FFN width: ``8H/3`` rounded up, then down to a multiple of
    8 (86 -> 80 at ``H = 32``), and at least 8.

    Chosen so the three FFN matrices total ~``8 H^2`` parameters and the
    full layer ~``12 H^2`` — the figure the paper's analysis uses.
    """
    return int(-(-8 * hidden // 3) // 8 * 8) or 8


@dataclass(frozen=True)
class ModelConfig:
    """Static description of the model and numerics.

    ``hidden``/``n_layers``/``n_heads``/``seq_len``/``vocab`` follow the
    paper's ``H``/``L``/heads/``S``/vocab.  ``dtype`` is the compute
    dtype (float64 for gradient checks, float32 for training runs);
    reduced-precision *storage* is layered on top by
    :class:`~repro.nn.precision.PrecisionPolicy`.
    """

    hidden: int
    n_layers: int
    n_heads: int
    seq_len: int
    vocab: int
    ffn: Optional[int] = None
    flash_attention: bool = False
    flash_block: int = 128
    rope_base: float = 10000.0
    dtype: type = np.float64

    def __post_init__(self):
        if self.hidden % self.n_heads != 0:
            raise ValueError("hidden must be divisible by n_heads")
        if (self.hidden // self.n_heads) % 2 != 0:
            raise ValueError("head dimension must be even (RoPE)")
        if self.flash_block < 1:
            raise ValueError(
                f"flash_block must be >= 1, got {self.flash_block}"
            )
        if self.ffn is None:
            object.__setattr__(self, "ffn", default_ffn(self.hidden))

    @property
    def head_dim(self) -> int:
        return self.hidden // self.n_heads

    def with_(self, **kw) -> "ModelConfig":
        return replace(self, **kw)


def rope_tables(cfg: ModelConfig) -> Tuple[np.ndarray, np.ndarray]:
    """cos/sin tables for ``cfg`` in its compute dtype."""
    return rope_angles(cfg.seq_len, cfg.head_dim, cfg.rope_base, cfg.dtype)


def init_chunk(
    cfg: ModelConfig,
    seed: int,
    idx: int,
    buf: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> ParamStruct:
    """Initialise chunk ``idx`` alone, from its own stream ``(seed, idx)``.

    A chunk's layer matrices depend only on ``(seed, idx)`` and the layer
    shape — not on ``n_layers`` or on which other chunks were drawn — so a
    worker that holds ``1/P`` of the model draws ``1/P`` of it.  ``buf``
    (:func:`chunk_param_count` elements of ``cfg.dtype``, e.g. a pool's)
    and ``scratch`` (a :func:`~repro.nn.layer.draw_scratch`) are the
    caller's when it hands them in, else allocated here.
    """
    layout = layer_layout(cfg.hidden, cfg.ffn)
    if idx == 0:
        layout.append(("embed", (cfg.vocab, cfg.hidden)))
    if idx == cfg.n_layers - 1:
        layout.append(("final_norm", (cfg.hidden,)))
        layout.append(("head", (cfg.hidden, cfg.vocab)))
    if buf is None:
        buf = np.empty(chunk_param_count(cfg, idx), dtype=cfg.dtype)
    if scratch is None:
        scratch = draw_scratch()
    return init_params(layout, default_rng((seed, idx)), buf, scratch)


def init_model(cfg: ModelConfig, seed: int = 0) -> List[ParamStruct]:
    """Initialise all chunks deterministically from ``seed``: the list of
    :func:`init_chunk` over every index."""
    return [init_chunk(cfg, seed, i) for i in range(cfg.n_layers)]


def chunk_param_count(cfg: ModelConfig, idx: int) -> int:
    """Parameter count of chunk ``idx`` as :func:`init_chunk` builds it:
    one layer, plus the embedding on the first chunk and the final norm
    and head on the last."""
    n = layer_param_count(cfg.hidden, cfg.ffn)
    if idx == 0:
        n += cfg.vocab * cfg.hidden
    if idx == cfg.n_layers - 1:
        n += cfg.hidden + cfg.hidden * cfg.vocab
    return n


def model_param_count(cfg: ModelConfig) -> int:
    """Total parameter count including embedding and head."""
    return sum(chunk_param_count(cfg, i) for i in range(cfg.n_layers))


# ---------------------------------------------------------------------------
# chunk-level forward / backward


def chunk_fwd(
    cfg: ModelConfig,
    idx: int,
    w: ParamStruct,
    x: np.ndarray,
    cos: np.ndarray,
    sin: np.ndarray,
    replay: Optional[tuple] = None,
    seam: Optional[Seam] = None,
) -> Tuple[Optional[np.ndarray], tuple]:
    """Forward chunk ``idx``.

    Chunk 0 receives integer tokens ``(G, S)`` and embeds them; the last
    chunk emits logits ``(G, S, V)``.  Interior chunks map hidden states
    to hidden states.

    ``replay`` is ``None`` for a forward.  A replay passes the
    :func:`chunk_kept` of the forward it rebuilds (``()`` when that kept
    nothing) and gets ``(None, cache)``: the same cache, without the
    attention core where its output was kept and without the GEMMs only
    the chunk's output needs — the down projection, or on the last chunk
    (whose final norm reads the layer output) the logits.

    ``seam`` runs the layer as one rank's shard
    (:class:`~repro.nn.layer.Seam`); the embedding, final norm and head
    stay whole.  It rides in the cache, so :func:`chunk_bwd_input` and
    :func:`chunk_bwd` take none.
    """
    replaying = replay is not None
    last = idx == cfg.n_layers - 1
    caches: list = []
    if idx == 0:
        x, c_embed = F.embedding_fwd(x, w["embed"])
        caches.append(("embed", c_embed))

    y, c_layer = layer_fwd(
        w, x, cfg.n_heads, cos, sin, cfg.flash_attention, cfg.flash_block,
        kept=replay or (), cache_only=replaying and not last, seam=seam,
    )
    caches.append(("layer", c_layer))

    if last:
        h, c_norm = F.rmsnorm_fwd(y, w["final_norm"])
        if replaying:
            y, c_head = None, (h, w["head"])  # linear_fwd's cache, no GEMM
        else:
            y, c_head = F.linear_fwd(h, w["head"])
        caches.append(("final_norm", c_norm))
        caches.append(("head", c_head))
    return y, tuple(caches)


def chunk_kept(cache: tuple) -> tuple:
    """What a checkpoint keeps of a :func:`chunk_fwd` cache beside the
    chunk input — its layer's :func:`~repro.nn.layer.layer_kept`."""
    return layer_kept(dict(cache)["layer"])


def chunk_bwd_input(
    cfg: ModelConfig,
    idx: int,
    w: ParamStruct,
    dy: np.ndarray,
    cache: tuple,
) -> Tuple[Optional[np.ndarray], dict]:
    """B pass for chunk ``idx``: gradient w.r.t. the chunk input.

    For chunk 0 the input is integer tokens, so ``dx`` is ``None`` (the
    embedding gradient is produced by the W pass).
    """
    parts = dict(cache)
    wcache: dict = {}

    if idx == cfg.n_layers - 1:
        dh = F.linear_bwd_input(dy, w["head"])
        wcache["d_head"] = dy
        dyl = F.rmsnorm_bwd_input(dh, parts["final_norm"])
        wcache["d_final_norm"] = dh
        dy = dyl

    dx, layer_wcache = layer_bwd_input(w, dy, parts["layer"])
    wcache["layer"] = layer_wcache

    if idx == 0:
        wcache["d_embed"] = dx
        dx = None
    return dx, wcache


def chunk_bwd_weight(
    cfg: ModelConfig, idx: int, cache: tuple, wcache: dict
) -> ParamStruct:
    """W pass for chunk ``idx``: weight gradients (no weights needed)."""
    parts = dict(cache)
    grads = layer_bwd_weight(parts["layer"], wcache["layer"])
    if idx == 0:
        grads["embed"] = F.embedding_bwd(wcache["d_embed"], parts["embed"])
    if idx == cfg.n_layers - 1:
        grads["final_norm"] = F.rmsnorm_bwd_weight(
            wcache["d_final_norm"], parts["final_norm"]
        )
        grads["head"] = F.linear_bwd_weight(
            parts["head"][0], wcache["d_head"]
        )
    return grads


def chunk_bwd(
    cfg: ModelConfig,
    idx: int,
    w: ParamStruct,
    dy: np.ndarray,
    cache: tuple,
) -> Tuple[Optional[np.ndarray], ParamStruct]:
    """Fused backward for chunk ``idx``."""
    dx, wcache = chunk_bwd_input(cfg, idx, w, dy, cache)
    grads = chunk_bwd_weight(cfg, idx, cache, wcache)
    return dx, grads


# ---------------------------------------------------------------------------
# factored weight gradients (DESIGN.md §17)

#: each linear's input in a chunk's factor bundle: the layer's, and the
#: head's (the final norm's output).
_INPUTS = {**LINEAR_INPUTS, "head": "h"}
#: the bundle's input-side entries, which cross the wire at the activation
#: width; every other entry is a gradient, at the activation-gradient width.
FACTOR_INPUTS = frozenset(_INPUTS.values()) | {"tokens"}


def _linears(cfg, idx: int) -> List[Tuple[int, int]]:
    """``(in, out)`` of every linear in chunk ``idx``."""
    h, f = cfg.hidden, cfg.ffn
    shapes = [(h, h)] * 4 + [(h, f), (h, f), (f, h)]
    return shapes + [(h, cfg.vocab)] * (idx == cfg.n_layers - 1)


def chunk_factored(cfg, idx: int, tokens: int) -> bool:
    """Is chunk ``idx``'s gradient cheaper carried as factors?  True when,
    for every linear in it, a microbatch of ``tokens`` positions has fewer
    factor elements (``tokens * (in + out)``: its input and its output
    gradient) than the dense gradient has (``in * out``) — for Llama
    shapes ``tokens < H / 2``.  ``cfg`` is a ``ModelConfig`` or anything
    with its ``hidden`` / ``ffn`` / ``vocab`` / ``n_layers``."""
    return all(tokens * (i + o) < i * o for i, o in _linears(cfg, idx))


def chunk_factors(cfg: ModelConfig, idx: int, cache: tuple, wcache: dict) -> dict:
    """Chunk ``idx``'s factor bundle from its B pass (:func:`chunk_bwd_input`'s
    ``cache`` and ``wcache``): the layer's
    (:func:`~repro.nn.layer.layer_factors`), plus the token ids and their
    gradient on chunk 0, and the head's input and output gradient and the
    final norm's gain gradient on the last chunk.  No GEMM runs here."""
    parts = dict(cache)
    bundle = layer_factors(parts["layer"], wcache["layer"])
    if idx == 0:
        bundle["tokens"] = parts["embed"][0]
        bundle["embed"] = wcache["d_embed"]
    if idx == cfg.n_layers - 1:
        bundle["h"] = parts["head"][0]
        bundle["head"] = wcache["d_head"]
        bundle["final_norm"] = F.rmsnorm_bwd_weight(
            wcache["d_final_norm"], parts["final_norm"]
        )
    return bundle


def factor_numel(bundle: Dict[str, np.ndarray]) -> Tuple[int, int]:
    """``(input, gradient)`` element counts of a factor bundle."""
    n_in = sum(a.size for k, a in bundle.items() if k in FACTOR_INPUTS)
    return n_in, sum(a.size for a in bundle.values()) - n_in


def chunk_factor_numel(cfg, idx: int, tokens: int) -> Tuple[int, int]:
    """:func:`factor_numel` of chunk ``idx``'s bundle for a microbatch of
    ``tokens`` positions, from the shapes alone."""
    h, f = cfg.hidden, cfg.ffn
    n_in, n_grad = tokens * (3 * h + f), tokens * (5 * h + 2 * f) + 2 * h
    if idx == 0:
        n_in, n_grad = n_in + tokens, n_grad + tokens * h
    if idx == cfg.n_layers - 1:
        n_in, n_grad = n_in + tokens * h, n_grad + tokens * cfg.vocab + h
    return n_in, n_grad


def chunk_form(bundles: Sequence[dict], out: ParamStruct) -> ParamStruct:
    """A chunk's gradient, written into ``out``, from its microbatches'
    factor bundles in the order given.

    Each linear's gradient is one GEMM over every microbatch's tokens,
    stacked in that order: ``concat(x).T @ concat(dy)``, where the
    per-microbatch path runs one thin GEMM per microbatch and adds.  The
    norm gains sum their vectors in order, and the embedding scatters the
    stacked token gradients.  A stacked sum rounds differently from the
    per-microbatch sum, so every loop that forms a chunk forms it here,
    from bundles in microbatch order: the results stay bit-identical
    across strategies and wires."""
    stacked: Dict[str, List[str]] = {}
    for name in out.keys():
        if name in _INPUTS:
            stacked.setdefault(_INPUTS[name], []).append(name)

    def rows(key: str) -> np.ndarray:
        return np.concatenate([b[key].reshape(-1, b[key].shape[-1]) for b in bundles])

    for key, names in stacked.items():
        x = rows(key).T
        for name in names:
            np.matmul(x, rows(name), out=out[name])
        del x  # one stacked input lives at a time
    for name, g in out.items():
        if name == "embed":
            g[...] = 0.0
            tokens = np.concatenate([b["tokens"].reshape(-1) for b in bundles])
            np.add.at(g, tokens, rows("embed"))
        elif name not in _INPUTS:
            g[...] = bundles[0][name]
            for b in bundles[1:]:
                g += b[name]
    return out


# ---------------------------------------------------------------------------
# serial whole-model helpers (the ground-truth baseline)


def model_fwd(
    cfg: ModelConfig,
    chunks: List[ParamStruct],
    tokens: np.ndarray,
    cos: np.ndarray,
    sin: np.ndarray,
) -> Tuple[np.ndarray, List[tuple]]:
    """Serial forward through all chunks; returns logits and caches."""
    x = tokens
    caches: List[tuple] = []
    for i, w in enumerate(chunks):
        x, c = chunk_fwd(cfg, i, w, x, cos, sin)
        caches.append(c)
    return x, caches


def model_loss_and_grads(
    cfg: ModelConfig,
    chunks: List[ParamStruct],
    tokens: np.ndarray,
    targets: np.ndarray,
    cos: Optional[np.ndarray] = None,
    sin: Optional[np.ndarray] = None,
) -> Tuple[float, List[ParamStruct]]:
    """Serial loss + full gradients for one microbatch.

    This is the reference every distributed strategy must reproduce.
    """
    if cos is None or sin is None:
        cos, sin = rope_tables(cfg)
    logits, caches = model_fwd(cfg, chunks, tokens, cos, sin)
    loss, c_loss = F.cross_entropy_fwd(logits, targets)
    dy = F.cross_entropy_bwd(1.0, c_loss)
    grads: List[Optional[ParamStruct]] = [None] * cfg.n_layers
    for i in range(cfg.n_layers - 1, -1, -1):
        dy, g = chunk_bwd(cfg, i, chunks[i], dy, caches[i])
        grads[i] = g
    return loss, grads  # type: ignore[return-value]


def sequence_logprobs(
    cfg: ModelConfig,
    chunks: List[ParamStruct],
    tokens: np.ndarray,
    targets: np.ndarray,
) -> np.ndarray:
    """Per-position log-probabilities of ``targets`` given ``tokens``
    (one full forward; shape (G, S))."""
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
    """``exp`` of the mean next-token cross entropy — the standard eval
    metric; pairs with :meth:`repro.data.MarkovCorpus.entropy_rate` to
    measure how close a trained model is to the data's floor."""
    lp = sequence_logprobs(cfg, chunks, tokens, targets)
    return float(np.exp(-lp.mean()))
