"""Factored weight gradients: a chunk's B pass keeps each linear's input
and output gradient, and the chunk's gradient over many microbatches is
formed once, one GEMM per weight over their stacked tokens.

The rule is read off the shapes (``chunk_factored``): factors win when,
for every linear, a microbatch's ``tokens * (in + out)`` elements are
fewer than the dense ``in * out``.  The formation must equal the sum of
the per-microbatch dense gradients to rounding, and a steady-state
factored backward must allocate nothing weight-sized.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro import MIXED, TrainSpec, train
from repro.nn import functional as F
from repro.nn.model import (
    FACTOR_INPUTS,
    ModelConfig,
    chunk_bwd_input,
    chunk_bwd_weight,
    chunk_factor_numel,
    chunk_factored,
    chunk_factors,
    chunk_form,
    chunk_fwd,
    chunk_param_count,
    init_model,
    rope_tables,
)
from repro.nn.precision import fp16_round
from repro.parallel.common import RankLoop


# -- the boundary ----------------------------------------------------------------


@pytest.mark.parametrize("hidden", [64, 256])
def test_square_linears_put_the_boundary_at_half_the_width(hidden):
    # default ffn (8H/3): the four H x H projections bind first
    cfg = ModelConfig(hidden=hidden, n_layers=2, n_heads=2, seq_len=8, vocab=4096)
    assert chunk_factored(cfg, 0, hidden // 2 - 1)
    assert not chunk_factored(cfg, 0, hidden // 2)


def test_a_narrow_ffn_linear_can_bind_instead():
    # H = 64, F = 16: 64 * 16 / 80 = 12.8 tokens, below the squares' 32
    cfg = ModelConfig(hidden=64, n_layers=2, n_heads=2, seq_len=8, vocab=4096, ffn=16)
    assert chunk_factored(cfg, 0, 12)
    assert not chunk_factored(cfg, 0, 13)


def test_the_head_counts_on_the_last_chunk_only():
    # vocab 8 < H: the head (64 x 8) is dense at 8 tokens, the layers not
    cfg = ModelConfig(hidden=64, n_layers=2, n_heads=2, seq_len=8, vocab=8)
    assert chunk_factored(cfg, 0, 8) and not chunk_factored(cfg, 1, 8)


# -- the bundle and its formation --------------------------------------------


def _backward(cfg, n_mb):
    """Per chunk: the dense gradient summed over ``n_mb`` microbatches, and
    each microbatch's bundle, in order."""
    chunks = init_model(cfg, 0)
    cos, sin = rope_tables(cfg)
    rng = np.random.default_rng(3)
    dense = [c.zeros_like() for c in chunks]
    bundles = [[] for _ in chunks]
    for _ in range(n_mb):
        tokens = rng.integers(0, cfg.vocab, (2, cfg.seq_len))
        x, caches = tokens, []
        for i, w in enumerate(chunks):
            x, c = chunk_fwd(cfg, i, w, x, cos, sin)
            caches.append(c)
        _, c_loss = F.cross_entropy_fwd(x, rng.integers(0, cfg.vocab, tokens.shape))
        dy = F.cross_entropy_bwd(1.0 / n_mb, c_loss)
        for i in reversed(range(cfg.n_layers)):
            dx, wcache = chunk_bwd_input(cfg, i, chunks[i], dy, caches[i])
            dense[i].add_(chunk_bwd_weight(cfg, i, caches[i], wcache))
            bundles[i].append(chunk_factors(cfg, i, caches[i], wcache))
            dy = dx
    return chunks, dense, bundles


def test_the_formation_is_the_sum_of_the_dense_gradients():
    cfg = ModelConfig(hidden=32, n_layers=3, n_heads=2, seq_len=4, vocab=40)
    chunks, dense, bundles = _backward(cfg, 3)
    for i, c in enumerate(chunks):
        # the buffer's old contents are never read
        out = chunk_form(bundles[i], c.zeros_like().map(lambda a: np.full_like(a, np.nan)))
        assert out.keys() == dense[i].keys()
        for k in out.keys():
            np.testing.assert_allclose(out[k], dense[i][k], rtol=1e-12, atol=1e-15)


def test_the_bundle_holds_no_weight_and_is_sized_by_the_shapes():
    cfg = ModelConfig(hidden=32, n_layers=3, n_heads=2, seq_len=4, vocab=40)
    chunks, _, bundles = _backward(cfg, 1)
    for i, c in enumerate(chunks):
        (b,) = bundles[i]
        assert not any(np.shares_memory(a, w) for a in b.values() for w in c.values())
        n_in = sum(a.size for k, a in b.items() if k in FACTOR_INPUTS)
        n_all = sum(a.size for a in b.values())
        assert (n_in, n_all - n_in) == chunk_factor_numel(cfg, i, 2 * cfg.seq_len)
        # below the boundary a microbatch's factors undercut the chunk
        assert n_all < chunk_param_count(cfg, i)


# -- in a loop -------------------------------------------------------------------


def _thin_spec(**kw):
    cfg = ModelConfig(hidden=128, n_layers=2, n_heads=4, seq_len=8, vocab=64,
                      dtype=np.float32)
    return TrainSpec(cfg=cfg, n_microbatches=4, microbatch_size=1, iters=3, **kw)


def test_a_steady_state_factored_backward_allocates_nothing_weight_sized(monkeypatch):
    spec = _thin_spec()
    cfg = spec.cfg
    assert all(chunk_factored(cfg, i, cfg.seq_len) for i in range(cfg.n_layers))
    peaks = []
    backward = RankLoop.backward

    def measured(self, it, mb, chunks, grads):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        backward(self, it, mb, chunks, grads)
        if it > 0:
            peaks.append(tracemalloc.get_traced_memory()[1] - base)

    monkeypatch.setattr(RankLoop, "backward", measured)
    tracemalloc.start()
    try:
        train(spec, "serial", 1)
    finally:
        tracemalloc.stop()
    itemsize = np.dtype(cfg.dtype).itemsize
    tokens = cfg.seq_len
    bundle = itemsize * sum(sum(chunk_factor_numel(cfg, i, tokens))
                            for i in range(cfg.n_layers))
    # the backward's own activation-sized temporaries, generously
    acts = itemsize * cfg.n_layers * 16 * tokens * max(cfg.ffn, cfg.vocab)
    # what a dense backward draws for each chunk's gradient
    dense = itemsize * min(chunk_param_count(cfg, i) for i in range(cfg.n_layers))
    assert peaks and max(peaks) < bundle + acts, (max(peaks), bundle, acts)
    assert max(peaks) < dense, (max(peaks), dense)


def test_a_mixed_formation_is_quantised_once_to_the_gradient_format(monkeypatch):
    spec = replace(_thin_spec(precision=MIXED), iters=1)
    formed = []
    form = RankLoop.form

    def kept(self, it, grads):
        form(self, it, grads)
        formed.extend(g for g in grads)

    monkeypatch.setattr(RankLoop, "form", kept)
    train(spec, "serial", 1)
    for g in formed:
        for a in g.values():
            np.testing.assert_array_equal(a, fp16_round(a))
