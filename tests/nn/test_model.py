"""Whole-model behaviour: chunked fwd/bwd, parameter counts, losses."""

import numpy as np
import pytest

from repro.nn import (
    ModelConfig,
    chunk_bwd,
    chunk_bwd_input,
    chunk_bwd_weight,
    chunk_fwd,
    default_ffn,
    init_chunk,
    init_model,
    model_fwd,
    model_loss_and_grads,
    model_param_count,
    rope_tables,
)
from repro.nn import functional as F

CFG = ModelConfig(hidden=16, n_layers=3, n_heads=2, seq_len=6, vocab=13)
RNG = np.random.default_rng(5)


def _batch(g=2):
    tokens = RNG.integers(0, CFG.vocab, size=(g, CFG.seq_len))
    targets = RNG.integers(0, CFG.vocab, size=(g, CFG.seq_len))
    return tokens, targets


class TestConfig:
    def test_default_ffn_near_llama_ratio(self):
        for h in (1024, 2048, 4096):
            f = default_ffn(h)
            assert abs(3 * h * f - 8 * h * h) / (8 * h * h) < 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(hidden=10, n_layers=1, n_heads=3, seq_len=4, vocab=7)
        with pytest.raises(ValueError):
            # odd head dim breaks RoPE
            ModelConfig(hidden=6, n_layers=1, n_heads=2, seq_len=4, vocab=7)
        for bad in (0, -1):
            with pytest.raises(ValueError, match="flash_block"):
                CFG.with_(flash_block=bad)

    def test_param_count_12h2(self):
        """Per-layer parameters land within 1% of the paper's 12 H^2."""
        h = 1024
        cfg = ModelConfig(hidden=h, n_layers=1, n_heads=8, seq_len=4, vocab=32)
        from repro.nn.layer import layer_param_count

        assert abs(layer_param_count(h, cfg.ffn) - 12 * h * h) / (12 * h * h) < 0.01


class TestInit:
    def test_deterministic(self):
        a = init_model(CFG, seed=3)
        b = init_model(CFG, seed=3)
        for ca, cb in zip(a, b):
            assert ca.allclose(cb)

    def test_seed_changes_weights(self):
        a = init_model(CFG, seed=3)
        b = init_model(CFG, seed=4)
        assert not a[0].allclose(b[0])

    def test_extras_placement(self):
        chunks = init_model(CFG)
        assert "embed" in chunks[0]
        assert "head" in chunks[-1] and "final_norm" in chunks[-1]
        for c in chunks[1:-1]:
            assert "embed" not in c and "head" not in c

    def test_model_param_count(self):
        chunks = init_model(CFG)
        assert sum(c.numel for c in chunks) == model_param_count(CFG)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_model_is_the_list_of_chunks(self, dtype):
        """Every chunk has its own stream: drawing chunk ``i`` alone gives
        bit for bit what ``init_model`` holds at ``i``."""
        cfg = CFG.with_(dtype=dtype)
        model = init_model(cfg, 7)
        assert len(model) == cfg.n_layers
        for i, whole in enumerate(model):
            alone = init_chunk(cfg, 7, i)
            assert alone.keys() == whole.keys()
            for k in whole.keys():
                assert alone[k].dtype == np.dtype(dtype)
                assert np.array_equal(alone[k], whole[k]), (i, k)

    def test_layer_matrices_do_not_depend_on_depth(self):
        """Chunk ``i``'s layer weights are a function of ``(seed, i)`` and
        the layer shape: a deeper model only moves the final norm / head."""
        layer_keys = init_chunk(CFG, 3, 1).keys()  # an interior chunk
        deep = CFG.with_(n_layers=CFG.n_layers + 2)
        for i in range(CFG.n_layers):
            a, b = init_chunk(CFG, 3, i), init_chunk(deep, 3, i)
            for k in layer_keys:
                assert np.array_equal(a[k], b[k]), (i, k)
        assert "head" in init_chunk(CFG, 3, CFG.n_layers - 1)
        assert "head" not in init_chunk(deep, 3, CFG.n_layers - 1)

    def test_chunks_of_one_model_differ(self):
        a, b = init_chunk(CFG, 3, 1), init_chunk(CFG, 3, 2)
        assert not np.array_equal(a["wq"], b["wq"])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_block_drawn_chunk_is_the_whole_matrix_draw(self, dtype, n_layers):
        """``init_chunk`` draws through a block-sized float64 scratch into
        one buffer; that is the stream — values, key order, dtypes — of
        the one-``rng.normal``-per-matrix form it replaced (kept below),
        at a hidden size whose matrices end mid-block and span several."""
        cfg = ModelConfig(hidden=96, n_layers=n_layers, n_heads=2, seq_len=6,
                          vocab=401, dtype=dtype)
        for i in range(n_layers):
            ours, ref = init_chunk(cfg, 9, i), _whole_matrix_init_chunk(cfg, 9, i)
            assert ours.keys() == ref.keys()
            assert ours.arena is not None and ours.arena.dtype == np.dtype(dtype)
            for k in ref.keys():
                assert ours[k].dtype == ref[k].dtype and ours[k].shape == ref[k].shape
                assert ours[k].tobytes() == ref[k].tobytes(), (i, k)


def _whole_matrix_init_chunk(cfg, seed, idx):
    """``init_chunk`` + ``init_layer_weights`` as they were before the
    block draw, verbatim: the reference the new draw must reproduce."""
    from repro.nn.params import ParamStruct

    rng = np.random.default_rng((seed, idx))
    std = 0.02
    hidden, ffn, dtype = cfg.hidden, cfg.ffn, cfg.dtype

    def normal(*shape):
        return rng.normal(0.0, std, size=shape).astype(dtype)

    w = ParamStruct(
        {
            "attn_norm": np.ones(hidden, dtype=dtype),
            "wq": normal(hidden, hidden),
            "wk": normal(hidden, hidden),
            "wv": normal(hidden, hidden),
            "wo": normal(hidden, hidden),
            "ffn_norm": np.ones(hidden, dtype=dtype),
            "w_gate": normal(hidden, ffn),
            "w_up": normal(hidden, ffn),
            "w_down": normal(ffn, hidden),
        }
    )
    if idx == 0:
        w["embed"] = rng.normal(
            0.0, std, size=(cfg.vocab, cfg.hidden)
        ).astype(cfg.dtype)
    if idx == cfg.n_layers - 1:
        w["final_norm"] = np.ones(cfg.hidden, dtype=cfg.dtype)
        w["head"] = rng.normal(
            0.0, std, size=(cfg.hidden, cfg.vocab)
        ).astype(cfg.dtype)
    return w


class TestForward:
    def test_logits_shape(self):
        chunks = init_model(CFG)
        tokens, _ = _batch()
        cos, sin = rope_tables(CFG)
        logits, caches = model_fwd(CFG, chunks, tokens, cos, sin)
        assert logits.shape == (2, CFG.seq_len, CFG.vocab)
        assert len(caches) == CFG.n_layers

    def test_flash_matches(self):
        tokens, _ = _batch()
        cos, sin = rope_tables(CFG)
        chunks = init_model(CFG)
        l1, _ = model_fwd(CFG, chunks, tokens, cos, sin)
        cfg2 = CFG.with_(flash_attention=True, flash_block=2)
        l2, _ = model_fwd(cfg2, chunks, tokens, cos, sin)
        np.testing.assert_allclose(l1, l2, atol=1e-11)


class TestBackward:
    def test_full_model_gradcheck_spot(self):
        """Finite-difference check a few scalar weights through the whole
        model (full gradcheck is done per-op; this catches wiring bugs)."""
        chunks = init_model(CFG)
        tokens, targets = _batch(g=1)
        loss, grads = model_loss_and_grads(CFG, chunks, tokens, targets)

        eps = 1e-6
        probes = [(0, "embed", (3, 2)), (1, "wq", (0, 1)), (2, "head", (5, 4)),
                  (0, "w_down", (2, 3)), (2, "ffn_norm", (7,))]
        for li, name, idx in probes:
            orig = chunks[li][name][idx]
            chunks[li][name][idx] = orig + eps
            lp, _ = model_loss_and_grads(CFG, chunks, tokens, targets)
            chunks[li][name][idx] = orig - eps
            lm, _ = model_loss_and_grads(CFG, chunks, tokens, targets)
            chunks[li][name][idx] = orig
            num = (lp - lm) / (2 * eps)
            assert grads[li][name][idx] == pytest.approx(num, rel=1e-4, abs=1e-8), (
                li,
                name,
            )

    def test_chunk_decoupled_matches_fused(self):
        chunks = init_model(CFG)
        tokens, targets = _batch()
        cos, sin = rope_tables(CFG)
        logits, caches = model_fwd(CFG, chunks, tokens, cos, sin)
        _, c_loss = F.cross_entropy_fwd(logits, targets)
        dy = F.cross_entropy_bwd(1.0, c_loss)
        for i in range(CFG.n_layers - 1, -1, -1):
            dx_f, g_f = chunk_bwd(CFG, i, chunks[i], dy, caches[i])
            dx_d, wcache = chunk_bwd_input(CFG, i, chunks[i], dy, caches[i])
            g_d = chunk_bwd_weight(CFG, i, caches[i], wcache)
            if i == 0:
                assert dx_f is None and dx_d is None
            else:
                np.testing.assert_allclose(dx_d, dx_f)
            for name in g_f.keys():
                np.testing.assert_allclose(g_d[name], g_f[name], err_msg=name)
            dy = dx_f if dx_f is not None else dy

    def test_loss_decreases_under_sgd(self):
        """Sanity: a few hand-rolled SGD steps reduce the loss."""
        chunks = init_model(CFG, seed=1)
        tokens, targets = _batch(g=2)
        loss0, _ = model_loss_and_grads(CFG, chunks, tokens, targets)
        for _ in range(5):
            _, grads = model_loss_and_grads(CFG, chunks, tokens, targets)
            for c, g in zip(chunks, grads):
                c.add_(g, scale=-0.5)
        loss1, _ = model_loss_and_grads(CFG, chunks, tokens, targets)
        assert loss1 < loss0
