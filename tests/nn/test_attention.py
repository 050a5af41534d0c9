"""Attention cores: causality, equivalence, gradients, dtype, allocation."""

import tracemalloc

import numpy as np
import pytest

from repro.nn.attention import (
    attention_block_bwd,
    attention_block_fwd,
    attention_bwd,
    attention_fwd,
    flash_attention_bwd,
    flash_attention_fwd,
)
from repro.nn.layer import _from_heads, _to_heads
from repro.testing import assert_grad_close, numerical_grad

RNG = np.random.default_rng(11)


def _qkv(b=2, nh=2, s=6, hd=4):
    q = RNG.normal(size=(b, nh, s, hd))
    k = RNG.normal(size=(b, nh, s, hd))
    v = RNG.normal(size=(b, nh, s, hd))
    return q, k, v


def _head_views(n, g, s, nh, hd, dtype):
    """``n`` tensors shaped the way ``layer_fwd`` passes them: transposed,
    non-contiguous ``(G, nh, S, hd)`` views of ``(G, S, H)`` activations."""
    return [
        _to_heads(RNG.normal(size=(g, s, nh * hd)).astype(dtype), nh)
        for _ in range(n)
    ]


def _seed_attention_fwd(q, k, v):
    """The materialised forward as it stood before the three cores were
    merged (``np.triu`` mask, NumPy-scalar scale) — fp64 reference only."""
    seq = q.shape[-2]
    scale = 1.0 / np.sqrt(q.shape[-1])
    scores = (q @ np.swapaxes(k, -1, -2)) * scale
    mask = np.triu(np.ones((seq, seq), dtype=bool), k=1)
    scores = np.where(mask, -np.inf, scores)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    return p @ v, p


def _seed_attention_bwd(dout, q, k, v, p):
    scale = 1.0 / np.sqrt(q.shape[-1])
    dv = np.swapaxes(p, -1, -2) @ dout
    dp = dout @ np.swapaxes(v, -1, -2)
    dscores = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
    return (
        (dscores @ k) * scale,
        (np.swapaxes(dscores, -1, -2) @ q) * scale,
        dv,
    )


class TestMaterialisedAttention:
    def test_causality(self):
        """Changing future keys/values must not affect earlier outputs."""
        q, k, v = _qkv(s=5)
        out1, _ = attention_fwd(q, k, v)
        k2, v2 = k.copy(), v.copy()
        k2[..., 3:, :] = RNG.normal(size=k2[..., 3:, :].shape)
        v2[..., 3:, :] = RNG.normal(size=v2[..., 3:, :].shape)
        out2, _ = attention_fwd(q, k2, v2)
        np.testing.assert_allclose(out1[..., :3, :], out2[..., :3, :])

    def test_first_token_attends_to_itself(self):
        q, k, v = _qkv()
        out, _ = attention_fwd(q, k, v)
        np.testing.assert_allclose(out[..., 0, :], v[..., 0, :])

    def test_grads(self):
        q, k, v = _qkv(b=1, nh=1, s=4, hd=4)
        dout = RNG.normal(size=q.shape)
        _, cache = attention_fwd(q, k, v)
        dq, dk, dv = attention_bwd(dout, cache)

        def make_loss(which):
            def loss(t):
                args = {"q": q, "k": k, "v": v}
                args[which] = t
                return float((attention_fwd(args["q"], args["k"], args["v"])[0] * dout).sum())

            return loss

        assert_grad_close(dq, numerical_grad(make_loss("q"), q), name="dq")
        assert_grad_close(dk, numerical_grad(make_loss("k"), k), name="dk")
        assert_grad_close(dv, numerical_grad(make_loss("v"), v), name="dv")

    @pytest.mark.parametrize("s", [1, 5, 32])
    def test_one_body_is_bitwise_the_seed_formula(self, s):
        """``attention_fwd`` is ``attention_block_fwd`` at offset 0 and the
        two backwards are one function; merging them (and making the
        scale a Python float) must not move a single fp64 bit."""
        q, k, v, dout = _head_views(4, 2, s, 3, 8, np.float64)
        ref_out, ref_p = _seed_attention_fwd(q, k, v)
        ref_grads = _seed_attention_bwd(dout, q, k, v, ref_p)
        for fwd, bwd in (
            (attention_fwd, attention_bwd),
            (lambda *a: attention_block_fwd(*a, 0), attention_block_bwd),
        ):
            out, cache = fwd(q, k, v)
            np.testing.assert_array_equal(out, ref_out)
            np.testing.assert_array_equal(cache[3], ref_p)
            assert type(cache[4]) is float
            for got, ref in zip(bwd(dout, cache), ref_grads):
                np.testing.assert_array_equal(got, ref)


_TOY_HEADS = (2, 3, 8)  # (G, heads, head_dim)


def _stream_grid():
    """``(S, block, (G, heads, head_dim), dtype, rtol)`` cases.

    At a toy head size, in both dtypes: ``S`` on every side of a block
    boundary, plus ``block > S``.  In fp32: the benchmark's own
    long-context family (``head_dim`` 32 and 64, ``S = 1024``,
    ``block = 128``) and one ``S`` just past its last block boundary,
    where the flat-scratch panel of the partial block is reshaped."""
    toy = {(7, 4096)}
    for block in (1, 16, 128):
        for s in (1, 7, block - 1, block, block + 1, 3 * block + 5):
            if s >= 1:
                toy.add((s, block))
    cases = [
        (s, block, _TOY_HEADS, dtype, rtol)
        for s, block in sorted(toy)
        for dtype, rtol in ((np.float64, 1e-12), (np.float32, 1e-5))
    ]
    cases += [
        (s, 128, (1, 2, hd), np.float32, 1e-5)
        for s, hd in ((1024, 32), (1024, 64), (1025, 32))
    ]
    # two of four heads fit the panel budget: neither one group nor one head
    cases.append((300, 128, (2, 4, 8), np.float32, 1e-5))
    return cases


class TestFlashAttention:
    @pytest.mark.parametrize("s,block,heads,dtype,rtol", _stream_grid())
    def test_streaming_equals_materialised(self, s, block, heads, dtype, rtol):
        """Forward, log-sum-exp and backward against the oracle, on the
        non-contiguous head views the layer passes, with G * heads > 1."""
        g, nh, hd = heads
        q, k, v, dout = _head_views(4, g, s, nh, hd, dtype)
        ref_out, c_ref = attention_fwd(q, k, v)
        ref_grads = attention_bwd(dout, c_ref)
        out, cache = flash_attention_fwd(q, k, v, block=block)
        grads = flash_attention_bwd(dout, cache)

        np.testing.assert_allclose(out, ref_out, rtol=rtol, atol=rtol)
        for got, ref, name in zip(grads, ref_grads, "qkv"):
            np.testing.assert_allclose(
                got, ref, rtol=rtol, atol=rtol, err_msg=f"d{name}"
            )
        for arr in (out, cache[4], *grads):
            assert arr.dtype == dtype
        assert cache[3] is out and cache[6] == block
        assert type(cache[5]) is float

    @pytest.mark.parametrize("block", [2, 128])
    def test_results_keep_the_layout_of_q(self, block):
        """``out`` and the three gradients come back in ``q``'s memory
        layout, so ``_from_heads`` of each is a view, not a copy."""
        q, k, v, dout = _head_views(4, 2, 9, 3, 8, np.float32)
        out, cache = flash_attention_fwd(q, k, v, block=block)
        for arr in (out, *flash_attention_bwd(dout, cache)):
            assert arr.strides == q.strides
            assert np.shares_memory(_from_heads(arr), arr)

    def test_head_groups_bound_the_scratch(self):
        """Heads are taken in the largest full groups whose panels fit
        the byte budget: whole samples when everything fits, one head
        when nothing does, never a partial group."""
        from repro.nn.attention import _PANEL_BYTES, _head_groups

        group, selections = _head_groups((2, 4), _PANEL_BYTES // 3)
        assert group == 2  # three fit, two divides four
        assert selections == [
            (0, slice(0, 2)), (0, slice(2, 4)), (1, slice(0, 2)), (1, slice(2, 4))
        ]
        assert _head_groups((2, 4), 2 * _PANEL_BYTES)[0] == 1
        assert _head_groups((2, 4), 1) == (4, [(0, slice(0, 4)), (1, slice(0, 4))])
        assert _head_groups((), 1) == (1, [(None,)])

    def test_a_bare_head_is_accepted(self):
        """``(S, head_dim)`` inputs with no leading axes still stream."""
        q, k, v = (x[0, 0] for x in _qkv(s=9))
        dout = RNG.normal(size=q.shape)
        ref_out, c_ref = attention_fwd(q, k, v)
        out, cache = flash_attention_fwd(q, k, v, block=4)
        np.testing.assert_allclose(out, ref_out, rtol=1e-12, atol=1e-12)
        grads, ref_grads = flash_attention_bwd(dout, cache), attention_bwd(dout, c_ref)
        for got, ref in zip(grads, ref_grads):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("block", [0, -4])
    def test_block_must_be_positive(self, block):
        q, k, v = _qkv()
        with pytest.raises(ValueError, match="flash block must be >= 1"):
            flash_attention_fwd(q, k, v, block=block)

    def test_backward_matches_finite_differences(self):
        # contiguous inputs: numerical_grad perturbs through a flat view
        q, k, v = _qkv(b=1, nh=2, s=7, hd=4)
        dout = RNG.normal(size=q.shape)
        _, cache = flash_attention_fwd(q, k, v, block=3)
        grads = flash_attention_bwd(dout, cache)

        def make_loss(which):
            def loss(t):
                args = {"q": q, "k": k, "v": v}
                args[which] = t
                out, _ = flash_attention_fwd(
                    args["q"], args["k"], args["v"], block=3
                )
                return float((out * dout).sum())

            return loss

        for got, name in zip(grads, "qkv"):
            wrt = {"q": q, "k": k, "v": v}[name]
            assert_grad_close(
                got, numerical_grad(make_loss(name), wrt), name=f"d{name}"
            )

    def test_forward_allocates_no_per_block_panels(self):
        """Peak traced memory of one long-context forward stays under
        outputs + two panels + O(S * head_dim): the block loop reuses its
        scratch instead of allocating fresh ``(S, block)`` temporaries."""
        seq, hd, block = 1024, 32, 128
        q, k, v = _head_views(3, 1, seq, 2, hd, np.float32)
        flash_attention_fwd(q, k, v, block=block)  # warm any lazy imports
        tracemalloc.start()
        try:
            out, cache = flash_attention_fwd(q, k, v, block=block)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        panel = q.shape[0] * q.shape[1] * seq * block * q.itemsize
        ceiling = out.nbytes + cache[4].nbytes + 2 * panel + 4 * q.nbytes
        assert peak <= ceiling, (peak, ceiling)

    def test_backward_allocates_no_per_block_panels(self):
        """The backward's ceiling: gradients + one head's two panels
        (probabilities, ``dscores``; at this shape the panel budget
        admits one head at a time) + O(S * head_dim) — that head's
        operands widened by a column, the ``dq`` accumulator and its
        addend.  The scratch is reused by every head and block."""
        seq, hd, block = 1024, 32, 128
        q, k, v, dout = _head_views(4, 1, seq, 2, hd, np.float32)
        _, cache = flash_attention_fwd(q, k, v, block=block)
        flash_attention_bwd(dout, cache)  # warm any lazy imports
        tracemalloc.start()
        try:
            grads = flash_attention_bwd(dout, cache)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        head_panel = seq * block * q.itemsize
        ceiling = sum(g.nbytes for g in grads) + 2 * head_panel + 4 * q.nbytes
        assert peak <= ceiling, (peak, ceiling)

    def test_cache_has_no_quadratic_tensor(self):
        """The flash cache must not contain any (S, S) tensor."""
        q, k, v = _qkv(s=12)
        _, cache = flash_attention_fwd(q, k, v, block=4)
        s = q.shape[-2]
        for item in cache:
            if isinstance(item, np.ndarray):
                assert item.shape[-2:] != (s, s)

    def test_no_nan_on_long_rows(self):
        """Large score magnitudes must not overflow the streaming pass."""
        q, k, v = _qkv(s=8)
        out, _ = flash_attention_fwd(q * 30, k * 30, v, block=2)
        assert np.isfinite(out).all()

    @pytest.mark.parametrize("block", [2, 128])
    def test_backward_with_large_scores_matches_oracle(self, block):
        """The backward folds ``-logsumexp`` and ``-delta`` into its score
        GEMMs; with scores in the hundreds both are differences of large
        numbers, and must still be finite and agree with the oracle."""
        q, k, v = _qkv(s=8)
        q, k = q * 30, k * 30
        dout = RNG.normal(size=q.shape)
        ref_out, c_ref = attention_fwd(q, k, v)
        ref_grads = attention_bwd(dout, c_ref)
        out, cache = flash_attention_fwd(q, k, v, block=block)
        grads = flash_attention_bwd(dout, cache)
        assert np.abs(cache[4]).max() > 100  # the shifts are large
        np.testing.assert_allclose(out, ref_out, rtol=1e-12, atol=1e-12)
        for got, ref, name in zip(grads, ref_grads, "qkv"):
            assert np.isfinite(got).all()
            np.testing.assert_allclose(
                got, ref, rtol=1e-12, atol=1e-12, err_msg=f"d{name}"
            )
