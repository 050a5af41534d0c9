"""Gradient checks and behaviour tests for the primitive ops."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.testing import assert_grad_close, numerical_grad

RNG = np.random.default_rng(7)


def _rand(*shape):
    return RNG.normal(size=shape).astype(np.float64)


class TestLinear:
    def test_forward_value(self):
        x, w = _rand(3, 4), _rand(4, 5)
        y, _ = F.linear_fwd(x, w)
        np.testing.assert_allclose(y, x @ w)

    def test_grad_input(self):
        x, w = _rand(2, 3, 4), _rand(4, 5)
        dy = _rand(2, 3, 5)
        _, cache = F.linear_fwd(x, w)
        dx, _ = F.linear_bwd(dy, cache)

        def loss(xv):
            return float((F.linear_fwd(xv, w)[0] * dy).sum())

        assert_grad_close(dx, numerical_grad(loss, x), name="dx")

    def test_grad_weight(self):
        x, w = _rand(2, 3, 4), _rand(4, 5)
        dy = _rand(2, 3, 5)
        _, cache = F.linear_fwd(x, w)
        _, dw = F.linear_bwd(dy, cache)

        def loss(wv):
            return float((F.linear_fwd(x, wv)[0] * dy).sum())

        assert_grad_close(dw, numerical_grad(loss, w), name="dw")

    def test_decoupled_halves_match_fused(self):
        x, w = _rand(3, 4), _rand(4, 5)
        dy = _rand(3, 5)
        _, cache = F.linear_fwd(x, w)
        dx, dw = F.linear_bwd(dy, cache)
        np.testing.assert_allclose(F.linear_bwd_input(dy, w), dx)
        np.testing.assert_allclose(F.linear_bwd_weight(x, dy), dw)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead,wshape", [
        ((2, 3), (16, 24)),  # 6 tokens, below both weight dims: (w @ dy.T).T
        ((7,), (12, 9)),     # one leading axis, below both
        ((1, 5), (8, 5)),    # 5 tokens, not below out = 5: dy @ w.T
        ((4, 8), (16, 24)),  # 32 tokens: dy @ w.T
    ])
    def test_bwd_input_is_dy_wt_on_both_sides_of_the_thin_token_rule(
            self, lead, wshape, dtype):
        w = _rand(*wshape).astype(dtype)
        dy = _rand(*lead, wshape[1]).astype(dtype)
        dx = F.linear_bwd_input(dy, w)
        assert dx.shape == (*lead, wshape[0]) and dx.dtype == dtype
        thin = int(np.prod(lead)) < min(wshape)
        assert dx.flags.c_contiguous != thin  # the thin branch is a transposed view
        # a GEMM's rounding bound: out * eps * (|dy| @ |w|.T), elementwise
        bound = wshape[1] * np.finfo(dtype).eps * (np.abs(dy) @ np.abs(w).T)
        assert (np.abs(dx - dy @ w.T) <= bound).all()


class TestSilu:
    def test_forward_value(self):
        x = _rand(5)
        y, _ = F.silu_fwd(x)
        np.testing.assert_allclose(y, x / (1 + np.exp(-x)))

    def test_grad(self):
        x = _rand(4, 6)
        dy = _rand(4, 6)
        _, cache = F.silu_fwd(x)
        dx = F.silu_bwd(dy, cache)

        def loss(xv):
            return float((F.silu_fwd(xv)[0] * dy).sum())

        assert_grad_close(dx, numerical_grad(loss, x), name="dx")


class TestSoftmax:
    def test_rows_sum_to_one(self):
        p, _ = F.softmax_fwd(_rand(3, 7))
        np.testing.assert_allclose(p.sum(axis=-1), np.ones(3))

    def test_shift_invariance(self):
        x = _rand(2, 5)
        p1, _ = F.softmax_fwd(x)
        p2, _ = F.softmax_fwd(x + 100.0)
        np.testing.assert_allclose(p1, p2, atol=1e-12)

    def test_grad(self):
        x = _rand(3, 5)
        dy = _rand(3, 5)
        _, cache = F.softmax_fwd(x)
        dx = F.softmax_bwd(dy, cache)

        def loss(xv):
            return float((F.softmax_fwd(xv)[0] * dy).sum())

        assert_grad_close(dx, numerical_grad(loss, x), name="dx")


class TestRMSNorm:
    def test_unit_scale_norm(self):
        x = _rand(4, 8)
        g = np.ones(8)
        y, _ = F.rmsnorm_fwd(x, g, eps=0.0)
        np.testing.assert_allclose(
            np.mean(y**2, axis=-1), np.ones(4), rtol=1e-10
        )

    def test_grad_input(self):
        x, g = _rand(2, 3, 8), _rand(8)
        dy = _rand(2, 3, 8)
        _, cache = F.rmsnorm_fwd(x, g)
        dx, _ = F.rmsnorm_bwd(dy, cache)

        def loss(xv):
            return float((F.rmsnorm_fwd(xv, g)[0] * dy).sum())

        assert_grad_close(dx, numerical_grad(loss, x), name="dx")

    def test_grad_gain(self):
        x, g = _rand(2, 3, 8), _rand(8)
        dy = _rand(2, 3, 8)
        _, cache = F.rmsnorm_fwd(x, g)
        _, dg = F.rmsnorm_bwd(dy, cache)

        def loss(gv):
            return float((F.rmsnorm_fwd(x, gv)[0] * dy).sum())

        assert_grad_close(dg, numerical_grad(loss, g), name="dg")


class TestCrossEntropy:
    def test_uniform_logits_loss(self):
        logits = np.zeros((2, 3, 11))
        targets = RNG.integers(0, 11, size=(2, 3))
        loss, _ = F.cross_entropy_fwd(logits, targets)
        assert loss == pytest.approx(np.log(11))

    def test_perfect_prediction_low_loss(self):
        targets = np.array([[1, 2]])
        logits = np.full((1, 2, 4), -50.0)
        logits[0, 0, 1] = 50.0
        logits[0, 1, 2] = 50.0
        loss, _ = F.cross_entropy_fwd(logits, targets)
        assert loss < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_row_max_is_bitwise_the_two_max_formula(self, dtype):
        """The row max is taken once and reused for the shift and the
        log-sum-exp; loss and cached log-sum-exp must not move a bit."""
        logits = (_rand(3, 64, 256) * 4).astype(dtype)
        targets = RNG.integers(0, 256, size=(3, 64))
        flat = logits.reshape(-1, 256)
        shifted = flat - flat.max(axis=-1, keepdims=True)
        ref_lse = np.log(np.exp(shifted).sum(axis=-1)) + flat.max(axis=-1)
        picked = flat[np.arange(flat.shape[0]), targets.reshape(-1)]
        loss, cache = F.cross_entropy_fwd(logits, targets)
        assert loss == float((ref_lse - picked).mean())
        np.testing.assert_array_equal(cache[2], ref_lse)
        assert cache[2].dtype == dtype

    def test_grad(self):
        logits = _rand(2, 3, 7)
        targets = RNG.integers(0, 7, size=(2, 3))
        _, cache = F.cross_entropy_fwd(logits, targets)
        dlogits = F.cross_entropy_bwd(1.0, cache)

        def loss(lv):
            return F.cross_entropy_fwd(lv, targets)[0]

        assert_grad_close(dlogits, numerical_grad(loss, logits), name="dlogits")

    def test_grad_rows_sum_to_zero(self):
        logits = _rand(4, 9)
        targets = RNG.integers(0, 9, size=(4,))
        _, cache = F.cross_entropy_fwd(logits, targets)
        d = F.cross_entropy_bwd(1.0, cache)
        np.testing.assert_allclose(d.sum(axis=-1), np.zeros(4), atol=1e-12)


class TestEmbedding:
    def test_lookup(self):
        table = _rand(10, 4)
        tokens = np.array([[1, 3], [9, 0]])
        y, _ = F.embedding_fwd(tokens, table)
        np.testing.assert_allclose(y[0, 1], table[3])

    def test_grad_scatter_adds(self):
        table = _rand(6, 3)
        tokens = np.array([2, 2, 5])
        dy = _rand(3, 3)
        _, cache = F.embedding_fwd(tokens, table)
        dt = F.embedding_bwd(dy, cache)
        np.testing.assert_allclose(dt[2], dy[0] + dy[1])
        np.testing.assert_allclose(dt[5], dy[2])
        np.testing.assert_allclose(dt[0], np.zeros(3))
