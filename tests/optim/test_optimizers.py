"""Optimizer behaviour: convergence on quadratics, reference formulas."""

import numpy as np
import pytest

from repro.nn.params import ParamStruct
from repro.nn.precision import MIXED
from repro.optim import SGD, Adam, AdamW, MasterWeightOptimizer


def _quadratic_params():
    return ParamStruct({"x": np.array([3.0, -2.0]), "y": np.array([[1.5]])})


def _quadratic_grads(p):
    # f = 0.5 * ||params||^2 -> grad = params
    return ParamStruct({k: v.copy() for k, v in p.items()})


class TestSGD:
    def test_plain_step_formula(self):
        p = _quadratic_params()
        opt = SGD(lr=0.1)
        st = opt.init_state(p)
        opt.step(p, _quadratic_grads(p), st)
        np.testing.assert_allclose(p["x"], np.array([3.0, -2.0]) * 0.9)

    def test_momentum_accumulates(self):
        p = ParamStruct({"x": np.zeros(1)})
        g = ParamStruct({"x": np.ones(1)})
        opt = SGD(lr=1.0, momentum=0.9)
        st = opt.init_state(p)
        opt.step(p, g, st)  # v=1, x=-1
        opt.step(p, g, st)  # v=1.9, x=-2.9
        np.testing.assert_allclose(p["x"], [-2.9])

    def test_weight_decay(self):
        p = ParamStruct({"x": np.array([2.0])})
        g = ParamStruct({"x": np.array([0.0])})
        opt = SGD(lr=0.5, weight_decay=0.1)
        st = opt.init_state(p)
        opt.step(p, g, st)
        np.testing.assert_allclose(p["x"], [2.0 - 0.5 * 0.1 * 2.0])

    def test_converges_on_quadratic(self):
        p = _quadratic_params()
        opt = SGD(lr=0.3)
        st = opt.init_state(p)
        for _ in range(50):
            opt.step(p, _quadratic_grads(p), st)
        assert np.abs(p["x"]).max() < 1e-6

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            SGD(lr=0.0)


class TestAdam:
    def test_first_step_size_is_lr(self):
        """With bias correction, |first update| == lr for any grad scale."""
        for scale in (1e-4, 1.0, 1e4):
            p = ParamStruct({"x": np.array([0.0])})
            g = ParamStruct({"x": np.array([scale])})
            opt = Adam(lr=0.01)
            st = opt.init_state(p)
            opt.step(p, g, st)
            # eps shifts the ratio slightly for tiny grads
            assert p["x"][0] == pytest.approx(-0.01, rel=2e-4)

    def test_matches_reference_two_steps(self):
        """Hand-computed Adam trajectory."""
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        p = ParamStruct({"x": np.array([1.0])})
        opt = Adam(lr=lr, betas=(b1, b2), eps=eps)
        st = opt.init_state(p)

        x, m, v = 1.0, 0.0, 0.0
        for t in (1, 2):
            g = x  # grad of 0.5 x^2
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1**t)
            vhat = v / (1 - b2**t)
            x = x - lr * mhat / (np.sqrt(vhat) + eps)
            gp = ParamStruct({"x": p["x"].copy()})
            opt.step(p, gp, st)
            assert p["x"][0] == pytest.approx(x, rel=1e-12)

    def test_converges_on_quadratic(self):
        p = _quadratic_params()
        opt = Adam(lr=0.1)
        st = opt.init_state(p)
        for _ in range(300):
            opt.step(p, _quadratic_grads(p), st)
        assert np.abs(p["x"]).max() < 1e-3


def _textbook_adam_step(opt, params, grads, state):
    """The update as it is usually written — one temporary per operation.
    ``Adam.step`` runs these operations in this order over two scratch
    arrays and must agree with it bit for bit."""
    state["t"] += 1
    t = state["t"]
    bc1 = 1.0 - opt.beta1**t
    bc2 = 1.0 - opt.beta2**t
    for name in params.keys():
        g = grads[name]
        if opt.weight_decay and opt._decay_into_grad():
            g = g + opt.weight_decay * params[name]
        m = state["m"][name]
        v = state["v"][name]
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * np.square(g)
        update = (m / bc1) / (np.sqrt(v / bc2) + opt.eps)
        if opt.weight_decay and not opt._decay_into_grad():
            update = update + opt.weight_decay * params[name]
        params[name] -= opt.lr * update


class TestAdamScratchIsBitIdentical:
    """weight decay off / L2 (Adam) / decoupled (AdamW), ``t = 1`` and
    ``t > 1``, fp32 and fp64 — and fp64 grads onto an fp32 master copy,
    which is what ``MasterWeightOptimizer`` hands the inner Adam."""

    @pytest.mark.parametrize(
        "p_dtype,g_dtype",
        [(np.float32, np.float32), (np.float64, np.float64),
         (np.float32, np.float64)],
        ids=["fp32", "fp64", "fp32-master-fp64-grads"],
    )
    @pytest.mark.parametrize(
        "make",
        [lambda: Adam(lr=1e-3), lambda: Adam(lr=1e-3, weight_decay=0.01),
         lambda: AdamW(lr=1e-3, weight_decay=0.01)],
        ids=["no-decay", "l2", "decoupled"],
    )
    def test_matches_textbook_lines(self, make, p_dtype, g_dtype):
        rng = np.random.default_rng(11)
        start = ParamStruct({
            "w": rng.normal(size=(37, 19)).astype(p_dtype),
            "gain": np.ones(19, dtype=p_dtype),
        })
        ours, ref = start.clone(), start.clone()
        opt, opt_ref = make(), make()
        st, st_ref = opt.init_state(ours), opt_ref.init_state(ref)
        for t in (1, 2, 3):
            # wide magnitude range so the rounding of every step matters
            g = ParamStruct({
                k: (rng.normal(size=v.shape) * 10.0 ** rng.integers(-4, 3))
                .astype(g_dtype)
                for k, v in start.items()
            })
            g_before = g.clone()
            opt.step(ours, g, st)
            _textbook_adam_step(opt_ref, ref, g, st_ref)
            assert st["t"] == st_ref["t"] == t
            for k in start.keys():
                assert ours[k].dtype == np.dtype(p_dtype)
                assert np.array_equal(ours[k], ref[k]), (t, k)
                assert np.array_equal(st["m"][k], st_ref["m"][k]), (t, k)
                assert np.array_equal(st["v"][k], st_ref["v"][k]), (t, k)
                # the gradient is the caller's: never scratch
                assert np.array_equal(g[k], g_before[k])

    @pytest.mark.parametrize(
        "make",
        [lambda: Adam(lr=1e-3, weight_decay=0.01),
         lambda: AdamW(lr=1e-3, weight_decay=0.01)],
        ids=["l2", "decoupled"],
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_block_tails_and_odd_shapes(self, make, dtype):
        """``step`` walks the flattened tensors in blocks: a tensor that
        ends mid-block, one that spans several, a scalar, an empty one and
        one whose memory is not contiguous all take the textbook values."""
        from repro.optim.optimizer import _BLOCK

        rng = np.random.default_rng(12)
        start = ParamStruct({
            "spans": rng.normal(size=(3, _BLOCK - 5)).astype(dtype),
            "tail": rng.normal(size=_BLOCK + 77).astype(dtype),
            "scalar": np.array(0.5, dtype=dtype),
            "empty": np.zeros((0, 4), dtype=dtype),
            "strided": rng.normal(size=(23, 41)).astype(dtype),
        })

        def clone():
            c = start.clone()
            # same values, column-major memory: no flat view exists
            c["strided"] = np.asfortranarray(c["strided"])
            assert not c["strided"].flags.c_contiguous
            return c

        ours, ref = clone(), clone()
        opt, opt_ref = make(), make()
        st, st_ref = opt.init_state(ours), opt_ref.init_state(ref)
        for t in (1, 2, 3):
            g = ParamStruct({
                k: (rng.normal(size=v.shape) * 10.0 ** rng.integers(-4, 3))
                .astype(dtype)
                for k, v in start.items()
            })
            opt.step(ours, g, st)
            _textbook_adam_step(opt_ref, ref, g, st_ref)
            for k in start.keys():
                assert ours[k].shape == start[k].shape
                assert np.array_equal(ours[k], ref[k]), (t, k)
                assert np.array_equal(st["m"][k], st_ref["m"][k]), (t, k)
                assert np.array_equal(st["v"][k], st_ref["v"][k]), (t, k)
        assert not np.array_equal(ours["scalar"], start["scalar"])


class TestAdamW:
    def test_decay_is_decoupled(self):
        """AdamW decay must not pass through the moment estimates."""
        p = ParamStruct({"x": np.array([10.0])})
        g = ParamStruct({"x": np.array([0.0])})
        opt = AdamW(lr=0.1, weight_decay=0.1)
        st = opt.init_state(p)
        opt.step(p, g, st)
        # zero grad -> moments stay zero; only decay applies: x -= lr*wd*x
        assert p["x"][0] == pytest.approx(10.0 - 0.1 * 0.1 * 10.0)
        assert st["m"]["x"][0] == 0.0

    def test_adam_vs_adamw_differ_with_decay(self):
        pa = ParamStruct({"x": np.array([5.0])})
        pw = ParamStruct({"x": np.array([5.0])})
        g = ParamStruct({"x": np.array([1.0])})
        a, w = Adam(lr=0.1, weight_decay=0.5), AdamW(lr=0.1, weight_decay=0.5)
        sa, sw = a.init_state(pa), w.init_state(pw)
        a.step(pa, g, sa)
        w.step(pw, g, sw)
        assert pa["x"][0] != pytest.approx(pw["x"][0])


class TestMasterWeights:
    def test_tiny_updates_survive_fp16_storage(self):
        """1000 updates of 1e-4 on a weight of 1.0: fp16-only storage
        stalls (1e-4 < fp16 ulp at 1.0 after rounding), master weights
        accumulate them all."""
        p = ParamStruct({"x": np.array([1.0])})
        p["x"][...] = MIXED.q_weight(p["x"])
        opt = MasterWeightOptimizer(SGD(lr=1.0), MIXED)
        st = opt.init_state(p)
        g = ParamStruct({"x": np.array([1e-4])})
        for _ in range(1000):
            opt.step(p, g, st)
        # master accumulated 0.1; stored weight is the quantised master
        # fp32 master: 1000-term accumulation keeps ~1e-4 relative accuracy
        assert st["master"]["x"][0] == pytest.approx(1.0 - 0.1, rel=1e-4)
        assert p["x"][0] == pytest.approx(0.9, rel=1e-3)

    def test_naive_fp16_stalls(self):
        """Counterpoint: without master weights the same schedule stalls."""
        x = MIXED.q_weight(np.array([1.0]))
        for _ in range(1000):
            x = MIXED.q_weight(x - 1e-4 * np.array([1.0]) * 0)  # no-op guard
        x2 = MIXED.q_weight(np.array([1.0]))
        for _ in range(10):
            x2 = MIXED.q_weight(x2 - np.array([2e-5]))
        # 2e-5 is below half the fp16 ulp at 1.0 (~4.9e-4): nothing moves
        assert x2[0] == 1.0

    def test_params_stay_quantised(self):
        rng = np.random.default_rng(0)
        p = ParamStruct({"w": rng.normal(size=16)})
        p["w"][...] = MIXED.q_weight(p["w"])
        opt = MasterWeightOptimizer(AdamW(lr=0.01), MIXED)
        st = opt.init_state(p)
        opt.step(p, ParamStruct({"w": rng.normal(size=16)}), st)
        np.testing.assert_array_equal(p["w"], MIXED.q_weight(p["w"]))
