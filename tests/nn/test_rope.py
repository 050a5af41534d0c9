"""RoPE: a per-position rotation of channel pairs, computed as one complex
multiply whose bits do not depend on the operand's layout."""

import statistics
import tracemalloc
from time import perf_counter

import numpy as np
import pytest

from repro.nn.layer import _to_heads
from repro.nn.rope import rope_angles, rope_apply, rope_apply_bwd

DTYPES = pytest.mark.parametrize("dtype", [np.float32, np.float64])
HEAD_DIMS = pytest.mark.parametrize("head_dim", [2, 8, 32, 64])


def _pairwise(x, cos, sin):
    """The textbook formula, the reference: pair ``(a, b)`` goes to
    ``(a cos - b sin, a sin + b cos)``."""
    a, b = x[..., 0::2], x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = a * cos - b * sin
    out[..., 1::2] = a * sin + b * cos
    return out


def _heads(dtype, head_dim, g=2, n_heads=3, seq=16, seed=0):
    """A ``(G, n_heads, S, head_dim)`` operand as the layer builds it: a
    strided ``_to_heads`` view of a ``(G, S, H)`` projection, and the
    matching angle tables."""
    x = np.random.default_rng(seed).standard_normal(
        (g, seq, n_heads * head_dim)).astype(dtype)
    cos, sin = rope_angles(seq, head_dim, dtype=dtype)
    return _to_heads(x, n_heads), cos, sin


def _pair_norms(x):
    return np.hypot(x[..., 0::2], x[..., 1::2])


def _eps(dtype):
    return float(np.finfo(dtype).eps)


# -- it is a rotation --------------------------------------------------------


@DTYPES
@HEAD_DIMS
def test_pair_norms_are_preserved(dtype, head_dim):
    x, cos, sin = _heads(dtype, head_dim)
    before, after = _pair_norms(x), _pair_norms(rope_apply(x, cos, sin))
    assert np.all(np.abs(after - before) <= 4 * _eps(dtype) * before)


@DTYPES
@HEAD_DIMS
def test_backward_undoes_the_forward(dtype, head_dim):
    x, cos, sin = _heads(dtype, head_dim)
    back = rope_apply_bwd(rope_apply(x, cos, sin), cos, sin)
    assert np.all(np.abs(back - x) <= 8 * _eps(dtype) * _pair_norms(x).max())


@DTYPES
@HEAD_DIMS
def test_backward_is_the_adjoint(dtype, head_dim):
    """``<R x, y> == <x, R^T y>``: the backward of a linear map is its
    transpose, whatever the inverse."""
    x, cos, sin = _heads(dtype, head_dim, seed=1)
    y, _, _ = _heads(dtype, head_dim, seed=2)

    def dot(a, b):  # accumulated in fp64: only RoPE's rounding is under test
        return float(np.dot(a.astype(np.float64).ravel(),
                            b.astype(np.float64).ravel()))

    lhs = dot(rope_apply(x, cos, sin), y)
    rhs = dot(x, rope_apply_bwd(y, cos, sin))
    assert abs(lhs - rhs) <= 16 * _eps(dtype) * np.sqrt(dot(x, x) * dot(y, y))


@DTYPES
@HEAD_DIMS
def test_matches_the_pairwise_formula(dtype, head_dim):
    """Within ``4 eps`` of each pair's norm: the complex multiply may fuse
    its multiply-add where the pairwise formula rounds each product."""
    x, cos, sin = _heads(dtype, head_dim)
    tol = 4 * _eps(dtype) * np.repeat(_pair_norms(x), 2, axis=-1)
    assert np.all(np.abs(rope_apply(x, cos, sin) - _pairwise(x, cos, sin)) <= tol)
    dy = np.ascontiguousarray(x)
    assert np.all(
        np.abs(rope_apply_bwd(dy, cos, sin) - _pairwise(dy, cos, -sin)) <= tol)


# -- dtype and layout of the result --------------------------------------------


def test_fp32_runs_without_wide_temporaries():
    """fp32 in, fp32 out, and the only scratch is the complex64 turn table
    (plus ``-sin`` in the backward) and the ufunc iterator's buffers for
    the broadcast table, at most 8192 elements per operand: an fp64 copy
    of the operand, or a complex128 table and buffers, break the bound."""
    x, cos, sin = _heads(np.float32, 32, g=2, n_heads=4, seq=1024)
    dy = np.ascontiguousarray(x)
    pair = np.dtype(np.complex64).itemsize
    scratch = cos.size * pair + 2 * 8192 * pair + 4096
    for fn, arg, more in ((rope_apply, x, 0), (rope_apply_bwd, dy, sin.nbytes)):
        tracemalloc.start()
        try:
            out = fn(arg, cos, sin)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.dtype == np.float32
        assert peak <= out.nbytes + scratch + more, (fn.__name__, peak)


@DTYPES
def test_result_is_head_major(dtype):
    x, cos, sin = _heads(dtype, 8)
    assert not x.flags.c_contiguous  # the layer's strided view
    for out in (rope_apply(x, cos, sin), rope_apply_bwd(x, cos, sin)):
        assert out.flags.c_contiguous and out.shape == x.shape


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@DTYPES
@HEAD_DIMS
@pytest.mark.parametrize("fn", [rope_apply, rope_apply_bwd])
def test_output_bytes_do_not_depend_on_layout(fn, dtype, head_dim):
    """Every way a strategy hands RoPE its operand rotates to the same
    bytes as the full contiguous call: the layer's strided view, a
    contiguous copy, SP's sequence slices with their slice of the tables,
    TP's head slices, and a last axis that is not stride-1."""
    x, cos, sin = _heads(dtype, head_dim, seq=24)
    full = fn(x, cos, sin)
    assert _same_bytes(fn(np.ascontiguousarray(x), cos, sin), full)
    for s0, s1 in ((0, 8), (8, 24), (5, 13)):
        part = fn(x[..., s0:s1, :], cos[s0:s1], sin[s0:s1])
        assert _same_bytes(part, np.ascontiguousarray(full[..., s0:s1, :]))
    for h0, h1 in ((0, 1), (1, 3)):
        part = fn(x[:, h0:h1], cos, sin)
        assert _same_bytes(part, np.ascontiguousarray(full[:, h0:h1]))
    for b in range(x.shape[0]):
        assert _same_bytes(fn(x[b], cos, sin), np.ascontiguousarray(full[b]))
    wide = np.zeros(x.shape[:-1] + (2 * head_dim,), dtype)
    wide[..., ::2] = x
    strided = wide[..., ::2]
    assert strided.strides[-1] != strided.itemsize
    assert _same_bytes(fn(strided, cos, sin), full)


# -- cost (timing tier) -----------------------------------------------------------


@pytest.mark.timing
def test_rope_costs_well_under_the_pairwise_formula():
    """At the long-context head shape ``(1, 2, 1024, 32)`` fp32, forward
    on the layer's strided view plus backward on a head-major gradient.
    Each timing is read against a matmul burst taken just before it (a
    slow moment of the box slows both), median of k."""
    seq, n_heads, head_dim = 1024, 2, 32
    rng = np.random.default_rng(3)
    q = rng.standard_normal((1, seq, n_heads * head_dim)).astype(np.float32)
    dq = rng.standard_normal((1, n_heads, seq, head_dim)).astype(np.float32)
    cos, sin = rope_angles(seq, head_dim, dtype=np.float32)
    a = rng.standard_normal((512, 512)).astype(np.float32)
    out = np.empty_like(a)

    def scaled(fn):
        """Seconds of 20 ``fn`` calls times the burst's matmuls per second."""
        t0, n = perf_counter(), 0
        while perf_counter() - t0 < 0.02:
            np.matmul(a, a, out=out)
            n += 1
        rate = n / (perf_counter() - t0)
        t0 = perf_counter()
        for _ in range(20):
            fn()
        return (perf_counter() - t0) * rate

    def complex_pass():
        rope_apply(_to_heads(q, n_heads), cos, sin)
        rope_apply_bwd(dq, cos, sin)

    def pairwise_pass():
        _pairwise(_to_heads(q, n_heads), cos, sin)
        _pairwise(dq, cos, -sin)

    ours, ref = [], []
    for _ in range(9):
        ours.append(scaled(complex_pass))
        ref.append(scaled(pairwise_pass))
    assert statistics.median(ours) < 0.5 * statistics.median(ref)
