"""ParamStruct: the chunk currency every strategy trades in."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.params import BufferPool, ParamStruct


def _struct(shapes, rng=None):
    rng = rng or np.random.default_rng(0)
    return ParamStruct(
        {f"p{i}": rng.normal(size=s) for i, s in enumerate(shapes)}
    )


class TestMapping:
    def test_insertion_order_preserved(self):
        p = ParamStruct({"b": np.zeros(1), "a": np.zeros(2)})
        assert p.keys() == ["b", "a"]

    def test_contains_len_iter(self):
        p = _struct([(2,), (3, 4)])
        assert "p0" in p and "zz" not in p
        assert len(p) == 2
        assert list(p) == ["p0", "p1"]

    def test_numel(self):
        assert _struct([(2,), (3, 4)]).numel == 14

    def test_nbytes_logical(self):
        assert _struct([(8,)]).nbytes(2) == 16


class TestArithmetic:
    def test_add_scaled(self):
        a = ParamStruct({"x": np.ones(3)})
        b = ParamStruct({"x": np.full(3, 2.0)})
        a.add_(b, scale=0.5)
        np.testing.assert_array_equal(a["x"], np.full(3, 2.0))

    @pytest.mark.parametrize("arena", [False, True], ids=["per-key", "arena"])
    def test_add_unscaled_equals_scale_one(self, arena):
        """``scale == 1.0`` skips the product on both paths — same values."""
        rng = np.random.default_rng(0)
        make = lambda: ParamStruct({  # noqa: E731
            "x": rng.normal(size=(5, 3)).astype(np.float32),
            "y": rng.normal(size=4).astype(np.float32),
        })
        a, b = make(), make()
        if arena:
            a, b = a.to_arena(), b.to_arena()
        want = {k: a[k] + np.float32(1.0) * b[k] for k in a.keys()}
        b_before = b.clone()
        a.add_(b)
        for k in a.keys():
            assert np.array_equal(a[k], want[k])
            assert np.array_equal(b[k], b_before[k])

    def test_add_key_mismatch(self):
        a = ParamStruct({"x": np.ones(3)})
        b = ParamStruct({"y": np.ones(3)})
        with pytest.raises(KeyError):
            a.add_(b)

    def test_zero_and_scale(self):
        a = _struct([(4,)])
        a.scale_(0.0)
        np.testing.assert_array_equal(a["p0"], np.zeros(4))
        b = _struct([(4,)])
        b.zero_()
        np.testing.assert_array_equal(b["p0"], np.zeros(4))

    def test_clone_is_deep(self):
        a = _struct([(3,)])
        b = a.clone()
        b["p0"][0] = 999.0
        assert a["p0"][0] != 999.0


class TestPacking:
    def test_round_trip(self):
        a = _struct([(2, 3), (5,), (1, 1, 4)])
        flat = a.pack(dtype=np.float64)
        b = a.unpack_from(flat)
        assert a.allclose(b, rtol=0, atol=0)

    def test_pack_order_is_key_order(self):
        a = ParamStruct({"x": np.array([1.0, 2.0]), "y": np.array([3.0])})
        np.testing.assert_array_equal(a.pack(np.float64), [1.0, 2.0, 3.0])

    def test_unpack_size_mismatch(self):
        a = _struct([(4,)])
        with pytest.raises(ValueError):
            a.unpack_from(np.zeros(5))

    def test_empty_struct(self):
        e = ParamStruct()
        assert e.numel == 0
        assert e.pack().size == 0

    @given(
        shapes=st.lists(
            st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=5
        ),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_pack_unpack_identity(self, shapes, seed):
        a = _struct(shapes, np.random.default_rng(seed))
        b = a.unpack_from(a.pack(np.float64))
        assert a.max_abs_diff(b) == 0.0

    @given(
        n=st.integers(1, 30),
        scale=st.floats(-5, 5, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_add_scale_linear(self, n, scale):
        rng = np.random.default_rng(n)
        a = ParamStruct({"x": rng.normal(size=n)})
        b = ParamStruct({"x": rng.normal(size=n)})
        expected = a["x"] + scale * b["x"]
        a.add_(b, scale=scale)
        np.testing.assert_allclose(a["x"], expected, rtol=1e-12)


class TestComparison:
    def test_allclose_structure_mismatch(self):
        a = ParamStruct({"x": np.ones(2)})
        b = ParamStruct({"y": np.ones(2)})
        assert not a.allclose(b)

    def test_max_abs_diff(self):
        a = ParamStruct({"x": np.array([1.0, 2.0])})
        b = ParamStruct({"x": np.array([1.5, 2.0])})
        assert a.max_abs_diff(b) == 0.5

    def test_max_abs_diff_mismatch_raises(self):
        with pytest.raises(KeyError):
            ParamStruct({"x": np.ones(1)}).max_abs_diff(ParamStruct({"y": np.ones(1)}))


class TestArena:
    def test_to_arena_views_one_buffer(self):
        p = _struct([(2, 3), (4,), (2, 2)]).to_arena()
        arena = p.arena
        assert arena is not None and arena.ndim == 1
        assert arena.size == p.numel
        for v in p.values():
            assert v.base is arena or v.base is arena.base
        # mutating a view mutates the arena (and vice versa)
        p["p0"][...] = 7.0
        assert np.all(arena[:6] == 7.0)

    def test_to_arena_preserves_values_and_layout(self):
        a = _struct([(3, 2), (5,)])
        b = a.to_arena()
        assert a.keys() == b.keys()
        assert a.max_abs_diff(b) == 0.0
        assert b.common_dtype == np.float64

    def test_to_arena_rejects_mixed_dtypes(self):
        p = ParamStruct({
            "a": np.zeros(2, dtype=np.float64),
            "b": np.zeros(2, dtype=np.float32),
        })
        with pytest.raises(TypeError):
            p.to_arena()

    def test_clone_into_pool_falls_back_for_mixed_dtypes(self):
        pool = BufferPool()
        mixed = ParamStruct({
            "a": np.ones(2, dtype=np.float64),
            "b": np.ones(2, dtype=np.float32),
        })
        c = mixed.clone(pool)
        assert c.arena is None and pool.allocations == 0
        assert c["b"].dtype == np.float32 and c["b"] is not mixed["b"]
        uniform = _struct([(2, 2), (3,)]).clone(pool)
        assert uniform.arena is not None and pool.allocations == 1

    def test_pack_is_zero_copy_for_arena_struct(self):
        p = _struct([(2, 2), (3,)]).to_arena()
        flat = p.pack(np.float64)
        assert flat is p.arena  # the arena itself, no concatenate

    def test_unpack_from_is_zero_copy_on_contiguous_flat(self):
        p = _struct([(2, 2), (3,)])
        flat = p.pack(np.float64)
        q = p.unpack_from(flat)
        assert q.arena is not None
        for v in q.values():
            assert v.base is flat or v.base is flat.base
        assert p.max_abs_diff(q) == 0.0

    def test_pack_into_fills_caller_buffer(self):
        p = _struct([(2, 2), (3,)])
        out = np.empty(p.numel, dtype=np.float64)
        got = p.pack_into(out)
        assert got is out
        np.testing.assert_array_equal(out, p.pack(np.float64))
        arena_p = p.to_arena()
        out2 = np.empty(p.numel, dtype=np.float64)
        np.testing.assert_array_equal(arena_p.pack_into(out2), out)

    def test_setitem_rebinding_detaches_arena(self):
        p = _struct([(2,), (3,)]).to_arena()
        p["p0"] = np.ones(2)
        assert p.arena is None  # rebound array no longer lives in the arena
        assert np.all(p["p0"] == 1.0)

    def test_setitem_same_object_keeps_arena(self):
        """Augmented in-place assignment (params[k] -= x) must not detach."""
        p = _struct([(2,), (3,)]).to_arena()
        p["p0"] -= 0.5  # __setitem__ with the identical array object
        assert p.arena is not None

    def test_arena_fast_ops_match_legacy(self):
        rng = np.random.default_rng(1)
        a_legacy = _struct([(3, 2), (4,)], np.random.default_rng(2))
        b_legacy = _struct([(3, 2), (4,)], np.random.default_rng(3))
        a_arena = a_legacy.clone().to_arena()
        b_arena = b_legacy.clone().to_arena()
        a_legacy.add_(b_legacy, scale=0.25)
        a_arena.add_(b_arena, scale=0.25)
        assert a_legacy.max_abs_diff(a_arena) == 0.0
        a_legacy.scale_(0.5)
        a_arena.scale_(0.5)
        assert a_legacy.max_abs_diff(a_arena) == 0.0
        a_legacy.zero_()
        a_arena.zero_()
        assert a_legacy.max_abs_diff(a_arena) == 0.0

    def test_clone_of_arena_struct_is_deep_and_arena_backed(self):
        p = _struct([(2, 2)]).to_arena()
        q = p.clone()
        assert q.arena is not None and q.arena is not p.arena
        q["p0"][...] = 9.0
        assert p.max_abs_diff(q) != 0.0


class TestBufferPool:
    def test_acquire_release_reuses_buffers(self):
        from repro.nn.params import BufferPool

        pool = BufferPool()
        a = pool.acquire(8, np.float64)
        assert pool.misses == 1 and pool.hits == 0
        pool.release(a)
        b = pool.acquire(8, np.float64)
        assert np.shares_memory(a, b)  # recycled storage
        assert pool.hits == 1 and pool.allocations == 1

    def test_acquire_matches_size_and_dtype(self):
        from repro.nn.params import BufferPool

        pool = BufferPool()
        a = pool.acquire(8, np.float64)
        pool.release(a)
        # different numel or dtype must not reuse the freed buffer
        b = pool.acquire(4, np.float64)
        c = pool.acquire(8, np.float32)
        assert pool.misses == 3 and pool.hits == 0
        assert b.size == 4 and c.dtype == np.float32

    def test_stats_dict(self):
        from repro.nn.params import BufferPool

        pool = BufferPool()
        pool.release(pool.acquire(4, np.float64))
        d = pool.as_dict()
        assert d["allocations"] == 1
        assert d["releases"] == 1
        assert d["free_buffers"] == 1
        assert d["bytes_allocated"] == 32

    def test_to_arena_and_zeros_like_draw_from_pool(self):
        from repro.nn.params import BufferPool

        pool = BufferPool()
        p = _struct([(2, 3)]).to_arena(pool)
        assert pool.allocations == 1
        z = p.zeros_like(pool)
        assert pool.allocations == 2
        assert z.arena is not None and float(z.arena.sum()) == 0.0
        pool.release(p.arena)
        pool.release(z.arena)
        q = _struct([(2, 3)]).to_arena(pool)
        assert pool.allocations == 2 and pool.hits == 1
        assert q.arena is not None
