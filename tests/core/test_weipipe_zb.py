"""Functional WeiPipe-zero-bubble: the paper's §4.3 concept, implemented.

The paper describes WZB1/WZB2 but leaves implementation "for future
exploration".  ``weipipe-zb`` realises the idea on the functional
runtime: B passes on the critical path, W passes deferred one full ring
revolution to when the slot's gradient accumulator next passes through.
These tests pin down both the schedule algebra and the numerics.
"""

import numpy as np
import pytest

from repro import FP64, AdamW, ModelConfig, TrainSpec, train
from repro.core.schedule import (
    bwd_slot_held,
    interleave_schedule,
    zero_bubble_schedule,
)
from repro.testing import compare_train_results

CFG = ModelConfig(hidden=16, n_layers=4, n_heads=2, seq_len=8, vocab=29)


def _spec(**kw):
    base = dict(cfg=CFG, n_microbatches=8, microbatch_size=2, iters=2, precision=FP64)
    base.update(kw)
    return TrainSpec(**base)


class TestZeroBubbleSchedule:
    @pytest.mark.parametrize("world,n_mb", [(1, 2), (2, 4), (4, 8), (4, 16)])
    def test_every_b_gets_exactly_one_w(self, world, n_mb):
        total, fn = zero_bubble_schedule(world, n_mb)
        bs, ws = set(), set()
        for p in range(world):
            for t in range(total):
                task = fn(p, t)
                if task.bwd:
                    assert task.bwd not in bs
                    bs.add(task.bwd)
                if task.wpass:
                    assert task.wpass not in ws
                    ws.add(task.wpass)
        assert bs == ws
        assert len(bs) == n_mb * world  # every (slot, mb) pair

    @pytest.mark.parametrize("world,n_mb", [(2, 4), (4, 8)])
    def test_w_exactly_one_revolution_after_b(self, world, n_mb):
        total, fn = zero_bubble_schedule(world, n_mb)
        b_turn, w_turn = {}, {}
        for p in range(world):
            for t in range(total):
                task = fn(p, t)
                if task.bwd:
                    b_turn[task.bwd] = (p, t)
                if task.wpass:
                    w_turn[task.wpass] = (p, t)
        for key, (pb, tb) in b_turn.items():
            pw, tw = w_turn[key]
            assert pw == pb  # W pass on the same worker
            assert tw == tb + world  # exactly one ring revolution later

    def test_wpass_slot_alignment(self):
        """The deferred W pass must coincide with its slot's D arrival."""
        world, n_mb = 4, 8
        total, fn = zero_bubble_schedule(world, n_mb)
        for p in range(world):
            for t in range(total):
                task = fn(p, t)
                if task.wpass:
                    assert task.wpass[0] == bwd_slot_held(p, t, world)

    def test_one_extra_revolution(self):
        world, n_mb = 4, 8
        t_inter, _ = interleave_schedule(world, n_mb)
        t_zb, _ = zero_bubble_schedule(world, n_mb)
        assert t_zb == t_inter + world


class TestZeroBubbleNumerics:
    def test_matches_serial(self):
        ref = train(_spec(), "serial", 1)
        got = train(_spec(), "weipipe-zb", 4)
        np.testing.assert_allclose(got.losses, ref.losses, rtol=1e-9)
        for a, b in zip(got.chunks, ref.chunks):
            assert a.max_abs_diff(b) < 1e-9

    def test_matches_interleave_exactly(self):
        """Same arithmetic, different pass ordering: decoupled B+W must
        reproduce the fused backward bit-for-bit."""
        inter = train(_spec(), "weipipe-interleave", 4)
        zb = train(_spec(), "weipipe-zb", 4)
        diff = compare_train_results(zb, inter, tol=0)
        assert diff is None, diff

    def test_with_adamw(self):
        mk = lambda: AdamW(lr=1e-2, weight_decay=0.01)
        ref = train(_spec(make_optimizer=mk, iters=3), "serial", 1)
        got = train(_spec(make_optimizer=mk, iters=3), "weipipe-zb", 4)
        np.testing.assert_allclose(got.losses, ref.losses, rtol=1e-8)

    def test_with_recompute(self):
        """Unlike classical ZB, the ring variant tolerates recomputation
        (bwd_input rebuilds and returns the cache for the W pass) —
        pointless for memory but numerically sound."""
        ref = train(_spec(recompute=True), "serial", 1)
        got = train(_spec(recompute=True), "weipipe-zb", 4)
        np.testing.assert_allclose(got.losses, ref.losses, rtol=1e-9)

    def test_two_layers_per_slot(self):
        cfg = CFG.with_(n_layers=8)
        spec = _spec(cfg=cfg, n_microbatches=4, iters=1)
        ref = train(spec, "serial", 1)
        got = train(spec, "weipipe-zb", 4)
        np.testing.assert_allclose(got.losses, ref.losses, rtol=1e-9)


class TestZeroBubbleLiveness:
    def test_pending_w_bounded_by_one_model(self):
        """At most one full model's worth of chunks awaits W passes —
        the ~1.5x activation liveness the paper predicts for WZB1."""
        got = train(_spec(n_microbatches=16), "weipipe-zb", 4)
        for rank, peak in got.extra["peak_pending_w"].items():
            assert peak <= CFG.n_layers + CFG.n_layers // 4

    def test_interleave_has_no_pending_w(self):
        got = train(_spec(), "weipipe-interleave", 4)
        assert all(v == 0 for v in got.extra["peak_pending_w"].values())
