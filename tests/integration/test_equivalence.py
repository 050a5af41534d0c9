"""The reproduction's experiment zero: every strategy == serial baseline.

The paper gets numerical correctness for free from PyTorch autograd +
NCCL; our from-scratch substrate must *prove* it.  Each test trains the
identical problem with a distributed strategy and asserts the loss
trajectory and final weights match the single-worker reference.
"""

import numpy as np
import pytest

from repro import FP64, MIXED, Adam, AdamW, MasterWeightOptimizer, ModelConfig, TrainSpec, train

CFG = ModelConfig(hidden=16, n_layers=4, n_heads=2, seq_len=8, vocab=29)

DISTRIBUTED = [
    ("dp", 4),
    ("fsdp", 4),
    ("gpipe", 4),
    ("1f1b", 4),
    ("zb1", 4),
    ("zb2", 4),
    ("weipipe-naive", 4),
    ("weipipe-interleave", 4),
    ("weipipe-zb", 4),
    ("tp", 2),
    ("sp", 4),
]


def _spec(**kw):
    base = dict(
        cfg=CFG, n_microbatches=8, microbatch_size=2, iters=2, precision=FP64
    )
    base.update(kw)
    return TrainSpec(**base)


def assert_matches(result, ref, rtol=1e-9, atol=1e-11):
    np.testing.assert_allclose(result.losses, ref.losses, rtol=rtol, atol=atol)
    assert len(result.chunks) == len(ref.chunks)
    for i, (a, b) in enumerate(zip(result.chunks, ref.chunks)):
        assert a.keys() == b.keys(), f"chunk {i} structure"
        for name in a.keys():
            np.testing.assert_allclose(
                a[name], b[name], rtol=rtol, atol=atol,
                err_msg=f"chunk {i} param {name}",
            )


class TestEquivalenceFP64:
    """Exact-precision policy: agreement to accumulation-order noise."""

    @pytest.fixture(scope="class")
    def ref(self):
        return train(_spec(), "serial", 1)

    @pytest.mark.parametrize("strategy,world", DISTRIBUTED)
    def test_matches_serial(self, ref, strategy, world):
        assert_matches(train(_spec(), strategy, world), ref)

    @pytest.mark.parametrize("strategy,world", [("weipipe-interleave", 2), ("weipipe-interleave", 4)])
    def test_world_size_invariance(self, ref, strategy, world):
        assert_matches(train(_spec(), strategy, world), ref)


class TestEquivalenceWithRecompute:
    """Recomputation must be invisible (strategies that support it)."""

    @pytest.mark.parametrize(
        "strategy,world",
        [("dp", 2), ("fsdp", 4), ("1f1b", 4), ("gpipe", 2), ("zb1", 4),
         ("zb2", 4), ("weipipe-naive", 4), ("weipipe-interleave", 4),
         ("weipipe-zb", 4)],
    )
    def test_matches_serial(self, strategy, world):
        ref = train(_spec(recompute=True), "serial", 1)
        assert_matches(train(_spec(recompute=True), strategy, world), ref)

    def test_recompute_equals_no_recompute(self):
        a = train(_spec(recompute=False), "weipipe-interleave", 4)
        b = train(_spec(recompute=True), "weipipe-interleave", 4)
        assert_matches(a, b, rtol=0, atol=0)


class TestEquivalenceFlashAttention:
    """Streaming attention must not change any strategy's numbers."""

    @pytest.mark.parametrize("strategy,world", [("weipipe-interleave", 4), ("1f1b", 4)])
    def test_matches_serial(self, strategy, world):
        cfg = CFG.with_(flash_attention=True, flash_block=4)
        ref = train(_spec(cfg=cfg), "serial", 1)
        assert_matches(train(_spec(cfg=cfg), strategy, world), ref)


class TestEquivalenceAdam:
    """Stateful optimizers: state sharding must not change results.

    FSDP runs Adam on flat shards, WeiPipe on owner-local layers,
    pipelines per stage — all must equal serial Adam.
    """

    @pytest.mark.parametrize(
        "strategy,world", [("fsdp", 4), ("1f1b", 4), ("weipipe-interleave", 4)]
    )
    def test_adamw_matches_serial(self, strategy, world):
        mk = lambda: AdamW(lr=1e-2, weight_decay=0.01)
        ref = train(_spec(make_optimizer=mk, iters=3), "serial", 1)
        got = train(_spec(make_optimizer=mk, iters=3), strategy, world)
        assert_matches(got, ref, rtol=1e-7, atol=1e-9)


class TestMixedPrecision:
    """The paper's fp16/bf16 layout: strategies agree loosely (rounding
    points coincide but accumulation orders differ) and training still
    converges."""

    def _mixed_spec(self, **kw):
        mk = lambda: MasterWeightOptimizer(Adam(lr=3e-3), MIXED)
        kw.setdefault("iters", 4)
        return _spec(precision=MIXED, make_optimizer=mk, **kw)

    @pytest.mark.parametrize("strategy,world", [("weipipe-interleave", 4), ("1f1b", 4), ("fsdp", 4)])
    def test_close_to_serial(self, strategy, world):
        ref = train(self._mixed_spec(), "serial", 1)
        got = train(self._mixed_spec(), strategy, world)
        np.testing.assert_allclose(got.losses, ref.losses, rtol=1e-2)

    def test_loss_decreases(self):
        got = train(self._mixed_spec(iters=6), "weipipe-interleave", 4)
        assert got.losses[-1] < got.losses[0]


class TestLongerRun:
    def test_weipipe_three_rounds_two_iters(self):
        spec = _spec(n_microbatches=12, iters=2)
        ref = train(spec, "serial", 1)
        assert_matches(train(spec, "weipipe-interleave", 4), ref)

    def test_world_two_layers_eight(self):
        cfg = CFG.with_(n_layers=8)
        spec = _spec(cfg=cfg, n_microbatches=4, iters=1)
        ref = train(spec, "serial", 1)
        assert_matches(train(spec, "weipipe-interleave", 2), ref)
        assert_matches(train(spec, "1f1b", 2), ref)
