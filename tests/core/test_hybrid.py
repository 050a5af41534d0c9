"""2-D WeiPipe x DP hybrid: equivalence in every grid shape."""

import numpy as np
import pytest

from repro import FP64, AdamW, ModelConfig, TrainSpec, train
from repro.core.hybrid import train_weipipe_dp
from repro.runtime import Fabric

CFG = ModelConfig(hidden=16, n_layers=4, n_heads=2, seq_len=8, vocab=29)


def _spec(**kw):
    base = dict(cfg=CFG, n_microbatches=8, microbatch_size=2, iters=2, precision=FP64)
    base.update(kw)
    return TrainSpec(**base)


class TestHybridEquivalence:
    # 16 tokens a microbatch: a D circulates at H = 16; at H = 64 every
    # chunk is factored and each replica's formed gradient is averaged
    @pytest.mark.parametrize("ring,dp,hidden", [
        pytest.param(r, d, h, id=f"{r}-{d}" + ("-factored" if h == 64 else ""))
        for h in (16, 64) for r, d in [(2, 2), (4, 2), (2, 4), (4, 1), (1, 4)]])
    def test_matches_serial(self, ring, dp, hidden):
        spec = _spec(cfg=CFG.with_(hidden=hidden),
                     n_microbatches=8 if (8 % (ring * dp) == 0) else ring * dp)
        ref = train(spec, "serial", 1)
        got = train_weipipe_dp(spec, ring_size=ring, dp_degree=dp)
        np.testing.assert_allclose(got.losses, ref.losses, rtol=1e-9)
        for a, b in zip(got.chunks, ref.chunks):
            assert a.max_abs_diff(b) < 1e-9

    def test_matches_pure_weipipe(self):
        spec = _spec()
        pure = train(spec, "weipipe-interleave", 4)
        hybrid = train_weipipe_dp(spec, ring_size=2, dp_degree=2)
        np.testing.assert_allclose(hybrid.losses, pure.losses, rtol=1e-9)
        for a, b in zip(hybrid.chunks, pure.chunks):
            assert a.max_abs_diff(b) < 1e-9

    def test_with_adamw_and_clipping(self):
        kw = dict(
            make_optimizer=lambda: AdamW(lr=1e-2, weight_decay=0.01),
            clip_norm=0.05,
            iters=3,
        )
        ref = train(_spec(**kw), "serial", 1)
        got = train_weipipe_dp(_spec(**kw), ring_size=2, dp_degree=2)
        np.testing.assert_allclose(got.losses, ref.losses, rtol=1e-8)
        for a, b in zip(got.chunks, ref.chunks):
            assert a.max_abs_diff(b) < 1e-8

    def test_validation(self):
        with pytest.raises(ValueError, match="n_layers"):
            train_weipipe_dp(_spec(), ring_size=3, dp_degree=2)
        with pytest.raises(ValueError, match="n_microbatches"):
            train_weipipe_dp(_spec(n_microbatches=4), ring_size=2, dp_degree=4)


class TestHybridCommunication:
    def test_dp_sync_is_weight_sized(self):
        """The replica sync moves weight-gradient bytes, not activations:
        hybrid total traffic is well below 2x a half-size ring's despite
        running two rings."""
        spec = _spec()
        f_ring = Fabric(2)
        train(spec, "weipipe-interleave", 2, fabric=f_ring)
        f_hybrid = Fabric(4)
        train_weipipe_dp(spec, ring_size=2, dp_degree=2, fabric=f_hybrid)
        # two rings move ~2x one ring's weight traffic (each over half
        # the microbatches -> fewer turns each) + a small D sync.
        assert f_hybrid.stats.bytes_total < 2.0 * f_ring.stats.bytes_total
