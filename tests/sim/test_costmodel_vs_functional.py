"""Cross-layer validation: the DES cost model vs the real NumPy layer.

The simulator's throughput and memory predictions stand on two numbers:
FLOPs per layer and activation-cache bytes per layer.  Both are
independently measurable on the functional substrate, so these tests
pin the cost model to the implementation instead of to folklore.
"""

import numpy as np
import pytest

from repro import TrainSpec, train
from repro.nn import ModelConfig, init_model, rope_tables
from repro.nn.accounting import (
    layer_fwd_flops,
    model_fwd_flops,
    tensor_bytes,
    training_step_flops,
)
from repro.nn.checkpoint import replay_flops, replayed_chunks
from repro.nn.layer import layer_bwd_input, layer_fwd
from repro.sim import A800, WorkloadDims
from repro.sim.costmodel import CostModel, ExecConfig


class TestFlopsAgreement:
    @pytest.mark.parametrize(
        "hidden,seq,g", [(1024, 4096, 16), (2048, 8192, 8), (4096, 16384, 4)]
    )
    def test_costmodel_matches_functional_accounting(self, hidden, seq, g):
        """The simulator's per-layer forward FLOPs agree with the counts
        derived from the actual layer implementation within 2%."""
        cfg = ModelConfig(
            hidden=hidden, n_layers=32, n_heads=32, seq_len=seq, vocab=32000
        )
        dims = WorkloadDims(
            hidden=hidden, n_layers=32, seq_len=seq, microbatch=g,
            n_microbatches=32,
        )
        cm = CostModel(dims, A800)
        functional = layer_fwd_flops(cfg, g)["total"]
        assert cm.flops_fwd_layer() == pytest.approx(functional, rel=0.02)

    def test_attention_share_grows_with_seq(self):
        cfg_s = ModelConfig(hidden=1024, n_layers=1, n_heads=32, seq_len=2048, vocab=32)
        cfg_l = cfg_s.with_(seq_len=32768)
        share = lambda c: (
            layer_fwd_flops(c, 4)["attention_scores"] / layer_fwd_flops(c, 4)["total"]
        )
        assert share(cfg_l) > 4 * share(cfg_s)

    @pytest.mark.parametrize("flash", [False, True])
    def test_training_step_is_the_rules_op_sum(self, flash):
        """One microbatch of the one-unit program ``F, B``: the forward,
        a 2x backward, and the replays the checkpoint rule counts for the
        ``B`` — as many as the runtime runs — each at ``replay_flops``."""
        cfg = ModelConfig(hidden=64, n_layers=3, n_heads=4, seq_len=32, vocab=100,
                          flash_attention=flash)
        fwd = model_fwd_flops(cfg, 2)
        replays = replayed_chunks([("F", 0), ("B", 0)], cfg.n_layers)
        ops = [fwd, 2 * fwd + replays[1] * replay_flops(layer_fwd_flops(cfg, 2), flash)]
        assert training_step_flops(cfg, 2, recompute=True) == pytest.approx(sum(ops))
        assert training_step_flops(cfg, 2, recompute=False) == pytest.approx(3 * fwd)
        spec = TrainSpec(cfg=cfg, n_microbatches=1, microbatch_size=2, recompute=True)
        assert train(spec, "serial", 1).extra["recompute"]["replayed"] == replays[1]

    @pytest.mark.parametrize("flash", [False, True])
    def test_replay_price_matches_functional_accounting(self, flash):
        cfg = ModelConfig(hidden=1024, n_layers=32, n_heads=32, seq_len=4096,
                          vocab=32000)
        dims = WorkloadDims(hidden=1024, n_layers=32, seq_len=4096, microbatch=16,
                            n_microbatches=32)
        cm = CostModel(dims, A800, ExecConfig(flash_attention=flash))
        functional = replay_flops(layer_fwd_flops(cfg, 16), flash)
        assert cm.flops_replay_layer() == pytest.approx(functional, rel=0.02)


class TestMemoryAgreement:
    def _measured_cache_bytes(self, hidden, seq, g, flash):
        """Actual bytes pinned by one layer's forward cache, converted
        to the fp16 wire scale the memory model uses."""
        cfg = ModelConfig(
            hidden=hidden, n_layers=1, n_heads=4, seq_len=seq, vocab=11,
            flash_attention=flash, flash_block=max(16, seq // 4),
            dtype=np.float64,
        )
        chunks = init_model(cfg, seed=0)
        cos, sin = rope_tables(cfg)
        x = np.random.default_rng(0).normal(size=(g, seq, hidden))
        _, cache = layer_fwd(
            chunks[0], x, cfg.n_heads, cos, sin, flash=flash,
            flash_block=cfg.flash_block,
        )
        # float64 in the functional engine, fp16 on real hardware
        return tensor_bytes(cache) / 4.0

    def test_act_full_coef_matches_measured(self):
        """The memory model's ACT_FULL_COEF (bytes/token/hidden, fp16)
        must match the cache the implementation actually keeps (within
        35% — the model also budgets for fragmentation slack)."""
        hidden, seq, g = 64, 128, 2
        measured = self._measured_cache_bytes(hidden, seq, g, flash=True)
        dims = WorkloadDims(
            hidden=hidden, n_layers=1, seq_len=seq, microbatch=g,
            n_microbatches=4, n_heads=4, vocab=11,
        )
        cm = CostModel(dims, A800, ExecConfig(flash_attention=True))
        assert cm.act_full_cache_bytes() == pytest.approx(measured, rel=0.35)

    def test_flash_removes_quadratic_term_in_practice(self):
        """Measured: materialised attention pins O(S^2) cache, flash does
        not — quadrupling S at fixed tokens must blow up only the former."""
        small_mat = self._measured_cache_bytes(32, 64, 4, flash=False)
        big_mat = self._measured_cache_bytes(32, 256, 1, flash=False)
        small_fl = self._measured_cache_bytes(32, 64, 4, flash=True)
        big_fl = self._measured_cache_bytes(32, 256, 1, flash=True)
        assert big_mat > 1.5 * small_mat  # S^2 term grows
        assert big_fl < 1.2 * small_fl  # ~same token count, ~same cache
        # the flash-vs-materialised delta is the G*nh*S^2 probability
        # matrix: quadrupling S at fixed tokens quadruples it.
        delta_small = small_mat - small_fl
        delta_big = big_mat - big_fl
        assert delta_big == pytest.approx(4 * delta_small, rel=0.3)

    def test_bgrad_coef_reasonable(self):
        """Measured B-pass bundle vs the memory model's BGRAD_COEF."""
        hidden, seq, g = 64, 128, 2
        cfg = ModelConfig(
            hidden=hidden, n_layers=1, n_heads=4, seq_len=seq, vocab=11,
        )
        chunks = init_model(cfg, seed=0)
        cos, sin = rope_tables(cfg)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(g, seq, hidden))
        y, cache = layer_fwd(chunks[0], x, cfg.n_heads, cos, sin)
        _, wcache = layer_bwd_input(chunks[0], rng.normal(size=y.shape), cache)
        measured = tensor_bytes(wcache) / 4.0  # fp16 scale
        dims = WorkloadDims(
            hidden=hidden, n_layers=1, seq_len=seq, microbatch=g,
            n_microbatches=4, n_heads=4, vocab=11,
        )
        cm = CostModel(dims, A800)
        assert cm.bgrad_cache_bytes() == pytest.approx(measured, rel=0.5)
