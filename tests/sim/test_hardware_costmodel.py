"""Hardware catalogue and cost model."""

import pytest

from repro.parallel.common import Post
from repro.runtime import LinkSpec
from repro.sim import A800, ETHERNET_10G, NVLINK, PCIE, WorkloadDims
from repro.sim.costmodel import CostModel, ExecConfig
from repro.sim.hardware import nvlink_cluster, pcie_ethernet_cluster


class TestLinks:
    def test_link_time(self):
        link = LinkSpec("x", bandwidth=1e9, latency=1e-5)
        assert link.time(1e9) == pytest.approx(1.0 + 1e-5)

    def test_catalogue_ordering(self):
        assert NVLINK.bandwidth > PCIE.bandwidth > ETHERNET_10G.bandwidth
        assert ETHERNET_10G.latency > NVLINK.latency

    def test_a800_specs(self):
        assert A800.flops == 312e12
        assert A800.memory == 80e9


class TestCluster:
    def test_node_assignment(self):
        c = pcie_ethernet_cluster(8, gpus_per_node=4)
        assert c.node_of(0) == 0 and c.node_of(3) == 0
        assert c.node_of(4) == 1 and c.node_of(7) == 1

    def test_link_selection(self):
        c = pcie_ethernet_cluster(8, gpus_per_node=4)
        assert c.link(0, 1) is PCIE
        assert c.link(3, 4) is ETHERNET_10G
        assert c.link(7, 0) is ETHERNET_10G  # ring wrap crosses nodes

    def test_crossing_hops(self):
        assert pcie_ethernet_cluster(8, gpus_per_node=4).crossing_hops() == 2
        assert pcie_ethernet_cluster(16, gpus_per_node=4).crossing_hops() == 4
        assert nvlink_cluster(8, gpus_per_node=8).crossing_hops() == 0

    def test_single_node_ring_is_intra(self):
        c = nvlink_cluster(8, gpus_per_node=8)
        assert all(l is NVLINK for l in c.ring_links())

    def test_slowest_ring_link(self):
        c = pcie_ethernet_cluster(8, gpus_per_node=4)
        assert c.slowest_ring_link() is ETHERNET_10G

    def test_validation(self):
        with pytest.raises(ValueError):
            nvlink_cluster(12, gpus_per_node=8)
        c = nvlink_cluster(8)
        with pytest.raises(ValueError):
            c.link(0, 0)
        with pytest.raises(ValueError):
            c.node_of(99)


DIMS = WorkloadDims(
    hidden=1024, n_layers=32, seq_len=4096, microbatch=16, n_microbatches=64
)


class TestWorkloadDims:
    def test_layer_params_near_12h2(self):
        assert DIMS.layer_params == pytest.approx(12 * 1024**2, rel=0.01)

    def test_model_params_384m(self):
        """Paper: H=1024, L=32 is the "384M" model — exactly 384 Mi of
        body parameters (12 H^2 L = 2^20 * 384), embeddings excluded."""
        body = DIMS.layer_params * DIMS.n_layers
        assert body / 2**20 == pytest.approx(384, rel=0.01)

    def test_61b_model(self):
        d = DIMS.with_(hidden=4096)
        body = d.layer_params * d.n_layers
        assert body / 2**30 == pytest.approx(6.0, rel=0.02)  # the "6.1B"

    def test_tokens(self):
        assert DIMS.tokens_per_microbatch == 16 * 4096
        assert DIMS.tokens_per_iteration == 64 * 16 * 4096


class TestCostModel:
    def test_efficiency_bounds(self):
        cm = CostModel(DIMS, A800)
        assert 0.0 < cm.efficiency() < 1.0

    def test_efficiency_grows_with_width_and_tokens(self):
        small = CostModel(DIMS.with_(hidden=512), A800).efficiency()
        big = CostModel(DIMS.with_(hidden=4096), A800).efficiency()
        assert big > small
        tiny_g = CostModel(DIMS.with_(microbatch=1, seq_len=256), A800).efficiency()
        assert tiny_g < CostModel(DIMS, A800).efficiency()

    def test_backward_twice_forward(self):
        cm = CostModel(DIMS, A800, ExecConfig(recompute=False))
        t_f, t_b = cm.op_times([("F", 0), ("B", 0)], 1)
        assert t_b == pytest.approx(2 * t_f)

    def test_recompute_adds_a_replay_not_a_forward(self):
        base = CostModel(DIMS, A800, ExecConfig(recompute=False))
        rec = CostModel(DIMS, A800, ExecConfig(recompute=True))
        ops = [("F", 0), ("B", 1)]
        assert rec.op_times(ops, 1)[1] == pytest.approx(
            base.op_times(ops, 1)[1] + rec.t_replay_layer()
        )
        assert rec.t_replay_layer() < rec.t_fwd_layer()

    def test_op_times_price_the_replays_the_rule_counts(self):
        """Per op of a program: a ``B`` right after its unit's ``F`` keeps
        one layer's cache, any other ``B`` replays all its layers."""
        base = CostModel(DIMS, A800, ExecConfig(recompute=False))
        rec = CostModel(DIMS, A800, ExecConfig(recompute=True))
        ops = [("F", 0), ("B", 0), ("F", 1), ("F", 2), ("B", 1), ("W", 1), ("B", 2)]
        extra = [r - b for r, b in zip(rec.op_times(ops, 2), base.op_times(ops, 2))]
        assert extra == pytest.approx(
            [n * rec.t_replay_layer() for n in (0, 1, 0, 0, 2, 0, 2)]
        )

    def test_b_plus_w_equals_plain_backward(self):
        cm = CostModel(DIMS, A800, ExecConfig(recompute=False))
        fused, split = cm.op_times([("B", 0)], 1), cm.op_times([("B", 0), ("W", 0)], 1)
        assert fused == [pytest.approx(2 * cm.t_fwd_layer())]
        assert split == [pytest.approx(cm.t_fwd_layer())] * 2

    # the message table's sizes at the model's wire widths: an activation
    # hop, and an interior layer chunk of weights
    ACT = Post("F", "hop", "act", "act", "act")
    CHUNK = Post("F", "all-gather", "w", "chunk", "weight")

    def test_act_message_scales_with_g_s_h(self):
        cm = CostModel(DIMS, A800)
        assert cm.sizes(2).nbytes(self.ACT) == 16 * 4096 * 1024 * 2
        cm2 = CostModel(DIMS.with_(seq_len=8192), A800)
        assert cm2.sizes(2).nbytes(self.ACT) == 2 * cm.sizes(2).nbytes(self.ACT)

    def test_weight_chunk_independent_of_g_s(self):
        cm = CostModel(DIMS, A800)
        cm2 = CostModel(DIMS.with_(seq_len=16384, microbatch=1), A800)
        assert cm.sizes(2).nbytes(self.CHUNK, 1) == cm2.sizes(2).nbytes(self.CHUNK, 1)

    def test_weight_chunk_is_12h2_fp16(self):
        cm = CostModel(DIMS, A800)
        assert cm.sizes(2).nbytes(self.CHUNK, 1) == pytest.approx(12 * 1024**2 * 2, rel=0.01)

    def test_flash_attention_removes_s2_term(self):
        on = CostModel(DIMS, A800, ExecConfig(flash_attention=True))
        off = CostModel(DIMS, A800, ExecConfig(flash_attention=False))
        assert off.act_full_cache_bytes() > on.act_full_cache_bytes()
        extra = off.act_full_cache_bytes() - on.act_full_cache_bytes()
        assert extra == pytest.approx(2 * 16 * 32 * 4096**2 * 2)

    def test_mb_comparable_to_ma(self):
        """The paper's M_B ~= M_A assumption."""
        cm = CostModel(DIMS, A800)
        ratio = cm.bgrad_cache_bytes() / cm.act_full_cache_bytes()
        assert 0.5 < ratio < 1.5

    def test_paper_mfu_calibration(self):
        """H=1024 workloads land near the ~22% MFU the paper's WeiPipe
        throughput implies; H=4096 near ~40%."""
        assert CostModel(DIMS, A800).efficiency() == pytest.approx(0.22, abs=0.03)
        wide = DIMS.with_(hidden=4096, microbatch=4, seq_len=16384)
        assert CostModel(wide, A800).efficiency() == pytest.approx(0.40, abs=0.04)
