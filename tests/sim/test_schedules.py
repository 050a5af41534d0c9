"""Schedule builders: structural sanity and comparative timing shapes."""

import pytest

from repro.core.api import RING_STRATEGIES
from repro.sim import WorkloadDims, evaluate, run_cell, nvlink_cluster, pcie_ethernet_cluster, simulate
from repro.sim.costmodel import ExecConfig
from repro.sim.schedules import (
    build_tp,
    build_dp,
    build_fsdp,
    build_pipeline,
    build_ring_figure,
    build_weipipe,
    ring_collective_time,
)

DIMS = WorkloadDims(
    hidden=1024, n_layers=8, seq_len=4096, microbatch=8, n_microbatches=16
)
CLUSTER = nvlink_cluster(4, gpus_per_node=4)
NOREC = ExecConfig(recompute=False)


def _report(builder, *args, **kw):
    return evaluate(builder(*args, **kw))


def _figure(variant):
    """Figures 3-4 are diagrams, not strategies: the ring that runs with a
    split backward lends them its memory row."""
    return evaluate(
        build_ring_figure(variant, DIMS, CLUSTER, NOREC), memory_strategy="weipipe-zb"
    )


class TestBuildersSimulate:
    @pytest.mark.parametrize("name", ["gpipe", "1f1b"])
    def test_pipeline_builds(self, name):
        rep = _report(build_pipeline, name, DIMS, CLUSTER)
        assert rep.makespan > 0 and 0 <= rep.bubble_ratio < 1

    @pytest.mark.parametrize("name", ["zb1", "zb2"])
    def test_zb_builds(self, name):
        rep = _report(build_pipeline, name, DIMS, CLUSTER, NOREC)
        assert rep.makespan > 0

    @pytest.mark.parametrize("strategy", list(RING_STRATEGIES))
    def test_weipipe_builds(self, strategy):
        rep = run_cell(strategy, DIMS, CLUSTER)
        assert rep.makespan > 0 and rep.strategy == strategy

    @pytest.mark.parametrize("variant", ["wzb1", "wzb2"])
    def test_wzb_builds(self, variant):
        assert _figure(variant).makespan > 0

    def test_fsdp_and_dp_build(self):
        assert _report(build_fsdp, DIMS, CLUSTER).makespan > 0
        assert _report(build_dp, DIMS, CLUSTER).makespan > 0


class TestValidation:
    def test_layers_divisibility(self):
        bad = DIMS.with_(n_layers=6)
        with pytest.raises(ValueError):
            build_pipeline("1f1b", bad, CLUSTER)
        with pytest.raises(ValueError):
            build_weipipe("interleave", bad, CLUSTER)

    def test_split_backward_prices_recompute(self):
        """A split backward recomputes like the runtime's: its B passes
        pay the replays; the figures do not read the flag."""
        rec = ExecConfig(recompute=True)
        for name in ("zb1", "zb2", "weipipe-zb"):
            on = run_cell(name, DIMS, CLUSTER, rec).makespan
            assert on > run_cell(name, DIMS, CLUSTER, NOREC).makespan, name
        assert _figure("wzb1").makespan == evaluate(
            build_ring_figure("wzb1", DIMS, CLUSTER, rec), memory_strategy="weipipe-zb"
        ).makespan

    def test_unknown_names(self):
        with pytest.raises(ValueError):
            build_pipeline("2f2b", DIMS, CLUSTER)
        with pytest.raises(ValueError):
            build_weipipe("turbo", DIMS, CLUSTER)
        with pytest.raises(ValueError):
            build_ring_figure("wzb3", DIMS, CLUSTER, NOREC)


class TestComparativeShapes:
    """Orderings the paper derives analytically must hold in the DES."""

    def test_interleave_beats_naive(self):
        naive = _report(build_weipipe, "naive", DIMS, CLUSTER)
        inter = _report(build_weipipe, "interleave", DIMS, CLUSTER)
        assert inter.makespan < naive.makespan
        assert inter.bubble_ratio < naive.bubble_ratio

    def test_1f1b_and_gpipe_same_bubble(self):
        """Same fill/drain ramp; 1F1B wins on memory, not time.  (Without
        recompute: with it 1F1B's last stage keeps its caches and runs
        lighter B ops than the stages it waits on.)"""
        f = _report(build_pipeline, "1f1b", DIMS, CLUSTER, NOREC)
        g = _report(build_pipeline, "gpipe", DIMS, CLUSTER, NOREC)
        assert f.bubble_ratio == pytest.approx(g.bubble_ratio, rel=0.05)

    def test_zb1_lower_bubble_than_1f1b(self):
        f = _report(build_pipeline, "1f1b", DIMS, CLUSTER, NOREC)
        z = _report(build_pipeline, "zb1", DIMS, CLUSTER, NOREC)
        assert z.bubble_ratio < f.bubble_ratio

    def test_wzb2_nearly_zero_bubble(self):
        assert _figure("wzb2").bubble_ratio < 0.08

    def test_wzb1_bubble_below_interleave(self):
        inter = _report(build_weipipe, "interleave", DIMS, CLUSTER, NOREC)
        assert _figure("wzb1").bubble_ratio < inter.bubble_ratio

    def test_wzb2_more_comm_per_compute_than_wzb1(self):
        assert _figure("wzb2").comm_bytes_total > _figure("wzb1").comm_bytes_total

    def test_split_ring_moves_work_without_adding_any(self):
        """The ring that executes with a split backward defers each W one
        revolution: the same compute per worker as interleave's fused
        backward, and a makespan no longer than interleave's."""
        inter = _report(build_weipipe, "interleave", DIMS, CLUSTER, NOREC)
        zb = _report(build_weipipe, "zero-bubble", DIMS, CLUSTER, NOREC,
                     name="weipipe-zb")
        assert zb.makespan <= inter.makespan * (1 + 1e-9)
        assert zb.bubble_ratio == pytest.approx(inter.bubble_ratio)

    def test_hier_moves_fewer_bytes_only_across_nodes(self):
        multi = pcie_ethernet_cluster(4, gpus_per_node=2)
        for cluster, fewer in ((CLUSTER, False), (multi, True)):
            flat = _report(build_weipipe, "interleave", DIMS, cluster)
            hier = _report(build_weipipe, "interleave", DIMS, cluster, hier=True,
                           name="weipipe-hier")
            assert (hier.comm_bytes_total < flat.comm_bytes_total) == fewer
            assert hier.makespan <= flat.makespan

    def test_more_microbatches_shrink_bubble(self):
        small = _report(build_weipipe, "interleave", DIMS, CLUSTER)
        big = _report(
            build_weipipe, "interleave", DIMS.with_(n_microbatches=64), CLUSTER
        )
        assert big.bubble_ratio < small.bubble_ratio

    def test_weipipe_comm_independent_of_seq(self):
        a = _report(build_weipipe, "interleave", DIMS, CLUSTER)
        b = _report(
            build_weipipe, "interleave", DIMS.with_(seq_len=16384), CLUSTER
        )
        assert b.comm_bytes_total == pytest.approx(a.comm_bytes_total)

    def test_pipeline_comm_scales_with_seq(self):
        a = _report(build_pipeline, "1f1b", DIMS, CLUSTER)
        b = _report(build_pipeline, "1f1b", DIMS.with_(seq_len=16384), CLUSTER)
        assert b.comm_bytes_total == pytest.approx(4 * a.comm_bytes_total, rel=0.01)

    def test_overlap_helps_pipelines(self):
        slow_cluster = pcie_ethernet_cluster(4, gpus_per_node=2)
        on = _report(build_pipeline, "1f1b", DIMS, slow_cluster, ExecConfig(overlap=True))
        off = _report(build_pipeline, "1f1b", DIMS, slow_cluster, ExecConfig(overlap=False))
        assert on.makespan < off.makespan

    def test_ethernet_slows_weipipe_less_than_1f1b(self):
        """The headline: crossing to Ethernet costs activation-passing
        far more than weight-passing at long context."""
        fast = nvlink_cluster(4, gpus_per_node=4)
        slow = pcie_ethernet_cluster(4, gpus_per_node=2)
        dims = DIMS.with_(seq_len=16384, microbatch=8)
        wp_pen = (
            _report(build_weipipe, "interleave", dims, slow).makespan
            / _report(build_weipipe, "interleave", dims, fast).makespan
        )
        pp_pen = (
            _report(build_pipeline, "1f1b", dims, slow, ExecConfig(overlap=False)).makespan
            / _report(build_pipeline, "1f1b", dims, fast, ExecConfig(overlap=False)).makespan
        )
        assert wp_pen < pp_pen


class TestRingCollective:
    def test_zero_for_single_rank(self):
        assert ring_collective_time(nvlink_cluster(8, 8).__class__(
            gpu=CLUSTER.gpu, nodes=1, gpus_per_node=1,
            intra=CLUSTER.intra, inter=CLUSTER.inter), 1e9) == 0.0

    def test_scales_with_bytes(self):
        t1 = ring_collective_time(CLUSTER, 1e8)
        t2 = ring_collective_time(CLUSTER, 2e8)
        assert t2 > t1
        assert t2 < 2.5 * t1

    def test_paced_by_slowest_link(self):
        fast = nvlink_cluster(8, gpus_per_node=8)
        slow = pcie_ethernet_cluster(8, gpus_per_node=4)
        assert ring_collective_time(slow, 1e8) > ring_collective_time(fast, 1e8)


class TestTensorParallelSim:
    def test_builds_and_simulates(self):
        rep = _report(build_tp, DIMS, CLUSTER)
        assert rep.makespan > 0

    def test_heads_divisibility(self):
        with pytest.raises(ValueError):
            build_tp(DIMS.with_(n_heads=6), CLUSTER)

    def test_tp_collapses_across_nodes(self):
        """Cross-node TP is communication-bound by orders of magnitude —
        the reason real systems keep TP inside a server."""
        single = nvlink_cluster(4, gpus_per_node=4)
        multi = pcie_ethernet_cluster(4, gpus_per_node=2)
        fast = _report(build_tp, DIMS, single)
        slow = _report(build_tp, DIMS, multi)
        assert slow.makespan > 5 * fast.makespan

    def test_tp_comm_scales_with_tokens_not_params(self):
        a = _report(build_tp, DIMS, CLUSTER)
        b = _report(build_tp, DIMS.with_(seq_len=8192), CLUSTER)
        assert b.comm_bytes_total == pytest.approx(2 * a.comm_bytes_total, rel=0.01)
