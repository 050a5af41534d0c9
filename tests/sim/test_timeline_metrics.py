"""Timeline renderer and metrics layer."""

import pytest

from repro.sim import (
    SimReport,
    WorkloadDims,
    evaluate,
    nvlink_cluster,
    render_timeline,
    simulate,
)
from repro.sim.engine import TaskGraph
from repro.sim.schedules import build_schedule

DIMS = WorkloadDims(
    hidden=1024, n_layers=4, seq_len=4096, microbatch=4, n_microbatches=8
)
CLUSTER = nvlink_cluster(4, gpus_per_node=4)


class TestTimeline:
    def test_renders_all_workers(self):
        out = render_timeline(build_schedule("weipipe-interleave", DIMS, CLUSTER), width=50)
        for w in range(4):
            assert f"worker  {w}" in out

    def test_width_respected(self):
        out = render_timeline(build_schedule("1f1b", DIMS, CLUSTER), width=37)
        row = next(l for l in out.splitlines() if l.startswith("worker"))
        assert len(row.split("|")[1]) == 37

    def test_title_and_legend(self):
        out = render_timeline(
            build_schedule("weipipe-naive", DIMS, CLUSTER), width=30, title="XYZ"
        )
        assert out.startswith("XYZ")
        assert "legend:" in out

    def test_interleave_has_star_turns(self):
        out = render_timeline(build_schedule("weipipe-interleave", DIMS, CLUSTER), width=80)
        assert "*" in out  # combined fwd+bwd turns

    def test_pipeline_has_f_and_b(self):
        out = render_timeline(build_schedule("gpipe", DIMS, CLUSTER), width=80)
        assert "F" in out and "B" in out

    def test_empty_graph(self):
        class Fake:
            graph = TaskGraph()
            compute_workers = [0]
            world_size = 1

        assert "empty" in render_timeline(Fake(), width=10)


class TestMetrics:
    def test_report_fields_consistent(self):
        rep = evaluate(build_schedule("1f1b", DIMS, CLUSTER))
        assert isinstance(rep, SimReport)
        assert rep.makespan > 0
        assert rep.world_size == 4
        assert rep.peak_memory_gb == pytest.approx(rep.peak_memory_bytes / 2**30)
        assert 0 <= rep.bubble_ratio < 1
        assert rep.comm_bytes_total > 0

    def test_throughput_formula(self):
        rep = evaluate(build_schedule("1f1b", DIMS, CLUSTER))
        expected = DIMS.tokens_per_iteration / rep.makespan / 4
        assert rep.tokens_per_second_per_gpu == pytest.approx(expected)

    def test_cell_formatting(self):
        rep = evaluate(build_schedule("1f1b", DIMS, CLUSTER))
        assert rep.cell() == f"{rep.tokens_per_second_per_gpu:.1f}"
        rep.oom = True
        assert rep.cell() == "OOM"

    def test_memory_strategy_override(self):
        built = build_schedule("1f1b", DIMS, CLUSTER)
        a = evaluate(built)
        b = evaluate(built, memory_strategy="gpipe")
        assert b.peak_memory_bytes > a.peak_memory_bytes  # gpipe holds N mbs

    def test_reuse_sim_result(self):
        built = build_schedule("1f1b", DIMS, CLUSTER)
        sim = simulate(built.graph)
        a = evaluate(built, sim=sim)
        b = evaluate(built)
        assert a.makespan == b.makespan
