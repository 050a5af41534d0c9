"""Schedule builders: structural sanity and comparative timing shapes."""

from dataclasses import replace

import pytest

from repro.core.api import ZOO
from repro.sim import WorkloadDims, evaluate, run_cell, nvlink_cluster, pcie_ethernet_cluster, simulate
from repro.sim.costmodel import CostModel, ExecConfig
from repro.sim.runner import build_schedule, exec_for
from repro.sim.schedules import build_ring_figure, ring_collective_time

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
        rep = _report(build_schedule, name, DIMS, CLUSTER)
        assert rep.makespan > 0 and 0 <= rep.bubble_ratio < 1

    @pytest.mark.parametrize("name", ["zb1", "zb2"])
    def test_zb_builds(self, name):
        rep = _report(build_schedule, name, DIMS, CLUSTER, NOREC)
        assert rep.makespan > 0

    @pytest.mark.parametrize(
        "strategy", [s.name for s in ZOO.values() if s.family == "ring"]
    )
    def test_weipipe_builds(self, strategy):
        rep = run_cell(strategy, DIMS, CLUSTER)
        assert rep.makespan > 0 and rep.strategy == strategy

    @pytest.mark.parametrize("variant", ["wzb1", "wzb2"])
    def test_wzb_builds(self, variant):
        assert _figure(variant).makespan > 0

    def test_fsdp_and_dp_build(self):
        assert _report(build_schedule, "fsdp", DIMS, CLUSTER).makespan > 0
        assert _report(build_schedule, "dp", DIMS, CLUSTER).makespan > 0


class TestValidation:
    def test_layers_divisibility(self):
        bad = DIMS.with_(n_layers=6)
        with pytest.raises(ValueError):
            build_schedule("1f1b", bad, CLUSTER)
        with pytest.raises(ValueError):
            build_schedule("weipipe-interleave", bad, CLUSTER)

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
            build_schedule("2f2b", DIMS, CLUSTER)
        with pytest.raises(ValueError):
            build_schedule("turbo", DIMS, CLUSTER)
        with pytest.raises(ValueError):
            build_ring_figure("wzb3", DIMS, CLUSTER, NOREC)


class TestComparativeShapes:
    """Orderings the paper derives analytically must hold in the DES."""

    def test_interleave_beats_naive(self):
        naive = _report(build_schedule, "weipipe-naive", DIMS, CLUSTER)
        inter = _report(build_schedule, "weipipe-interleave", DIMS, CLUSTER)
        assert inter.makespan < naive.makespan
        assert inter.bubble_ratio < naive.bubble_ratio

    def test_1f1b_and_gpipe_same_bubble(self):
        """Same fill/drain ramp; 1F1B wins on memory, not time.  (Without
        recompute: with it 1F1B's last stage keeps its caches and runs
        lighter B ops than the stages it waits on.)"""
        f = _report(build_schedule, "1f1b", DIMS, CLUSTER, NOREC)
        g = _report(build_schedule, "gpipe", DIMS, CLUSTER, NOREC)
        assert f.bubble_ratio == pytest.approx(g.bubble_ratio, rel=0.05)

    def test_zb1_lower_bubble_than_1f1b(self):
        f = _report(build_schedule, "1f1b", DIMS, CLUSTER, NOREC)
        z = _report(build_schedule, "zb1", DIMS, CLUSTER, NOREC)
        assert z.bubble_ratio < f.bubble_ratio

    def test_wzb2_nearly_zero_bubble(self):
        assert _figure("wzb2").bubble_ratio < 0.08

    def test_wzb1_bubble_below_interleave(self):
        inter = _report(build_schedule, "weipipe-interleave", DIMS, CLUSTER, NOREC)
        assert _figure("wzb1").bubble_ratio < inter.bubble_ratio

    def test_wzb2_more_comm_per_compute_than_wzb1(self):
        assert _figure("wzb2").comm_bytes_total > _figure("wzb1").comm_bytes_total

    def test_split_ring_moves_work_without_adding_any(self):
        """The ring that executes with a split backward defers each W one
        revolution: the same compute per worker as interleave's fused
        backward, and a makespan no longer than interleave's."""
        inter = _report(build_schedule, "weipipe-interleave", DIMS, CLUSTER, NOREC)
        zb = _report(build_schedule, "weipipe-zb", DIMS, CLUSTER, NOREC)
        assert zb.makespan <= inter.makespan * (1 + 1e-9)
        assert zb.bubble_ratio == pytest.approx(inter.bubble_ratio)

    def test_hier_moves_fewer_bytes_only_across_nodes(self):
        multi = pcie_ethernet_cluster(4, gpus_per_node=2)
        for cluster, fewer in ((CLUSTER, False), (multi, True)):
            flat = _report(build_schedule, "weipipe-interleave", DIMS, cluster)
            hier = _report(build_schedule, "weipipe-hier", DIMS, cluster)
            assert (hier.comm_bytes_total < flat.comm_bytes_total) == fewer
            assert hier.makespan <= flat.makespan

    def test_more_microbatches_shrink_bubble(self):
        small = _report(build_schedule, "weipipe-interleave", DIMS, CLUSTER)
        big = _report(
            build_schedule, "weipipe-interleave", DIMS.with_(n_microbatches=64), CLUSTER
        )
        assert big.bubble_ratio < small.bubble_ratio

    def test_weipipe_comm_independent_of_seq(self):
        a = _report(build_schedule, "weipipe-interleave", DIMS, CLUSTER)
        b = _report(
            build_schedule, "weipipe-interleave", DIMS.with_(seq_len=16384), CLUSTER
        )
        assert b.comm_bytes_total == pytest.approx(a.comm_bytes_total)

    def test_pipeline_comm_scales_with_seq(self):
        a = _report(build_schedule, "1f1b", DIMS, CLUSTER)
        b = _report(build_schedule, "1f1b", DIMS.with_(seq_len=16384), CLUSTER)
        assert b.comm_bytes_total == pytest.approx(4 * a.comm_bytes_total, rel=0.01)

    def test_overlap_helps_pipelines(self):
        slow_cluster = pcie_ethernet_cluster(4, gpus_per_node=2)
        on = _report(build_schedule, "1f1b", DIMS, slow_cluster, ExecConfig(overlap=True))
        off = _report(build_schedule, "1f1b", DIMS, slow_cluster, ExecConfig(overlap=False))
        assert on.makespan < off.makespan

    def test_ethernet_slows_weipipe_less_than_1f1b(self):
        """The headline: crossing to Ethernet costs activation-passing
        far more than weight-passing at long context."""
        fast = nvlink_cluster(4, gpus_per_node=4)
        slow = pcie_ethernet_cluster(4, gpus_per_node=2)
        dims = DIMS.with_(seq_len=16384, microbatch=8)
        wp_pen = (
            _report(build_schedule, "weipipe-interleave", dims, slow).makespan
            / _report(build_schedule, "weipipe-interleave", dims, fast).makespan
        )
        pp_pen = (
            _report(build_schedule, "1f1b", dims, slow, ExecConfig(overlap=False)).makespan
            / _report(build_schedule, "1f1b", dims, fast, ExecConfig(overlap=False)).makespan
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
        rep = _report(build_schedule, "tp", DIMS, CLUSTER)
        assert rep.makespan > 0

    def test_heads_divisibility(self):
        with pytest.raises(ValueError):
            build_schedule("tp", DIMS.with_(n_heads=6), CLUSTER)

    def test_tp_collapses_across_nodes(self):
        """Cross-node TP is communication-bound by orders of magnitude —
        the reason real systems keep TP inside a server."""
        single = nvlink_cluster(4, gpus_per_node=4)
        multi = pcie_ethernet_cluster(4, gpus_per_node=2)
        fast = _report(build_schedule, "tp", DIMS, single)
        slow = _report(build_schedule, "tp", DIMS, multi)
        assert slow.makespan > 5 * fast.makespan

    def test_tp_comm_scales_with_tokens_not_params(self):
        a = _report(build_schedule, "tp", DIMS, CLUSTER)
        b = _report(build_schedule, "tp", DIMS.with_(seq_len=8192), CLUSTER)
        assert b.comm_bytes_total == pytest.approx(2 * a.comm_bytes_total, rel=0.01)


#: the collective families' DES at ``exec_for`` on DIMS, recorded when
#: the collective families' DES came to price the message table (each chunk as
#: ``chunk_param_count`` sizes it, the ring's ``(P-1)/P`` of each buffer,
#: the loss all-reduces): ``(makespan, comm_bytes_total)`` per cluster,
#: exact.
COLLECTIVE_PINS = {
    "nvlink": {
        "dp": (2.0057905567431535, 1993814064.0),
        "fsdp": (2.020691116743153, 11962884144.0),
        "tp": (1.989611624834678, 206158430208.0),
        "sp": (1.8461340088971943, 105073029168.0),
    },
    "pcie": {
        "dp": (1.9307432890069929, 4652232816.0),
        "fsdp": (3.7880673778958815, 13956698224.0),
        "tp": (96.65041777330659, 481036337152.0),
        "sp": (49.678720995528565, 245170401392.0),
    },
}


#: the pipeline and ring families' DES at ``exec_for`` on DIMS, recorded
#: before one walk came to build every family: ``(makespan,
#: comm_bytes_total)`` per cluster, exact.  The pcie cluster spans two
#: nodes, so ``weipipe-hier``'s reference rule runs there.
PROGRAM_PINS = {
    "nvlink": {
        "gpipe": (2.444829564807145, 6442451040.0),
        "1f1b": (2.422525400418147, 6442451040.0),
        "zb1": (1.917407798064023, 6442451040.0),
        "zb2": (1.9174077980640227, 6442451040.0),
        "weipipe-naive": (3.124496901308505, 48183839104.0),
        "weipipe-interleave": (2.4280977668301826, 24258070912.0),
        "weipipe-zb": (2.0235262328337256, 28245698944.0),
        "weipipe-hier": (2.4280977668301826, 24258070912.0),
    },
    "pcie": {
        "gpipe": (3.7200810150170542, 15032385984.0),
        "1f1b": (3.4608927842053046, 15032385984.0),
        "zb1": (3.1776345764320615, 15032385984.0),
        "zb2": (3.195996993886607, 15032385984.0),
        "weipipe-naive": (5.726651046556195, 48183839616.0),
        "weipipe-interleave": (3.892941802928564, 32233327488.0),
        "weipipe-zb": (4.776415800841907, 40208583552.0),
        "weipipe-hier": (2.7052632662134366, 28245701760.0),
    },
}

#: the same cells with ``exec_for``'s overlap flipped, on pcie.
FLIPPED_PINS = {
    "1f1b": (2.409622558250779, 15032385984.0),
    "weipipe-interleave": (5.234306520663311, 32233327488.0),
}

_PINNED_CLUSTERS = {"nvlink": CLUSTER, "pcie": pcie_ethernet_cluster(8, gpus_per_node=4)}


class TestProgramFamiliesPinned:
    """Pipelines and rings: every rank's program."""

    @pytest.mark.parametrize("cluster", ["nvlink", "pcie"])
    @pytest.mark.parametrize("strategy", list(PROGRAM_PINS["nvlink"]))
    def test_pinned_at_exec_for(self, strategy, cluster):
        rep = run_cell(strategy, DIMS, _PINNED_CLUSTERS[cluster], exec_for(strategy))
        assert (rep.makespan, rep.comm_bytes_total) == PROGRAM_PINS[cluster][strategy]

    @pytest.mark.parametrize("strategy", list(FLIPPED_PINS))
    def test_pinned_with_overlap_flipped(self, strategy):
        base = exec_for(strategy)
        rep = run_cell(strategy, DIMS, _PINNED_CLUSTERS["pcie"],
                       replace(base, overlap=not base.overlap))
        assert (rep.makespan, rep.comm_bytes_total) == FLIPPED_PINS[strategy]


class TestCollectiveFamilies:
    """dp, fsdp, tp and sp: rank 0's program."""

    @pytest.mark.parametrize("cluster", ["nvlink", "pcie"])
    @pytest.mark.parametrize("strategy", ["dp", "fsdp", "tp", "sp"])
    def test_pinned_at_exec_for(self, strategy, cluster):
        rep = run_cell(strategy, DIMS, _PINNED_CLUSTERS[cluster], exec_for(strategy))
        assert (rep.makespan, rep.comm_bytes_total) == COLLECTIVE_PINS[cluster][strategy]

    def test_fsdp_gathers_keep_the_prefetch_window(self):
        """Two gathered layers at most (what ``sim.memory`` charges): under
        overlap no gather starts before the compute two ops back ends."""
        dims = DIMS.with_(seq_len=16384, microbatch=4)
        built = build_schedule("fsdp", dims, pcie_ethernet_cluster(8, gpus_per_node=4),
                               ExecConfig(overlap=True))
        sim = simulate(built.graph)
        computes, gathers = [], 0
        for tid, task in built.graph.tasks.items():
            if task.meta["kind"] in ("F", "B"):
                computes.append(tid)
            elif task.meta["collective"] == "all-gather":
                gathers += 1
                if len(computes) >= 2:
                    assert sim.start[tid] >= sim.finish[computes[-2]], tid
        assert gathers == 2 * dims.n_layers * dims.n_microbatches // 8

    def test_dp_runs_each_op_as_one_task(self):
        """...and then all-reduces each chunk's gradients and the loss."""
        built = build_schedule("dp", DIMS, CLUSTER)
        kinds = [t.meta["kind"] for t in built.graph.tasks.values()]
        assert kinds == (["F", "B"] * (DIMS.n_microbatches // 4)
                         + ["comm"] * (DIMS.n_layers + 1))

    @pytest.mark.parametrize("strategy, dims", [
        ("dp", DIMS.with_(n_microbatches=6)),
        ("fsdp", DIMS.with_(n_microbatches=6)),
        ("sp", DIMS.with_(seq_len=4094)),
    ])
    def test_divisibility(self, strategy, dims):
        with pytest.raises(ValueError, match="per rank"):
            build_schedule(strategy, dims, CLUSTER)


class TestFactoredPrograms:
    """Below the regime boundary (``chunk_factored``) a loop that keeps
    whole gradients runs B as the input half and forms each chunk's
    gradient once, at the iteration's end (DESIGN.md §17): ``op_means``
    and every builder price it so.  FSDP reduces each microbatch's
    gradient, so it stays dense."""

    THIN = WorkloadDims(hidden=64, n_layers=4, seq_len=8, microbatch=1,
                        n_microbatches=8, n_heads=4, vocab=29)
    PAIR = nvlink_cluster(2, gpus_per_node=2)

    @pytest.mark.parametrize("name, ratio", [("1f1b", 1.0), ("dp", 1.0),
                                             ("weipipe-interleave", 1.0), ("fsdp", 2.0)])
    def test_the_b_over_f_prediction(self, name, ratio):
        t_f, t_b = CostModel(self.THIN, self.PAIR.gpu, NOREC).op_means(name, 2)
        assert t_b / t_f == pytest.approx(ratio)
        dense = CostModel(self.THIN.with_(seq_len=32), self.PAIR.gpu, NOREC)
        t_f, t_b = dense.op_means(name, 2)
        assert t_b / t_f == pytest.approx(2.0)

    @pytest.mark.parametrize("name, forms", [
        # per rank: its chunks x the microbatches it ran
        ("1f1b", {("FORM", 0): 2 * 8, ("FORM", 1): 2 * 8}),
        ("dp", {("FORM",): 4 * 4}),
        ("fsdp", {}),
    ])
    def test_each_rank_forms_once_before_its_sync(self, name, forms):
        built = build_schedule(name, self.THIN, self.PAIR, NOREC)
        t_f = built.cost.t_fwd_layer()
        got = {tid: task.duration / t_f for tid, task in built.graph.tasks.items()
               if tid[0] == "FORM"}
        assert got == pytest.approx(forms)
        for tid in forms:  # the end collectives wait for it
            assert any(tid in task.deps for task in built.graph.tasks.values()
                       if task.meta["kind"] == "comm")

    @pytest.mark.parametrize("name", [n for n, s in ZOO.items() if s.simulated])
    def test_the_loss_sync_waits_for_every_form(self, name):
        """Every rank forms before its loss collective, as the runtime does
        (the ring's ``RingLoop.run_iteration`` forms, then gathers)."""
        built = build_schedule(name, self.THIN, nvlink_cluster(4, gpus_per_node=4), NOREC)
        tasks = built.graph.tasks
        forms = {tid for tid in tasks if tid[0] == "FORM"}
        for tid, task in tasks.items():
            if not str(tid[0]).endswith("-loss"):
                continue
            seen, todo = set(), list(task.deps)
            while todo:
                dep = todo.pop()
                if dep not in seen:
                    seen.add(dep)
                    todo.extend(tasks[dep].deps)
            assert forms <= seen, (tid, sorted(forms - seen))
