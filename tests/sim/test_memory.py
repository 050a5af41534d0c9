"""Analytic memory model: Table 2's memory column and OOM pattern, and
the one liveness walk it charges."""

from itertools import product

import pytest

import repro.sim.memory as memory_mod
from repro.core.api import RING_STRATEGIES
from repro.core.schedule import RING_SCHEDULES, liveness, ring_program
from repro.experiments.configs import exec_for, make_dims, table2_cluster
from repro.parallel.pipeline import PIPELINE_SCHEDULES, stage_program
from repro.sim import WorkloadDims, peak_memory, peak_memory_per_worker
from repro.sim.costmodel import CostModel, ExecConfig
from repro.sim.hardware import nvlink_cluster

CLUSTER = table2_cluster()
GB = 2**30


def cell_memory(strategy, h, s, g):
    dims = make_dims(h, s, g, CLUSTER.world_size, 32, strategy)
    return peak_memory(strategy, dims, CLUSTER, exec_for(strategy)) / GB


class TestTable2MemoryColumn:
    """Within 40% of every measured non-OOM GB in Table 2 where nothing
    recomputes, and exact reproduction of the OOM pattern.  Where the
    strategy recomputes, the model charges this runtime's checkpoint —
    the layer input plus the streaming core's output and log-sum-exp, 2x
    the paper's boundary — so it reads above the paper, by under 60%."""

    PAPER = {
        # (H, S, G): strategy -> GB, None = OOM (paper Table 2)
        (1024, 4096, 16): {"1f1b": 13.0, "zb1": 20.4, "zb2": 39.3, "fsdp": 8.6, "weipipe-interleave": 9.4},
        (1024, 8192, 8): {"1f1b": 9.9, "zb1": 10.7, "zb2": 20.5, "fsdp": 8.6, "weipipe-interleave": 9.4},
        (1024, 16384, 4): {"1f1b": 9.1, "zb1": 21.6, "zb2": 42.2, "fsdp": 8.6, "weipipe-interleave": 9.4},
        (2048, 4096, 16): {"1f1b": 18.7, "zb1": 44.3, "zb2": None, "fsdp": 17.9, "weipipe-interleave": 19.9},
        (4096, 4096, 16): {"1f1b": 40.5, "zb1": None, "zb2": None, "fsdp": 39.0, "weipipe-interleave": 44.5},
        (4096, 16384, 4): {"1f1b": 45.1, "zb1": None, "zb2": None, "fsdp": 39.0, "weipipe-interleave": 44.5},
    }

    @pytest.mark.parametrize("row", sorted(PAPER))
    def test_non_oom_cells_close(self, row):
        for strat, paper_gb in self.PAPER[row].items():
            mine = cell_memory(strat, *row)
            if paper_gb is None:
                assert mine > 80, f"{strat} {row}: expected OOM, got {mine:.1f} GB"
            elif exec_for(strat).recompute:
                assert paper_gb < mine < 1.6 * paper_gb, f"{strat} {row}"
            else:
                assert mine == pytest.approx(paper_gb, rel=0.40), f"{strat} {row}"

    def test_zb2_zigzag(self):
        """ZB memory zigzags with the forced G (4 at S=4096, 1 above) —
        the paper's surprising pattern."""
        a = cell_memory("zb1", 1024, 4096, 16)
        b = cell_memory("zb1", 1024, 8192, 8)
        c = cell_memory("zb1", 1024, 16384, 4)
        assert a > b < c


class TestOrderings:
    DIMS = WorkloadDims(
        hidden=2048, n_layers=32, seq_len=8192, microbatch=8, n_microbatches=128
    )

    def test_zb2_above_zb1_above_1f1b(self):
        norec = ExecConfig(recompute=False)
        rec = ExecConfig(recompute=True)
        z1 = peak_memory("zb1", self.DIMS, CLUSTER, norec)
        z2 = peak_memory("zb2", self.DIMS, CLUSTER, norec)
        f = peak_memory("1f1b", self.DIMS, CLUSTER, rec)
        assert f < z1 < z2

    def test_gpipe_above_1f1b(self):
        cfg = ExecConfig(recompute=True)
        assert peak_memory("gpipe", self.DIMS, CLUSTER, cfg) > peak_memory(
            "1f1b", self.DIMS, CLUSTER, cfg
        )

    def test_recompute_reduces_pipeline_memory(self):
        on = peak_memory("1f1b", self.DIMS, CLUSTER, ExecConfig(recompute=True))
        off = peak_memory("1f1b", self.DIMS, CLUSTER, ExecConfig(recompute=False))
        assert on < off

    def test_flash_attention_reduces_zb_memory(self):
        base = ExecConfig(recompute=False, flash_attention=True)
        noflash = ExecConfig(recompute=False, flash_attention=False)
        assert peak_memory("zb1", self.DIMS, CLUSTER, base) < peak_memory(
            "zb1", self.DIMS, CLUSTER, noflash
        )

    def test_dp_stores_whole_model(self):
        """DP holds all model states; FSDP holds 1/P of them (plus the
        same activations) — the gap is (1 - 1/P) of the 16 B/param."""
        cfg = ExecConfig(recompute=True)
        dp = peak_memory("dp", self.DIMS, CLUSTER, cfg)
        fsdp = peak_memory("fsdp", self.DIMS, CLUSTER, cfg)
        assert dp > 1.8 * fsdp
        p = CLUSTER.world_size
        states_gap = (1 - 1 / p) * self.DIMS.model_params * 16
        assert dp - fsdp == pytest.approx(states_gap, rel=0.15)

    def test_pipeline_memory_decreases_along_stages(self):
        cfg = ExecConfig(recompute=True)
        per = peak_memory_per_worker("1f1b", self.DIMS, CLUSTER, cfg)
        # rank 0 holds the deepest warmup
        assert per[0] == max(per[:-1])
        assert per[0] > per[CLUSTER.world_size // 2]

    def test_weipipe_memory_flat_across_workers(self):
        cfg = ExecConfig(recompute=True)
        per = peak_memory_per_worker("weipipe-interleave", self.DIMS, CLUSTER, cfg)
        assert max(per) == pytest.approx(min(per))

    def test_weipipe_independent_of_world_in_activations(self):
        """WeiPipe's walked activation liveness is one model's worth of
        boundaries (``P`` held slot passes of ``L / P`` layers): constant in
        P (the paper's 'balanced memory' claim)."""
        cfg = ExecConfig(recompute=True)
        m8 = peak_memory("weipipe-interleave", self.DIMS, nvlink_cluster(8), cfg)
        m16 = peak_memory("weipipe-interleave", self.DIMS, nvlink_cluster(16), cfg)
        # smaller P means more layers per slot resident, so m8 >= m16,
        # but the bulk (activations) is flat: within 40%
        assert m16 < m8 < 1.4 * m16

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            peak_memory("unknown", self.DIMS, CLUSTER)

    def test_split_ring_charges_the_walked_liveness(self):
        """weipipe-zb without recompute parks a cache + B-grad bundle
        per slot pass awaiting its W.  Every worker's walk peaks with P
        slot passes held — interleave's — and P + 1 pending at once, which
        puts it above the no-recompute interleave ring by exactly the
        pending term."""
        norec = ExecConfig(recompute=False)
        world = CLUSTER.world_size
        for rank in range(world):
            walked = set(liveness(
                ring_program("zero-bubble", world, rank, self.DIMS.n_microbatches)
            ))
            assert (world, world + 1) in walked
            assert max(h for h, _ in walked) == world
            assert max(p for _, p in walked) == world + 1
        zb = peak_memory("weipipe-zb", self.DIMS, CLUSTER, norec)
        wi = peak_memory("weipipe-interleave", self.DIMS, CLUSTER, norec)
        cost = CostModel(self.DIMS, CLUSTER.gpu, norec)
        pending = (world + 1) * (self.DIMS.n_layers // world) * (
            cost.act_full_cache_bytes() + cost.bgrad_cache_bytes()
        )
        assert zb == pytest.approx(wi + pending)
        assert peak_memory("weipipe-interleave", self.DIMS, CLUSTER) < wi < zb


#: each row of the two program tables as (strategy, program of (P, rank, N)):
#: the flat ring strategy that runs each ring row.
ROWS = [
    (s, lambda P, r, n, s=s: stage_program(s, P, r, n)) for s in PIPELINE_SCHEDULES
] + [
    (name, lambda P, r, n, m=mode: ring_program(m, P, r, n))
    for name, (mode, hier) in RING_STRATEGIES.items()
    if not hier
]


class TestTheModelChargesTheWalk:
    def test_rows_cover_every_ring_row(self):
        modes = {RING_STRATEGIES[name][0] for name, _ in ROWS if name in RING_STRATEGIES}
        assert modes == set(RING_SCHEDULES)

    def test_zb2_holds_its_warmup_and_two_pending(self):
        """ZB2 runs each W one B behind: at P=16, N=512 a rank holds its
        ``2(P - r) - 1`` warmup plus one steady forward in flight and at
        most two B passes awaiting their W.  A W lag as deep as the warmup
        held as many pending as well — 63 live caches at once at rank 0."""
        world, n_mb = 16, 512
        for rank in range(world):
            for held, pending in liveness(stage_program("zb2", world, rank, n_mb)):
                assert held + pending <= 2 * (world - rank) + 2, (rank, held, pending)

    @pytest.mark.parametrize("world", [2, 4, 8])
    @pytest.mark.parametrize("strategy, program", ROWS, ids=[r[0] for r in ROWS])
    def test_activation_term_is_the_walks_byte_weighted_peak(
        self, monkeypatch, strategy, program, world
    ):
        """Per rank, what the model charges for activations is the
        maximum over the walk of ``held`` units of stored activations —
        the checkpoint under recomputation, on a split program too —
        plus ``pending`` units of full cache + B-grad bundle, a unit
        being ``L / P`` layers."""
        cluster = nvlink_cluster(world, gpus_per_node=world)
        for cfg, n_mb in product(
            (ExecConfig(recompute=True), ExecConfig(recompute=False)),
            (world, 2 * world, 4 * world),
        ):
            dims = WorkloadDims(
                hidden=256, n_layers=16, seq_len=512, microbatch=2, n_microbatches=n_mb
            )
            cost = CostModel(dims, cluster.gpu, cfg)
            lps = dims.n_layers // world
            act = cost.checkpoint_bytes() if cfg.recompute else cost.act_full_cache_bytes()
            pend = cost.act_full_cache_bytes() + cost.bgrad_cache_bytes()
            walked = [
                max(lps * (h * act + p * pend) for h, p in liveness(program(world, r, n_mb)))
                for r in range(world)
            ]
            charged = peak_memory_per_worker(strategy, dims, cluster, cfg)
            with monkeypatch.context() as m:
                # no op to walk: everything the model charges but activations
                for name in ("stage_program", "ring_program"):
                    m.setattr(memory_mod, name, lambda *args: [])
                rest = peak_memory_per_worker(strategy, dims, cluster, cfg)
            assert [c - r for c, r in zip(charged, rest)] == pytest.approx(walked, rel=1e-9)
