"""Schedule-specific behaviour of the pipeline baselines."""

from dataclasses import replace

import pytest

from repro import FP32, FP64, ModelConfig, TrainSpec, train
from repro.core.api import ZOO
from repro.parallel.common import slot_chunk_ids
from repro.parallel.pipeline import PIPELINE_SCHEDULES
from repro.testing import compare_train_results

CFG = ModelConfig(hidden=16, n_layers=4, n_heads=2, seq_len=8, vocab=23)


def _spec(n_mb=8, **kw):
    return TrainSpec(
        cfg=CFG, n_microbatches=n_mb, microbatch_size=2, iters=1,
        precision=FP64, **kw
    )


class TestStagePartition:
    def test_contiguous_cover(self):
        ids = [list(slot_chunk_ids(r, 4, 8)) for r in range(4)]
        assert ids == [[0, 1], [2, 3], [4, 5], [6, 7]]

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            slot_chunk_ids(0, 4, 6)


class TestInflightLiveness:
    """GPipe holds all N microbatches; 1F1B holds at most P - rank."""

    def test_gpipe_peak_is_n(self):
        r = train(_spec(n_mb=8), "gpipe", 4)
        assert r.extra["peak_inflight"][0] == 8

    def test_1f1b_peak_is_depth_minus_rank(self):
        r = train(_spec(n_mb=8), "1f1b", 4)
        peaks = r.extra["peak_inflight"]
        for rank in range(4):
            assert peaks[rank] == 4 - rank

    def test_1f1b_beats_gpipe_on_liveness(self):
        g = train(_spec(n_mb=8), "gpipe", 4).extra["peak_inflight"][0]
        f = train(_spec(n_mb=8), "1f1b", 4).extra["peak_inflight"][0]
        assert f < g


class TestZeroBubbleLiveness:
    """ZB2 warms up ~twice as deep as ZB1 — the memory price the paper's
    Table 2 exposes — and both run each W one B behind."""

    def test_zb2_inflight_exceeds_zb1(self):
        z1 = train(_spec(n_mb=8), "zb1", 4).extra["peak_inflight"][0]
        z2 = train(_spec(n_mb=8), "zb2", 4).extra["peak_inflight"][0]
        assert (z1, z2) == (5, 8)

    def test_zb2_pending_equals_zb1(self):
        z1 = train(_spec(n_mb=8), "zb1", 4).extra["peak_pending_w"]
        z2 = train(_spec(n_mb=8), "zb2", 4).extra["peak_pending_w"]
        assert z1 == z2

    def test_zb1_warmup_deeper_than_1f1b(self):
        f = train(_spec(n_mb=8), "1f1b", 4).extra["peak_inflight"][0]
        z = train(_spec(n_mb=8), "zb1", 4).extra["peak_inflight"][0]
        assert z >= f


class TestOneEngineFourPrograms:
    """The four schedules are one stage worker running four op orders:
    same GEMMs, same accumulation order per chunk, so the same bits — the
    machine-independent oracle for the shared engine."""

    @pytest.mark.parametrize(
        "backend, world, precision",
        [
            ("thread", 2, "fp64"),
            ("thread", 2, "fp32"),
            ("thread", 4, "fp64"),
            ("thread", 4, "fp32"),
            ("process", 4, "fp32"),
        ],
    )
    def test_schedules_agree_bit_for_bit(self, backend, world, precision):
        policy = {"fp64": FP64, "fp32": FP32}[precision]
        spec = replace(_spec(n_mb=8), precision=policy, iters=3)
        ref = train(spec, "1f1b", world, backend=backend)
        for schedule in PIPELINE_SCHEDULES:
            got = train(spec, schedule, world, backend=backend)
            assert compare_train_results(got, ref, tol=0) is None, schedule


class TestSplitBackwardRecomputes:
    """ZB1 / ZB2 recompute like every other schedule: the B pass rebuilds
    the cache from the checkpoint and parks it for the W pass, so the
    result is serial's, bit for bit."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("schedule", ["zb1", "zb2"])
    def test_matches_serial_bit_for_bit(self, backend, schedule):
        spec = _spec(recompute=True)
        ref = train(spec, "serial", 1)
        got = train(spec, schedule, 4, backend=backend)
        assert compare_train_results(got, ref, tol=0) is None
        assert got.extra["recompute"]["replayed"] == spec.n_microbatches * CFG.n_layers


class TestWeiPipeLiveness:
    """The ring's ledger counts held slot passes (``L / P`` layers each)."""

    def test_interleave_holds_one_model(self):
        """Steady state: a forwarding and a backwarding microbatch whose
        held slots add up to ``P`` — B runs before F in every turn."""
        r = train(_spec(n_mb=16), "weipipe-interleave", 4)
        assert set(r.extra["peak_inflight"].values()) == {4}

    def test_naive_holds_one_model(self):
        r = train(_spec(n_mb=8), "weipipe-naive", 4)
        assert set(r.extra["peak_inflight"].values()) == {4}


class TestValidation:
    def test_weipipe_layer_divisibility(self):
        spec = replace(_spec(), cfg=CFG.with_(n_layers=6))
        with pytest.raises(ValueError, match="divisible"):
            train(spec, "weipipe-interleave", 4)

    def test_weipipe_microbatch_divisibility(self):
        with pytest.raises(ValueError):
            train(_spec(n_mb=6), "weipipe-interleave", 4)

    def test_dp_microbatch_divisibility(self):
        with pytest.raises(ValueError):
            train(_spec(n_mb=6), "dp", 4)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            train(_spec(), "megatron", 4)

    def test_serial_requires_one_worker(self):
        with pytest.raises(ValueError):
            train(_spec(), "serial", 4)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize(
        "schedule, spec_kw, match",
        [
            ("2f2b", {}, "unknown"),
            ("1f1b", {"cfg": CFG.with_(n_layers=6)}, "divisible"),
        ],
    )
    def test_bad_pipeline_config_fails_before_launch(
        self, monkeypatch, backend, schedule, spec_kw, match
    ):
        """Configuration errors are the parent's plain ``ValueError``:
        no thread started, no process forked, no shm segment created."""
        from repro.runtime import resolve_transport

        transport = resolve_transport(None, backend)
        launches = []
        monkeypatch.setattr(
            transport, "launch", lambda *a, **kw: launches.append(a) or ([], [])
        )
        with pytest.raises(ValueError, match=match):
            train(replace(_spec(), **spec_kw), schedule, 4, fabric=transport)
        assert launches == []

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("name, dim", [
        (name, dim) for name, s in ZOO.items() for dim in s.divides or ("world",)
    ])
    def test_every_record_refuses_a_bad_world_before_launch(
        self, monkeypatch, backend, name, dim
    ):
        """One validation serves every record: a world that does not
        divide a size the record splits (serial: any world but 1) is the
        parent's ``ValueError``, and nothing is launched."""
        from repro.runtime import resolve_transport

        transport = resolve_transport(None, backend)
        launches = []
        monkeypatch.setattr(
            transport, "launch", lambda *a, **kw: launches.append(a) or ([], [])
        )
        # 4 ranks; the size the record splits is 6, every other one divides
        cfg = ModelConfig(hidden=32, n_layers=4, n_heads=4, seq_len=8, vocab=23, ffn=64)
        spec = TrainSpec(cfg=cfg, n_microbatches=4, microbatch_size=1, iters=1)
        spec = replace(spec, **{
            "layers": {"cfg": cfg.with_(n_layers=6)},
            "heads": {"cfg": cfg.with_(hidden=48, n_heads=6)},
            "ffn": {"cfg": cfg.with_(ffn=66)},
            "seq": {"cfg": cfg.with_(seq_len=6)},
            "microbatches": {"n_microbatches": 6},
            "world": {},
        }[dim])
        with pytest.raises(ValueError, match="divisible|one worker"):
            train(spec, name, 4, fabric=transport)
        assert launches == []

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("flash_block", [0, -128])
    def test_bad_flash_block_fails_before_launch(
        self, monkeypatch, backend, flash_block
    ):
        """A block the streaming core cannot loop over is rejected where
        the config is built, not as a ``WorkerError`` out of ``P``
        launched ranks."""
        from repro.runtime import resolve_transport

        transport = resolve_transport(None, backend)
        launches = []
        monkeypatch.setattr(
            transport, "launch", lambda *a, **kw: launches.append(a) or ([], [])
        )
        with pytest.raises(ValueError, match="flash_block must be >= 1"):
            cfg = CFG.with_(flash_attention=True, flash_block=flash_block)
            train(replace(_spec(), cfg=cfg), "1f1b", 4, fabric=transport)
        assert launches == []
