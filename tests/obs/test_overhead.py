"""Tracing must be opt-in and free when off.

Two contracts, both load-bearing for "always-available observability":

* **bit-exactness** — a traced run produces identical losses and
  weights to an untraced run, for every strategy and precision.  The
  tracer only reads clocks and appends tuples; it must never perturb
  numerics or message order.
* **zero cost when off** — the null tracer's hot-path methods allocate
  nothing (pinned with tracemalloc), and the PR-3 steady-state pool
  allocation gate holds unchanged when tracing is ON (the tracer
  itself acquires no pooled buffers).
"""

import tracemalloc

import pytest

import repro.obs.tracer as tracer_mod
from repro.core.weipipe import train_weipipe
from repro.nn import FP32, FP64, ModelConfig
from repro.obs import NULL_RANK_TRACER, NULL_TRACER, Tracer
from repro.parallel.common import TrainSpec
from repro.runtime import Fabric
from repro.testing import compare_train_results


def _spec(precision=FP64, iters=2):
    cfg = ModelConfig(hidden=8, n_layers=8, n_heads=2, seq_len=8, vocab=16)
    return TrainSpec(
        cfg=cfg, n_microbatches=4, microbatch_size=2, iters=iters,
        seed=3, precision=precision,
    )


def _assert_identical(a, b):
    diff = compare_train_results(b, a, tol=0)
    assert diff is None, diff


class TestBitExactness:
    @pytest.mark.parametrize("mode", ["naive", "interleave", "zero-bubble"])
    @pytest.mark.parametrize("precision", [FP32, FP64], ids=["fp32", "fp64"])
    def test_traced_weipipe_equals_untraced(self, mode, precision):
        spec = _spec(precision=precision)
        plain = train_weipipe(spec, 4, mode=mode, fabric=Fabric(4))
        traced = train_weipipe(
            spec, 4, mode=mode, fabric=Fabric(4, tracer=Tracer())
        )
        _assert_identical(plain, traced)

    @pytest.mark.parametrize("overlap", [False, True], ids=["sync", "overlap"])
    def test_traced_equals_untraced_both_engines(self, overlap):
        spec = _spec()
        plain = train_weipipe(
            spec, 4, mode="interleave", fabric=Fabric(4), overlap=overlap
        )
        traced = train_weipipe(
            spec, 4, mode="interleave", fabric=Fabric(4, tracer=Tracer()),
            overlap=overlap,
        )
        _assert_identical(plain, traced)

    @pytest.mark.parametrize(
        "strategy,world",
        [("1f1b", 4), ("gpipe", 4), ("zb1", 4), ("fsdp", 4), ("serial", 1)],
    )
    def test_traced_equals_untraced_other_strategies(self, strategy, world):
        from repro import train

        spec = _spec()
        plain = train(spec, strategy, world, fabric=Fabric(world))
        traced = train(
            spec, strategy, world, fabric=Fabric(world, tracer=Tracer())
        )
        _assert_identical(plain, traced)

    def test_traced_run_actually_records(self):
        tr = Tracer()
        train_weipipe(_spec(), 4, mode="interleave", fabric=Fabric(4, tracer=tr))
        events = list(tr.events())
        assert events
        names = {e["name"] for e in events}
        assert {"iteration", "turn", "F", "B", "send", "update"} <= names


class TestZeroCostWhenOff:
    def test_untraced_fabric_defaults_to_null_tracer(self):
        fab = Fabric(2)
        assert fab.tracer is NULL_TRACER
        assert fab.tracer.rank(0) is NULL_RANK_TRACER

    def test_null_hot_path_allocates_nothing(self):
        """Steady-state null-tracer calls must not allocate: tracemalloc
        sees zero bytes attributed to the tracer module across 10k
        iterations of the hot-path call mix."""
        buf = NULL_TRACER.rank(0)
        # warm up any lazy interning outside the measured window
        for _ in range(10):
            with buf.span("F", "compute"):
                pass
            buf.complete("B", "compute", 0.0, 1.0)
            buf.instant("send", "comm")
            buf.counter("c", 1.0)
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            for _ in range(10_000):
                with buf.span("F", "compute"):
                    pass
                buf.complete("B", "compute", 0.0, 1.0)
                buf.instant("send", "comm")
                buf.counter("c", 1.0)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        stats = after.filter_traces(
            [tracemalloc.Filter(True, tracer_mod.__file__)]
        ).compare_to(
            before.filter_traces(
                [tracemalloc.Filter(True, tracer_mod.__file__)]
            ),
            "filename",
        )
        grown = sum(s.size_diff for s in stats if s.size_diff > 0)
        assert grown == 0, f"null tracer allocated {grown} bytes"

    def test_pool_allocation_gate_holds_with_tracing_on(self):
        """The PR-3 gate, extended: the traced overlap engine reaches
        the same pooled-buffer steady state as the untraced one."""
        spec = _spec(iters=5)
        result = train_weipipe(
            spec, 4, mode="interleave",
            fabric=Fabric(4, tracer=Tracer()), overlap=True,
        )
        allocs = result.extra["pool_allocs_by_iter"]
        assert allocs[0] > 0
        assert allocs == sorted(allocs)
        assert allocs[-1] - allocs[0] <= 2, allocs
