"""The one ring engine across its two inputs: posting placement
(``overlap``) and group layout (``topology``).

Bit-exactness is the contract (both inputs change *when* communication
happens and *what a hop carries*, never *what* is computed), and the
buffer pool must reach a steady state where whole iterations run without
acquiring a single fresh buffer (the allocation-regression gate).
"""

import numpy as np
import pytest

from repro.core.weipipe import train_weipipe
from repro.nn import FP32, FP64, ModelConfig
from repro.parallel.common import TrainSpec
from repro.runtime import ChaosPolicy, Fabric, Topology

MODES = ["naive", "interleave", "zero-bubble"]
#: group layout is one more input of the one ring engine.
LAYOUTS = [None, "1x4", "2x2"]
_layout_ids = ["flat", "1x4", "2x2"]


def _topo(layout):
    return None if layout is None else Topology.grid(4, layout)


def _assert_identical(chunks_a, chunks_b):
    for a, b in zip(chunks_a, chunks_b):
        assert a.max_abs_diff(b) == 0.0


def _spec(precision=FP64, iters=2, nmb=4):
    cfg = ModelConfig(hidden=8, n_layers=8, n_heads=2, seq_len=8, vocab=16)
    return TrainSpec(
        cfg=cfg, n_microbatches=nmb, microbatch_size=2, iters=iters,
        seed=3, precision=precision,
    )


class TestBitExactness:
    @pytest.mark.parametrize("layout", LAYOUTS, ids=_layout_ids)
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("precision", [FP32, FP64], ids=["fp32", "fp64"])
    def test_overlap_equals_sync(self, mode, precision, layout):
        spec = _spec(precision=precision)
        topo = _topo(layout)
        sync = train_weipipe(spec, 4, mode=mode, fabric=Fabric(4),
                             overlap=False, topology=topo)
        ovl = train_weipipe(spec, 4, mode=mode, fabric=Fabric(4),
                            overlap=True, topology=topo)
        assert sync.losses == ovl.losses
        _assert_identical(sync.chunks, ovl.chunks)
        if topo is not None:
            # hier == flat closes the square: the sync flat ring is the
            # reference every other (overlap, layout) cell is diffed against.
            flat = train_weipipe(spec, 4, mode=mode, fabric=Fabric(4),
                                 overlap=False)
            assert flat.losses == ovl.losses
            _assert_identical(flat.chunks, ovl.chunks)

    @pytest.mark.parametrize("layout", LAYOUTS, ids=_layout_ids)
    @pytest.mark.parametrize("mode", MODES)
    def test_overlap_equals_sync_under_chaos(self, mode, layout):
        policy = ChaosPolicy(seed=5)
        spec = _spec()
        topo = _topo(layout)
        sync = train_weipipe(
            spec, 4, mode=mode, overlap=False, topology=topo,
            fabric=Fabric(4, policy=policy, timeout=60.0),
        )
        ovl = train_weipipe(
            spec, 4, mode=mode, overlap=True, topology=topo,
            fabric=Fabric(4, policy=policy, timeout=60.0),
        )
        assert sync.losses == ovl.losses
        _assert_identical(sync.chunks, ovl.chunks)

    @pytest.mark.parametrize("layout", LAYOUTS, ids=_layout_ids)
    def test_overlap_traffic_matches_sync(self, layout):
        """Same logical messages and bytes for both posting placements."""
        spec = _spec()
        topo = _topo(layout)
        f_sync, f_ovl = Fabric(4), Fabric(4)
        train_weipipe(spec, 4, mode="interleave", fabric=f_sync,
                      overlap=False, topology=topo)
        train_weipipe(spec, 4, mode="interleave", fabric=f_ovl,
                      overlap=True, topology=topo)
        assert f_sync.stats.messages == f_ovl.stats.messages
        assert f_sync.stats.bytes_total == f_ovl.stats.bytes_total
        assert f_sync.stats.by_kind == f_ovl.stats.by_kind

    def test_one_group_topology_is_the_flat_ring(self):
        """No hop of a 1xP layout crosses, so the codec hooks are inert:
        same results, same wire, and a result ledger with zero crossings."""
        spec = _spec()
        f_flat, f_one = Fabric(4), Fabric(4)
        flat = train_weipipe(spec, 4, fabric=f_flat, topology=None)
        one = train_weipipe(spec, 4, fabric=f_one,
                            topology=Topology.grid(4, "1x4"))
        assert flat.losses == one.losses
        _assert_identical(flat.chunks, one.chunks)
        assert f_flat.stats.by_kind == f_one.stats.by_kind
        assert f_flat.stats.messages == f_one.stats.messages
        # same ledger, plus the layout a topology-given run names
        assert set(one.extra) - set(flat.extra) == {"groups", "gateways"}
        assert set(flat.extra) <= set(one.extra)
        assert one.extra["groups"] == [[0, 1, 2, 3]]
        for result in (flat, one):
            assert result.extra["inter_full_sends"] == 0
            assert result.extra["inter_ref_sends"] == 0


class TestAllocationRegression:
    @pytest.mark.parametrize("layout", [None, "2x2"], ids=["flat", "2x2"])
    @pytest.mark.parametrize("overlap", [True, False], ids=["overlap", "sync"])
    def test_steady_state_allocations_are_zero(self, overlap, layout):
        """After the warmup iteration the pool must satisfy every weight
        buffer from its free list: the allocation counter stops moving —
        for both posting placements and across a group boundary."""
        spec = _spec(iters=5)
        fab = Fabric(4)
        result = train_weipipe(spec, 4, mode="interleave", fabric=fab,
                               overlap=overlap, topology=_topo(layout))
        allocs = result.extra["pool_allocs_by_iter"]
        assert len(allocs) == 5
        assert allocs[0] > 0  # warmup actually allocated
        # steady state: the pool serves from its free list.  Thread
        # interleaving can legitimately demand a buffer before its twin
        # is returned, so allow a couple of stragglers after warmup —
        # a real leak (>= 1 buffer/iteration) still blows the bound.
        assert allocs == sorted(allocs), allocs  # counter is cumulative
        assert allocs[-1] - allocs[0] <= 2, allocs

    def test_wire_wait_telemetry_present(self):
        spec = _spec(iters=2)
        result = train_weipipe(
            spec, 4, mode="interleave", fabric=Fabric(4), overlap=True
        )
        assert set(result.extra["wire_wait_s"]) == {0, 1, 2, 3}
        assert all(v >= 0.0 for v in result.extra["wire_wait_s"].values())
        assert all(v > 0.0 for v in result.extra["compute_s"].values())

    def test_compute_ledger_and_trace_agree_on_what_compute_is(self):
        """Every ``compute`` span — the update pass included — is in the
        worker's ``compute_s`` ledger, and nothing else is."""
        from repro.obs import Tracer

        tracer = Tracer()
        result = train_weipipe(_spec(iters=2), 2, fabric=Fabric(2, tracer=tracer))
        spans = {0: 0.0, 1: 0.0}
        names = set()
        for ev in tracer.chrome_trace()["traceEvents"]:
            if ev.get("ph") == "X" and ev.get("cat") == "compute":
                spans[ev["pid"]] += ev["dur"] / 1e6
                names.add(ev["name"])
        assert {"F", "B", "accum", "update"} <= names
        for rank, total in spans.items():
            assert result.extra["compute_s"][rank] == pytest.approx(total, rel=1e-6)
