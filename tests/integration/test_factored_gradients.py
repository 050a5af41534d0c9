"""Below the regime boundary every loop that keeps whole gradients forms
them from factor bundles — and they still agree bit for bit.

The cell is an anti-regime shape: 8 tokens a microbatch against
``H = 64``, so every chunk is factored (``chunk_factored``).  There the
ring circulates no ``D``: each backward on a slot another rank owns posts
its bundles to the owner, which forms the slot's gradient once per
iteration with one GEMM per weight over the stacked tokens — the same
formation serial and the pipeline stage run.  So every ring row, on
either wire and at either width, equals serial and ``1f1b`` exactly; the
message table prices the new ``factors`` row and the missing ``D``; and
the arena holds the B slot alone.
"""

import numpy as np
import pytest

from repro import FP32, FP64, MIXED, Adam, MasterWeightOptimizer, ModelConfig, TrainSpec, train
from repro.core.api import ZOO, strategy_names
from repro.core.weipipe import ring_pool_bytes, train_weipipe
from repro.nn.model import chunk_factored, chunk_param_count
from repro.runtime import Fabric, ProcessTransport
from repro.runtime.transport.shm import ShmArena
from repro.testing import check_ledger, compare_train_results

PRECISION = {"fp64": (FP64, np.float64), "fp32": (FP32, np.float32)}
#: every ring record at P = 2 and 4; the two-level ring needs 2 x 2.
RINGS = [(name, world) for name in strategy_names(family="ring") for world in (2, 4)
         if not (ZOO[name].hier and world == 2)]


def _cell(precision=FP64, dtype=np.float64, **kw):
    cfg = ModelConfig(hidden=64, n_layers=4, n_heads=4, seq_len=8, vocab=29, dtype=dtype)
    return TrainSpec(cfg=cfg, n_microbatches=4, microbatch_size=1, iters=2,
                     precision=precision, **kw)


def test_the_cell_is_below_the_boundary():
    cfg = _cell().cfg
    assert all(chunk_factored(cfg, i, cfg.seq_len) for i in range(cfg.n_layers))


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("precision", sorted(PRECISION))
def test_every_ring_row_equals_serial_and_1f1b_bitwise(precision, backend):
    spec = _cell(*PRECISION[precision])
    ref = train(spec, "serial", 1)
    for world in (2, 4):
        got = train(spec, "1f1b", world, backend=backend)
        assert compare_train_results(got, ref, tol=0) is None, ("1f1b", world)
    for name, world in RINGS:
        got = train(spec, name, world, backend=backend)
        assert compare_train_results(got, ref, tol=0) is None, (name, world)


def test_mixed_rings_stay_at_the_mixed_tolerance():
    spec = _cell(MIXED, np.float32, make_optimizer=lambda: MasterWeightOptimizer(
        Adam(lr=3e-3), MIXED))
    ref = train(spec, "serial", 1)
    for name, world in RINGS:
        got = train(spec, name, world)
        np.testing.assert_allclose(got.losses, ref.losses, rtol=1e-2)
        for chunk in got.chunks:
            assert all(np.isfinite(a).all() for a in chunk.values()), name


@pytest.mark.parametrize("name", ["weipipe-naive", "weipipe-interleave", "weipipe-zb",
                                  "1f1b", "zb1", "dp"])
@pytest.mark.parametrize("world", [2, 4])
def test_the_message_table_prices_the_factored_wire(name, world):
    spec = _cell()
    wire = Fabric(world)
    train(spec, name, world, fabric=wire)
    assert check_ledger(name, spec, world, wire) is None
    kinds = wire.metrics.total("fabric_messages_total", label="kind")
    if ZOO[name].family == "ring":
        assert kinds.get("factors") and not kinds.get("D"), kinds


def test_the_process_wire_matches_the_table_too():
    spec = _cell(FP32, np.float32)
    wire = ProcessTransport()
    train(spec, "weipipe-interleave", 2, fabric=wire)
    assert check_ledger("weipipe-interleave", spec, 2, wire) is None


def test_the_arena_holds_the_b_slot_alone():
    spec = _cell()
    itemsize = np.dtype(spec.cfg.dtype).itemsize
    for world in (2, 4):
        predicted = [ring_pool_bytes(spec, world, r) for r in range(world)]
        slots = [sum(ShmArena.span_nbytes(chunk_param_count(spec.cfg, i) * itemsize)
                     for i in range(spec.cfg.n_layers) if i * world // spec.cfg.n_layers
                     == (r - 1) % world) for r in range(world)]
        assert predicted == slots
        pt = ProcessTransport()
        res = train_weipipe(spec, world, fabric=pt)
        assert [p["arena_used"] for p in pt.pools_by_rank] == predicted
        assert res.extra["arena_overflow_allocs"] == 0
        allocs = res.extra["pool_allocs_by_iter"]
        assert allocs[-1] - allocs[0] == 0, allocs
