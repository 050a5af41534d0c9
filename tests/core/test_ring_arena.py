"""The weight ring on the process wire never copies a slot.

The ring engine states its per-rank pool working set before fork
(``ring_pool_bytes``), the process transport sizes each rank's shared
arena from it, and workers return their results by mapping.  These
tests pin the formula to what the workers really draw, cover the regime
the differential shapes never reached (a slot larger than the old
constant arena), keep the explicit ``arena_bytes`` modes honest, and
round-trip results through the descriptor codec.
"""

import os
import warnings

import numpy as np
import pytest

from repro import FP32, FP64, ModelConfig, TrainSpec
from repro.core.weipipe import ring_pool_bytes, train_weipipe
from repro.nn.params import BufferPool, ParamStruct
from repro.runtime import Communicator, ProcessTransport, run_workers
from repro.runtime.transport.base import WorkerError
from repro.runtime.transport.process import DEFAULT_ARENA_BYTES, _arena_pool
from repro.runtime.transport.shm import ShmArena
from repro.testing import compare_train_results

PRECISION = {np.float32: FP32, np.float64: FP64}


def _spec(world, per_slot, dtype, hidden=16, seq=8, microbatches=None, iters=3,
          vocab=29):
    cfg = ModelConfig(
        hidden=hidden, n_layers=world * per_slot, n_heads=2, seq_len=seq,
        vocab=vocab, dtype=dtype,
    )
    return TrainSpec(
        cfg=cfg, n_microbatches=microbatches or world, microbatch_size=1,
        iters=iters, precision=PRECISION[dtype],
    )


# -- (a) the working-set formula is what the workers draw ---------------------


#: ``(hidden, vocab)``: the differential shape, and one whose embedding
#: chunk (1024 elements) and head chunk (1032) straddle a power of two in
#: either dtype, so mirror slots ``j`` and ``P-1-j`` sit in different span
#: classes of the arena pool — an inject that retired one and drew the
#: other grew the arena by one span per iteration.
SHAPES = {"plain": (16, 29), "straddle": (8, 46)}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["naive", "interleave", "zero-bubble"])
@pytest.mark.parametrize("per_slot", [1, 2])
@pytest.mark.parametrize("world", [2, 4])
def test_arena_used_equals_prediction(world, per_slot, mode, dtype, shape):
    hidden, vocab = SHAPES[shape]
    spec = _spec(world, per_slot, dtype, hidden=hidden, vocab=vocab)
    pt = ProcessTransport()
    res = train_weipipe(spec, world, mode=mode, fabric=pt)
    predicted = [ring_pool_bytes(spec, world, r) for r in range(world)]
    assert [p["arena_used"] for p in pt.pools_by_rank] == predicted
    assert {p["arena_capacity"] for p in pt.pools_by_rank} == {
        max(predicted) + DEFAULT_ARENA_BYTES
    }
    assert res.extra["arena_overflow_allocs"] == 0
    assert pt.pool["arena_overflow_allocs"] == 0
    allocs = res.extra["pool_allocs_by_iter"]
    assert allocs[-1] - allocs[0] == 0, allocs


@pytest.mark.parametrize("world", [2, 4])
def test_every_draw_is_of_the_owned_slot(world):
    # vocab 70 puts the embedding chunk exactly on a power-of-two span
    # (4096 fp64 elements) and the head chunk, H elements larger, in the
    # next class — so a formula that still charged the forward slot
    # ``-rank`` to its holder instead of its owner is off on every rank
    # that owns either.
    cfg = ModelConfig(hidden=16, n_layers=world, n_heads=2, seq_len=8,
                      vocab=70, dtype=np.float64)
    spec = TrainSpec(cfg=cfg, n_microbatches=world, microbatch_size=1,
                     iters=1, precision=FP64)
    predicted = [ring_pool_bytes(spec, world, r) for r in range(world)]
    small, large = 3 * (32 << 10), 3 * (64 << 10)
    assert predicted[0] == large and predicted[1] == small  # head, embedding
    pt = ProcessTransport()
    res = train_weipipe(spec, world, fabric=pt)
    assert [p["arena_used"] for p in pt.pools_by_rank] == predicted
    assert res.extra["arena_overflow_allocs"] == 0


def test_hier_ring_draws_the_same_working_set():
    from repro.runtime import Topology

    spec = _spec(4, 1, np.float64, microbatches=4)
    topo = Topology.grid(4, "2x2")
    pt = ProcessTransport(topology=topo)
    res = train_weipipe(spec, 4, fabric=pt, topology=topo)
    assert [p["arena_used"] for p in pt.pools_by_rank] == [
        ring_pool_bytes(spec, 4, r) for r in range(4)
    ]
    assert res.extra["arena_overflow_allocs"] == 0


# -- (b) a slot larger than the old constant ----------------------------------


def test_wide_slot_trains_by_descriptor_bit_identically():
    # 9.8 MB slot -> 16 MiB span; three of them are 1.5x the 32 MiB
    # constant every launch used to get (which once meant 8 extra
    # allocations per steady iteration and by-copy slots).
    spec = _spec(2, 1, np.float64, hidden=320, microbatches=2, iters=2)
    assert ring_pool_bytes(spec, 2, 0) == 3 * (16 << 20) > DEFAULT_ARENA_BYTES
    pt = ProcessTransport()
    proc = train_weipipe(spec, 2, fabric=pt)
    thread = train_weipipe(spec, 2)
    assert compare_train_results(proc, thread, tol=0) is None
    assert proc.extra["arena_overflow_allocs"] == 0
    assert proc.extra["arena_overflow_bytes"] == 0
    allocs = proc.extra["pool_allocs_by_iter"]
    assert allocs[-1] - allocs[-2] == 0, allocs


# -- (c) explicit arena sizes are honoured ------------------------------------


def _wire_copies(comm: Communicator):
    return comm.fabric.wire_copies


def test_explicit_zero_arena_is_pure_copy():
    spec = _spec(2, 1, np.float64)
    pt = ProcessTransport(arena_bytes=0)
    res = train_weipipe(spec, 2, fabric=pt)
    assert compare_train_results(res, train_weipipe(spec, 2), tol=0) is None
    assert "arena_capacity" not in pt.pool
    assert res.extra["arena_overflow_allocs"] == 0
    assert run_workers(2, _wire_copies, backend=pt) == [True, True]


def test_explicit_small_arena_overflows_loudly_and_correctly():
    spec = _spec(2, 1, np.float64)
    need = ring_pool_bytes(spec, 2, 0)
    pt = ProcessTransport(arena_bytes=need // 2)  # the hint must not win
    res = train_weipipe(spec, 2, fabric=pt)
    assert compare_train_results(res, train_weipipe(spec, 2), tol=0) is None
    assert res.extra["arena_overflow_allocs"] > 0
    assert res.extra["arena_overflow_bytes"] > 0
    assert pt.pool["arena_overflow_allocs"] == res.extra["arena_overflow_allocs"]
    for pool in pt.pools_by_rank:
        assert pool["arena_capacity"] == need // 2
        assert pool["arena_overflow_allocs"] > 0


def test_first_overflow_warns_once_with_the_numbers():
    arena = ShmArena([memoryview(bytearray(256))], own=0)
    pool = _arena_pool(arena)
    pool.acquire(16, np.float64)  # 128-byte span
    pool.acquire(16, np.float64)  # region now full
    with pytest.warns(RuntimeWarning, match=r"256 of 256 bytes.*128-byte span"):
        private = pool.acquire(16, np.float64)
    assert arena.locate(memoryview(private).cast("B")) is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the second fallback is silent
        pool.acquire(4, np.float64)
    ledger = pool.as_dict()
    assert ledger["arena_overflow_allocs"] == 2
    assert ledger["arena_overflow_bytes"] == 128 + 32


# -- (d) results return by mapping --------------------------------------------


def _mixed_result(comm: Communicator):
    pool = comm.fabric.shared_pool(BufferPool)
    resident = pool.acquire(1000, np.float32)
    resident[:] = np.arange(1000, dtype=np.float32) + comm.rank
    struct = ParamStruct({"w": np.full((3, 4), float(comm.rank))}).to_arena(pool)
    return {
        "rank": comm.rank,
        "resident": resident,
        "struct": struct,
        "private": np.arange(7, dtype=np.int64) * comm.rank,
        "leaves": ("text", 3.5, None, [1, 2]),
    }


def test_result_roundtrip_outlives_the_segment():
    before = set(os.listdir("/dev/shm"))
    results = run_workers(2, _mixed_result, backend="process")
    assert set(os.listdir("/dev/shm")) == before  # segment already unlinked
    for rank, res in enumerate(results):
        assert res["rank"] == rank
        want = np.arange(1000, dtype=np.float32) + rank
        assert res["resident"].dtype == np.float32
        assert np.array_equal(res["resident"], want)
        assert res["struct"].arena is not None
        assert np.array_equal(res["struct"]["w"], np.full((3, 4), float(rank)))
        assert np.array_equal(res["private"], np.arange(7) * rank)
        assert res["leaves"] == ("text", 3.5, None, [1, 2])
        res["resident"] += 1.0  # owned, writable memory
        assert np.array_equal(res["resident"], want + 1.0)


def _resident_then_raise(comm: Communicator):
    comm.fabric.shared_pool(BufferPool).acquire(64, np.float64)
    if comm.rank == 1:
        raise KeyError("no such slot")
    return "fine"


def test_worker_error_comes_back_intact():
    with pytest.raises(WorkerError) as ei:
        run_workers(2, _resident_then_raise, backend="process")
    assert ei.value.rank == 1
    assert isinstance(ei.value.original, KeyError)
    assert ei.value.original.args == ("no such slot",)


def _ring_worker_chunks(spec):
    from repro.core.weipipe import _worker

    def fn(comm):
        res = _worker(comm, spec, "interleave", True, None)
        return None if res.chunks is None else len(res.chunks)
    return fn


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_only_rank_zero_returns_the_model(backend):
    spec = _spec(2, 1, np.float64, iters=1)
    assert run_workers(2, _ring_worker_chunks(spec), backend=backend) == [2, None]
