"""The weight ring on the process wire never copies a slot, and the
arena holds only what an engine draws.

The ring engine states its per-rank pool working set before fork
(``ring_pool_bytes``), the process transport sizes each rank's shared
arena from it, and workers return their results by mapping.  Every other
payload — a collective's partial sum, a pipeline activation, a slot that
overflowed the arena — is copied through the rings and lands in private
memory the receiver owns.  These tests pin the formula to what the
workers really draw, cover the regime the differential shapes never
reached (a slot larger than the old constant arena), keep an undersized
arena loud and correct and an empty one bit-exact with every slot copied,
check that copied traffic leaves the pool and the arena flat, and
round-trip results through the descriptor codec.
"""

import gc
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro import FP32, FP64, ModelConfig, TrainSpec, train
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
    small, large = 2 * (32 << 10), 2 * (64 << 10)
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


def _wide_slot(microbatch):
    spec = replace(_spec(2, 1, np.float64, hidden=448, microbatches=2, iters=2),
                   microbatch_size=microbatch)
    pt = ProcessTransport()
    proc = train_weipipe(spec, 2, fabric=pt)
    thread = train_weipipe(spec, 2)
    assert compare_train_results(proc, thread, tol=0) is None
    assert proc.extra["arena_overflow_allocs"] == 0
    assert proc.extra["arena_overflow_bytes"] == 0
    allocs = proc.extra["pool_allocs_by_iter"]
    assert allocs[-1] - allocs[-2] == 0, allocs
    return spec


def test_wide_slot_trains_by_descriptor_bit_identically():
    # 19.4 MB slot -> 32 MiB span; the two a rank draws (B slot and D)
    # are 2x the 32 MiB constant every launch used to get (which once
    # meant extra allocations per steady iteration and by-copy slots).
    # 224 tokens against H = 448: above the regime boundary, a D circulates.
    spec = _wide_slot(28)
    assert ring_pool_bytes(spec, 2, 0) == 2 * (32 << 20) > DEFAULT_ARENA_BYTES


def test_a_factored_wide_slot_draws_the_b_slot_and_one_staged_bundle():
    # 8 tokens against H = 448: the gradient is formed in private memory,
    # so a rank draws its B slot's 32 MiB span and, for its one backward
    # on the other slot (P - 1 slots x N / P microbatches), one staged
    # bundle: 61 760 / 62 440 fp64 elements (chunk 0 / 1), a 512 KiB span
    spec = _wide_slot(1)
    assert [ring_pool_bytes(spec, 2, r) for r in range(2)] == [(32 << 20) + (512 << 10)] * 2


# -- (c) an undersized arena is loud and correct ------------------------------


def test_explicit_small_arena_overflows_loudly_and_correctly(monkeypatch):
    spec = _spec(2, 1, np.float64)
    need = ring_pool_bytes(spec, 2, 0)
    thread = train_weipipe(spec, 2)
    # the launch sizes each region as the stated working set plus the
    # headroom: state half the working set and no headroom.
    monkeypatch.setattr("repro.runtime.transport.process.DEFAULT_ARENA_BYTES", 0)
    monkeypatch.setattr("repro.core.weipipe.ring_pool_bytes",
                        lambda *a: need // 2)
    # the ranks inherit the warning filters at fork: the first fallback
    # comes back as the rank's error, with the numbers.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(WorkerError, match="shared arena exhausted"):
            train_weipipe(spec, 2, fabric=ProcessTransport())
    pt = ProcessTransport()
    res = train_weipipe(spec, 2, fabric=pt)
    assert compare_train_results(res, thread, tol=0) is None
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


# -- (d) one copy of each slot ------------------------------------------------


def _slots_after_an_update(spec):
    """Each rank's forward and B slots after one iteration (update and
    inject included), as objects and as arena locations."""
    from repro.core.weipipe import RingLoop

    def fn(comm):
        w = RingLoop(comm, spec, "interleave")
        w.run_iteration(0)
        arena = getattr(comm.fabric._wire, "arena", None)

        def where(slot):
            if arena is None:
                return None
            return {i: arena.locate(memoryview(ps.arena).cast("B"))
                    for i, ps in slot.items()}

        return {"fwd": w.fwd_slot, "bwd": w.bwd_slot,
                "fwd_at": where(w.fwd_slot), "bwd_at": where(w.bwd_slot)}
    return fn


@pytest.mark.parametrize("world", [2, 3, 4])
@pytest.mark.parametrize("backend", ["thread", "process"])
def test_the_forward_slot_is_its_owners_b_slot(world, backend):
    from repro.core.schedule import fwd_home, slot_owner

    spec = _spec(world, 1, np.float64, microbatches=world, iters=1)
    ranks = run_workers(world, _slots_after_an_update(spec), backend=backend)
    for slot in range(world):
        held, owner = ranks[fwd_home(slot, world)], ranks[slot_owner(slot, world)]
        if backend == "thread":
            assert held["fwd"] is owner["bwd"]
        else:  # same region (the owner's) and offset, not just equal bytes
            assert held["fwd_at"] == owner["bwd_at"]
            assert {r for r, _ in owner["bwd_at"].values()} == {
                slot_owner(slot, world)
            }


def _empty_arena(monkeypatch):
    """State no working set and no headroom: every rank's arena region is
    empty, every buffer an engine draws falls back to private memory, and
    every slot crosses the wire by copy."""
    monkeypatch.setattr("repro.runtime.transport.process.DEFAULT_ARENA_BYTES", 0)
    monkeypatch.setattr("repro.core.weipipe.ring_pool_bytes", lambda *a: 0)


def _draws_per_iteration(spec, world, mode, iters):
    """Per iteration, the pool misses of each forked rank's worker."""
    from repro.core.weipipe import RingLoop

    def fn(comm):
        pool = comm.fabric.shared_pool(BufferPool)
        w = RingLoop(comm, spec, mode)
        draws = [pool.misses]
        for it in range(iters):
            w.run_iteration(it)
            draws.append(pool.misses)
        return draws

    return run_workers(world, fn, backend=ProcessTransport())


@pytest.mark.parametrize("mode", ["interleave", "zero-bubble"])
@pytest.mark.parametrize("world", [2, 3, 4])
def test_copying_wire_adopts_private_copies_bit_exactly(world, mode,
                                                          monkeypatch):
    # world 3 has an owner that is its own forward home: one object in
    # both flows, which the ring must neither recycle nor copy twice.
    spec = _spec(world, 1, np.float64, microbatches=world, iters=3)
    thread = train_weipipe(spec, world, mode=mode)
    _empty_arena(monkeypatch)
    proc = train_weipipe(spec, world, mode=mode, fabric=ProcessTransport())
    assert compare_train_results(proc, thread, tol=0) is None
    assert proc.extra["arena_overflow_allocs"] > 0
    # the worker draws its B slot and D at construction and nothing
    # after: every later slot is a copy landed in private memory, which
    # the ring adopts and never recycles into its pool.
    for draws in _draws_per_iteration(spec, world, mode, iters=3):
        assert draws == [2] * 4, draws


@pytest.mark.parametrize("world", [2, 3, 4])
def test_no_rank_draws_a_forward_copy(world):
    from repro.runtime import Fabric

    spec = _spec(world, 1, np.float64, microbatches=world, iters=2)
    fabric = Fabric(world)
    train_weipipe(spec, world, fabric=fabric)
    model = sum(c.numel for c in spec.init_chunks()) * 8
    # every rank draws its owned B slot and its D, nothing else.
    assert fabric.shared_pool(BufferPool).bytes_allocated == 2 * model


# -- (e) results return by mapping --------------------------------------------


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


def _check_mixed(results, bump):
    for rank, res in enumerate(results):
        assert res["rank"] == rank
        want = np.arange(1000, dtype=np.float32) + rank + bump
        assert res["resident"].dtype == np.float32
        assert np.array_equal(res["resident"], want)
        assert res["struct"].arena is not None
        assert np.array_equal(res["struct"]["w"], np.full((3, 4), float(rank)))
        assert np.array_equal(res["private"], np.arange(7) * rank)
        assert res["leaves"] == ("text", 3.5, None, [1, 2])


def test_result_roundtrip_outlives_the_segment():
    before = set(os.listdir("/dev/shm"))
    results = run_workers(2, _mixed_result, backend="process")
    assert set(os.listdir("/dev/shm")) == before  # the segment has no name
    _check_mixed(results, 0.0)
    for res in results:
        res["resident"] += 1.0  # held, writable memory
    _check_mixed(results, 1.0)
    # a second launch maps a segment of its own: the first one's results
    # are neither reused nor freed by it, nor by a collection.
    _check_mixed(run_workers(2, _mixed_result, backend="process"), 0.0)
    gc.collect()
    _check_mixed(results, 1.0)
    for res in results:
        res["resident"] -= 1.0
    _check_mixed(results, 0.0)


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
    from repro.core.api import ZOO
    from repro.core.weipipe import RingLoop

    def fn(comm):
        loop = RingLoop.build(ZOO["weipipe-interleave"], spec, comm)
        _, chunks, _ = loop.report(*loop.train())
        return len(chunks) or None
    return fn


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_only_rank_zero_returns_the_model(backend):
    spec = _spec(2, 1, np.float64, iters=1)
    assert run_workers(2, _ring_worker_chunks(spec), backend=backend) == [2, None]


# -- (f) copied traffic lands in private memory -------------------------------


def _pool_ledger(strategy, spec):
    """Per rank, ``(allocations, arena_used, arena_overflow_allocs)`` after
    one process launch of ``spec``, with every ``RuntimeWarning`` in a
    rank (the arena's exhaustion warning among them) turned into that
    rank's error."""
    pt = ProcessTransport()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # inherited at fork
        train(spec, strategy, 2, fabric=pt)
    return [(p["allocations"], p["arena_used"], p["arena_overflow_allocs"])
            for p in pt.pools_by_rank]


@pytest.mark.parametrize("strategy", ["1f1b", "dp", "fsdp"])
def test_copied_payloads_leave_the_pool_and_arena_flat(strategy):
    # activations, gradient partial sums and gathered shards cross the
    # wire by copy.  Landed in pool buffers nobody released, they grew
    # the arena every iteration (fsdp by 28 buffers per iteration at the
    # long-context benchmark shape) until it was exhausted.
    k = 2
    ledgers = [_pool_ledger(strategy, _spec(2, 2, np.float64, iters=iters))
               for iters in (k, 2 * k)]
    assert ledgers[0] == ledgers[1], ledgers
    assert all(overflow == 0 for _, _, overflow in ledgers[1]), ledgers


def test_clipped_ring_draws_nothing_per_iteration():
    # the wp-clip all-reduce copies its partial norms through the wire;
    # they used to land in pool buffers the ring never released (two
    # allocations per iteration on top of the construction's two).
    spec = replace(_spec(2, 1, np.float64, iters=4), clip_norm=0.05)
    pt = ProcessTransport()
    res = train_weipipe(spec, 2, fabric=pt)
    assert compare_train_results(res, train_weipipe(spec, 2), tol=0) is None
    allocs = res.extra["pool_allocs_by_iter"]
    assert [b - a for a, b in zip(allocs, allocs[1:])] == [0] * 3, allocs
    assert res.extra["arena_overflow_allocs"] == 0
