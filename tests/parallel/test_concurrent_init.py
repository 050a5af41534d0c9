"""A process draws its weight chunks on every core, bit for bit.

``TrainSpec.init_chunks`` draws two or more chunks of at least
``CONCURRENT_DRAW_MIN`` elements on ``min(len(ids), usable_cores())``
threads, the calling one among them.  Each chunk still reads only its own
stream ``(seed, i)``, so the result must be the sequential draw's byte for
byte; every buffer comes from the caller (the pool's when one is passed),
and every thread is joined before the call returns — a launch that forks
right after must fork no thread.
"""

import os
import sys
import threading

import numpy as np
import pytest

from repro import FP32, FP64, MIXED, ModelConfig, TrainSpec, train
from repro.nn.model import chunk_param_count, init_chunk
from repro.nn.params import BufferPool
from repro.parallel import common
from repro.testing import compare_train_results

CORES = 2
PRECISIONS = {
    "fp32": (np.float32, FP32),
    "fp64": (np.float64, FP64),
    "mixed": (np.float32, MIXED),
}


def _spec(hidden=512, layers=4, dtype=np.float32, precision=FP32, **kw):
    cfg = ModelConfig(
        hidden=hidden, n_layers=layers, n_heads=8, seq_len=8, vocab=64,
        dtype=dtype,
    )
    return TrainSpec(cfg=cfg, seed=5, precision=precision, **kw)


def _bytes(chunks):
    return [c.arena.tobytes() for c in chunks]


@pytest.fixture
def cores(monkeypatch):
    """Every test sees ``CORES`` usable cores, whatever the machine has."""
    monkeypatch.setattr(common, "usable_cores", lambda: CORES)
    return CORES


@pytest.fixture
def starts(monkeypatch):
    """Threads started while the fixture is live (the tests start none
    of their own)."""
    started = []
    start = threading.Thread.start

    def counting(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return started


class _SpyingPool(BufferPool):
    """A pool that notes the thread of every ``acquire``."""

    __slots__ = ("acquired_on",)

    def __init__(self):
        super().__init__()
        self.acquired_on = []

    def acquire(self, numel, dtype):
        self.acquired_on.append(threading.get_ident())
        return super().acquire(numel, dtype)


def _sequential(spec, ids, monkeypatch):
    """The same call on one core: today's loop on the calling thread."""
    with monkeypatch.context() as m:
        m.setattr(common, "usable_cores", lambda: 1)
        return spec.init_chunks(ids)


class TestSameBytesAsTheSequentialDraw:
    @pytest.mark.parametrize("precision", sorted(PRECISIONS))
    @pytest.mark.parametrize("ids", [None, [3, 0, 2], [1, 1, 2]])
    def test_chunks(self, cores, starts, monkeypatch, precision, ids):
        dtype, policy = PRECISIONS[precision]
        spec = _spec(dtype=dtype, precision=policy)
        got = spec.init_chunks(ids)
        n = len(got)
        assert len(starts) == min(n, cores) - 1
        assert _bytes(got) == _bytes(_sequential(spec, ids, monkeypatch))
        if policy is not MIXED:  # the stored format is the array's own
            want = range(spec.cfg.n_layers) if ids is None else ids
            assert _bytes(got) == _bytes(init_chunk(spec.cfg, 5, i) for i in want)

    def test_repeated_ids_get_their_own_buffers(self, cores):
        a, b = _spec().init_chunks([2, 2])
        assert not np.shares_memory(a.arena, b.arena)
        assert a.arena.tobytes() == b.arena.tobytes()

    @pytest.mark.parametrize("precision", sorted(PRECISIONS))
    def test_into_a_fresh_pool(self, cores, monkeypatch, precision):
        dtype, policy = PRECISIONS[precision]
        spec, pool, ids = _spec(dtype=dtype, precision=policy), _SpyingPool(), [2, 0, 3]
        got = spec.init_chunks(ids, pool=pool)
        assert pool.allocations == len(ids)  # one buffer per chunk, as before
        # every buffer is acquired by the caller: the drawing threads only fill
        assert pool.acquired_on == [threading.get_ident()] * len(ids)
        assert _bytes(got) == _bytes(_sequential(spec, ids, monkeypatch))

    def test_into_the_pools_own_buffers(self, cores):
        """A stocked pool serves every chunk: no allocation, and the chunks
        live in the very buffers that were released to it."""
        spec, pool, ids = _spec(), BufferPool(), [0, 1, 2, 3]
        stock = [
            pool.acquire(chunk_param_count(spec.cfg, i), spec.cfg.dtype)
            for i in ids
        ]
        for buf in stock:
            pool.release(buf)
        before = pool.allocations
        got = spec.init_chunks(ids, pool=pool)
        assert pool.allocations == before
        assert all(
            any(np.shares_memory(c.arena, buf) for buf in stock) for c in got
        )
        assert _bytes(got) == _bytes(init_chunk(spec.cfg, 5, i) for i in ids)


class TestThreads:
    def test_below_the_gate_starts_none(self, cores, starts):
        spec = _spec(hidden=64)
        assert max(chunk_param_count(spec.cfg, i) for i in range(4)) < common.CONCURRENT_DRAW_MIN
        spec.init_chunks()
        assert starts == []

    def test_one_chunk_starts_none(self, cores, starts):
        _spec().init_chunks([1])
        assert starts == []

    def test_one_core_starts_none(self, monkeypatch, starts):
        monkeypatch.setattr(common, "usable_cores", lambda: 1)
        _spec().init_chunks()
        assert starts == []

    def test_one_thread_per_core_at_most(self, monkeypatch, starts):
        monkeypatch.setattr(common, "usable_cores", lambda: 3)
        _spec().init_chunks()  # four chunks, three cores
        assert len(starts) == 2

    def test_more_threads_than_cores_under_fast_switching(self, monkeypatch):
        """Four drawing threads on whatever this box has, switching every
        microsecond: each chunk is still written once, by its own thread."""
        monkeypatch.setattr(common, "usable_cores", lambda: 4)
        spec = _spec()
        ref = _sequential(spec, None, monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = spec.init_chunks()
        finally:
            sys.setswitchinterval(interval)
        assert _bytes(got) == _bytes(ref)

    def test_every_thread_is_joined(self, cores, starts):
        before = threading.active_count()
        _spec().init_chunks()
        assert starts and not any(t.is_alive() for t in starts)
        assert threading.active_count() == before

    def test_a_failed_draw_raises_after_the_join(self, cores, starts, monkeypatch):
        def failing(cfg, seed, idx, *args):
            if idx == 1:
                raise RuntimeError("draw failed")
            return init_chunk(cfg, seed, idx, *args)

        monkeypatch.setattr(common, "init_chunk", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="draw failed"):
            _spec().init_chunks()
        assert threading.active_count() == before


class TestUsableCores:
    def test_affinity_mask(self):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no affinity mask on this platform")
        assert common.usable_cores() == len(os.sched_getaffinity(0))

    def test_falls_back_to_the_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert common.usable_cores() == os.cpu_count()


def test_process_launch_right_after_a_concurrent_draw(cores):
    """The launcher draws on two threads and forks at once; each rank then
    draws its two above-gate chunks on two threads of its own."""
    spec = _spec(n_microbatches=2, microbatch_size=1, iters=1)
    world = 2
    per_rank = spec.cfg.n_layers // world
    assert per_rank == 2 and all(
        chunk_param_count(spec.cfg, i) >= common.CONCURRENT_DRAW_MIN
        for i in range(spec.cfg.n_layers)
    )
    before = threading.active_count()
    spec.init_chunks()
    assert threading.active_count() == before
    process = train(spec, "weipipe-interleave", world, backend="process")
    thread = train(spec, "weipipe-interleave", world)
    assert compare_train_results(process, thread, tol=0) is None
