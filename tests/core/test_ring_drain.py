"""The ring's drain: each turn's chunk contributions are added into the
circulating ``D`` in place.

The loss seed carries the microbatch mean, so a contribution arrives at
``1/N`` and the drain is one in-place add that allocates nothing
slot-sized.  On a non-exact wire format the running sum itself lives on
the fp16 grid.  No buffer the fabric pool hands out is read before it is
written: a pool that fills them with NaN trains every ring row to
serial's numbers.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro import FP32, FP64, MIXED, Adam, MasterWeightOptimizer, train
from repro.core.weipipe import RingLoop, train_weipipe
from repro.nn.params import BufferPool
from repro.nn.precision import fp16_round
from repro.runtime import Fabric
from repro.testing import SERIAL_TOL, compare_train_results, default_differential_spec

RING_RECORDS = ["weipipe-naive", "weipipe-interleave", "weipipe-zb", "weipipe-hier"]


def _nan_pool(monkeypatch):
    """Every buffer the fabric pool hands out (fresh or recycled) is NaN."""
    acquire = BufferPool.acquire

    def poisoned(self, numel, dtype):
        buf = acquire(self, numel, dtype)
        buf[...] = np.nan
        return buf

    monkeypatch.setattr(BufferPool, "acquire", poisoned)


def _spec(precision):
    spec = default_differential_spec(precision=precision)
    if precision is FP32:
        return replace(spec, cfg=spec.cfg.with_(dtype=np.float32))
    if precision is MIXED:
        return replace(spec, iters=4, make_optimizer=lambda: MasterWeightOptimizer(
            Adam(lr=3e-3), MIXED))
    return spec


@pytest.mark.parametrize("precision", [FP32, FP64, MIXED], ids=["fp32", "fp64", "mixed"])
@pytest.mark.parametrize("backend", ["thread", "process"])
def test_a_nan_filled_pool_trains_every_ring_row_to_serial(
        monkeypatch, precision, backend):
    spec = _spec(precision)
    ref = train(spec, "serial", 1)
    _nan_pool(monkeypatch)
    for name in RING_RECORDS:
        got = train(spec, name, 4, backend=backend)
        if precision is MIXED:
            # the equivalence suite's mixed-precision tolerance
            np.testing.assert_allclose(got.losses, ref.losses, rtol=1e-2)
            for chunk in got.chunks:
                assert all(np.isfinite(a).all() for a in chunk.values()), name
        else:
            assert compare_train_results(got, ref, spec, tol=SERIAL_TOL) is None, name


def test_a_steady_state_drain_allocates_nothing_slot_sized(monkeypatch):
    # 32 tokens against H = 64: the dense regime, where a D circulates
    spec = replace(default_differential_spec(precision=FP32, iters=3),
                   cfg=default_differential_spec().cfg.with_(
                       hidden=64, n_layers=2, seq_len=16, dtype=np.float32))
    peaks = []
    drain = RingLoop._drain_deferred

    def measured(self):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        drain(self)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)

    monkeypatch.setattr(RingLoop, "_drain_deferred", measured)
    loops = []
    init = RingLoop.__init__

    def keep(self, *a, **kw):
        init(self, *a, **kw)
        loops.append(self)

    monkeypatch.setattr(RingLoop, "__init__", keep)
    # one rank: no other thread allocates while a drain is measured
    tracemalloc.start()
    try:
        train_weipipe(spec, 1, fabric=Fabric(1))
    finally:
        tracemalloc.stop()
    (loop,) = loops
    slot_bytes = sum(w.nbytes(w.common_dtype.itemsize) for w in loop.bwd_slot.values())
    steady = peaks[len(peaks) // spec.iters:]  # past the first iteration
    assert steady and max(steady) < 0.01 * slot_bytes, (max(steady), slot_bytes)


def test_a_mixed_drain_leaves_d_on_the_fp16_grid(monkeypatch):
    # D is the fp16 wire format: after every drain each element is an
    # fp16 value, whatever the float32 sum of the last add came to.
    spec = _spec(MIXED)
    drained = []
    drain = RingLoop._drain_deferred

    def checked(self):
        ids = {i for i, _ in self._deferred}
        drain(self)
        for i in ids:
            for a in self.grad_slot[i].values():
                np.testing.assert_array_equal(fp16_round(a), a)
        drained.append(len(ids))

    monkeypatch.setattr(RingLoop, "_drain_deferred", checked)
    train(spec, "weipipe-interleave", 4)
    assert sum(drained) >= spec.iters * spec.n_microbatches * spec.cfg.n_layers
