"""A ring turn runs its backward before its forward.

The two tasks of a turn belong to different microbatches and both weight
slots have landed before either runs, so the order is free; B first puts
``B(slot P-1, m)`` directly after ``F(slot P-1, m)`` of the turn before,
which is what lets the checkpoint hand it the cache that forward left
(``repro.nn.checkpoint``).  That cache holds views into the forward-flow
slot of the turn before, which the worker has forwarded and replaced by
then.  Slots travel by reference (threads) or by mapping (the process
wire's shared arena), so that buffer is its owner's; a slot that fell
back to private memory crosses by copy and lands in memory its receiver
owns.  Either way no rank ever recycles it: the kept cache stays valid
across a fork, which the bit-identity against threads pins on both.
"""

import numpy as np
import pytest

from repro import FP32, FP64, Adam, ModelConfig, TrainSpec
from repro.core.weipipe import train_weipipe
from repro.obs import Tracer
from repro.runtime import Fabric, ProcessTransport
from repro.testing import compare_train_results

WORLD = 2


def _spec(dtype=np.float64, iters=1, **kw):
    cfg = ModelConfig(hidden=16, n_layers=4, n_heads=2, seq_len=8, vocab=17,
                      dtype=dtype)
    return TrainSpec(
        cfg=cfg, n_microbatches=4, microbatch_size=1, iters=iters,
        precision=FP64 if dtype == np.float64 else FP32,
        make_optimizer=lambda: Adam(lr=1e-2), **kw,
    )


@pytest.mark.parametrize("mode", ["interleave", "zero-bubble"])
def test_every_turn_runs_b_before_f(mode):
    tracer = Tracer()
    res = train_weipipe(_spec(recompute=True), WORLD, mode=mode,
                        fabric=Fabric(WORLD, tracer=tracer))
    starts = {}
    for ev in tracer.chrome_trace()["traceEvents"]:
        if ev.get("ph") == "X" and ev["name"] in "FBW":
            key = (ev["pid"], ev["args"]["turn"])
            starts.setdefault(key, {})[ev["name"]] = ev["ts"]
    both = [s for s in starts.values() if "F" in s and "B" in s]
    assert both, "the schedule has turns that do both"
    assert all(s["B"] < s["F"] for s in both)
    assert all(s["F"] < s["W"] for s in starts.values() if "F" in s and "W" in s)
    # the order moved no microbatch's lifespan: the peaks are F-before-B's.
    assert res.extra["peak_inflight"] == {0: 2, 1: 2}


@pytest.mark.parametrize("arena", ["mapped", "copied"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_process_backend_with_recompute_is_bit_identical_to_threads(
        dtype, arena, monkeypatch):
    spec = _spec(dtype, iters=3, recompute=True)
    thread = train_weipipe(spec, WORLD)
    if arena == "copied":
        # empty arena regions: every slot falls back to private memory
        # and crosses by copy, so the kept cache reads a landed copy.
        monkeypatch.setattr(
            "repro.runtime.transport.process.DEFAULT_ARENA_BYTES", 0)
        monkeypatch.setattr("repro.core.weipipe.ring_pool_bytes",
                            lambda *a: 0)
    proc = train_weipipe(spec, WORLD, fabric=ProcessTransport())
    assert compare_train_results(proc, thread, tol=0) is None
    assert (proc.extra["arena_overflow_allocs"] > 0) == (arena == "copied")
    assert proc.extra["recompute"] == thread.extra["recompute"] == {
        "replayed": 3 * 4 * 3, "kept": 3 * 4,
    }

