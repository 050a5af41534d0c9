"""A ring turn runs its backward before its forward.

The two tasks of a turn belong to different microbatches and both weight
slots have landed before either runs, so the order is free; B first puts
``B(slot P-1, m)`` directly after ``F(slot P-1, m)`` of the turn before,
which is what lets the checkpoint hand it the cache that forward left
(``repro.nn.checkpoint``).  That cache holds views into the forward-flow
slot of the turn before, which the worker has forwarded and replaced by
then.  Where slots travel by reference (threads, the shared arena) a
slot's buffer is its owner's and is never recycled; on a wire that
copies the receiver recycles it — and there the rule that parks it in
``_retired_fwd`` until the ring turns end is what keeps the kept cache
valid, so it is pinned across a fork.
"""

import numpy as np
import pytest

from repro import FP32, FP64, Adam, ModelConfig, TrainSpec
from repro.core.weipipe import RingLoop, train_weipipe
from repro.obs import Tracer
from repro.runtime import Fabric, ProcessTransport, run_workers
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


@pytest.mark.parametrize("arena", [{}, {"arena_bytes": 0}], ids=["mapped", "copied"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_process_backend_with_recompute_is_bit_identical_to_threads(dtype, arena):
    spec = _spec(dtype, iters=3, recompute=True)
    thread = train_weipipe(spec, WORLD)
    proc = train_weipipe(spec, WORLD, fabric=ProcessTransport(**arena))
    assert compare_train_results(proc, thread, tol=0) is None
    assert proc.extra["recompute"] == thread.extra["recompute"] == {
        "replayed": 3 * 4 * 3, "kept": 3 * 4,
    }


def test_kept_cache_reads_a_parked_forward_slot_never_a_recycled_one():
    spec = _spec(recompute=True)

    def worker(comm):
        w = RingLoop(comm, spec, "interleave")
        seen = []
        run_bwd = w.backward

        def checked(*args):
            warm = w.ck._warm
            if warm is not None:
                gain = dict(warm[1])["layer"][4][1]  # c_norm1 = (x, g, inv)
                held = [ps.arena for s in w._retired_fwd + [w.fwd_slot]
                        for ps in s.values()]
                free = [b for stack in w.pool._free.values() for b in stack]
                seen.append((
                    any(np.shares_memory(gain, a) for a in held),
                    any(np.shares_memory(gain, b) for b in free),
                ))
            return run_bwd(*args)

        w.backward = checked
        w.run_iteration(0)
        return seen, w.ck.kept, len(w._retired_fwd)

    # no arena: slots cross by copy and the receiver retires them.
    results = run_workers(WORLD, worker, fabric=ProcessTransport(arena_bytes=0))
    for seen, kept, still_parked in results:
        assert kept == 2  # this rank's two microbatches
        assert len(seen) >= kept
        assert all(held and not free for held, free in seen), seen
        assert still_parked == 0  # recycled when the ring turns ended
