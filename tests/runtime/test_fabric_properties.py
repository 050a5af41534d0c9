"""Property tests on the fabric: ordering, conservation, determinism.

Each property is checked on the plain instant-delivery :class:`Fabric`
and (where it must survive an adversarial wire) on seeded
``Fabric(policy=...)`` instances — the fabric contract is seed-invariant.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import ChaosPolicy, Fabric, all_reduce, run_workers

CHAOTIC = dict(delay_prob=0.8, max_delay=0.002, drop_prob=0.2, duplicate_prob=0.2,
               retry_delay=0.001)


def _fabric_for(world, chaos_seed):
    """chaos_seed None -> plain fabric, else a seeded adversary."""
    if chaos_seed is None:
        return Fabric(world)
    return Fabric(world, policy=ChaosPolicy(seed=chaos_seed, **CHAOTIC))


@given(
    payloads=st.lists(st.integers(-1000, 1000), min_size=1, max_size=30),
    chaos_seed=st.one_of(st.none(), st.integers(0, 1000)),
)
@settings(max_examples=40, deadline=None)
def test_property_fifo_per_tag(payloads, chaos_seed):
    """Messages on one (src, dst, tag) channel arrive in send order —
    on the instant wire and under any chaos adversary."""

    def fn(comm):
        if comm.rank == 0:
            for v in payloads:
                comm.send(v, 1, ("stream",))
            return None
        return [comm.recv(0, ("stream",)) for _ in payloads]

    results = run_workers(2, fn, fabric=_fabric_for(2, chaos_seed))
    assert results[1] == payloads


@given(
    schedule=st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(0, 999)),
        min_size=1,
        max_size=40,
    ),
    chaos_seed=st.one_of(st.none(), st.integers(0, 1000)),
)
@settings(max_examples=40, deadline=None)
def test_property_tag_match_isolation(schedule, chaos_seed):
    """Randomized interleaved sends on several tags: each tag's stream is
    received FIFO and uncontaminated by the other tags (MPI tag matching)."""
    by_tag = {}
    for tag, v in schedule:
        by_tag.setdefault(tag, []).append(v)

    def fn(comm):
        if comm.rank == 0:
            for tag, v in schedule:
                comm.send(v, 1, (tag,))
            return None
        # drain tags in a fixed (arbitrary) order, not the send order
        return {
            tag: [comm.recv(0, (tag,)) for _ in vals]
            for tag, vals in sorted(by_tag.items())
        }

    results = run_workers(2, fn, fabric=_fabric_for(2, chaos_seed))
    assert results[1] == by_tag


@given(
    n_msgs=st.integers(1, 15),
    chaos_seed=st.one_of(st.none(), st.integers(0, 1000)),
)
@settings(max_examples=30, deadline=None)
def test_property_poll_ready_recv_consistent(n_msgs, chaos_seed):
    """``poll()``/``_RecvHandle.ready()`` agree with ``recv``: ready-ness
    is monotonic (once True it stays True until consumed), a ready handle
    completes without blocking, and payloads keep FIFO order."""
    import time as _time

    def fn(comm):
        if comm.rank == 0:
            for i in range(n_msgs):
                comm.send(i, 1, ("pr",))
            return None
        got = []
        for _ in range(n_msgs):
            h = comm.irecv(0, ("pr",))
            deadline = _time.monotonic() + 5.0
            while not h.ready():
                assert _time.monotonic() < deadline, "ready() never flipped"
                _time.sleep(0.0002)
            # ready() implies poll() sees it too, and wait() must be instant
            assert h.ready()
            got.append(h.wait(timeout=0.5))
        # stream fully drained: poll reports empty
        assert not comm.fabric.poll(comm.rank, 0, ("pr",))
        return got

    results = run_workers(2, fn, fabric=_fabric_for(2, chaos_seed))
    assert results[1] == list(range(n_msgs))


@given(
    world=st.integers(2, 5),
    n_msgs=st.integers(1, 10),
)
@settings(max_examples=30, deadline=None)
def test_property_message_conservation(world, n_msgs):
    """Every byte sent is accounted exactly once in the traffic stats."""
    fab = Fabric(world)

    def fn(comm):
        for m in range(n_msgs):
            comm.send(np.zeros(8), comm.right, ("m", m))
        for m in range(n_msgs):
            comm.recv(comm.left, ("m", m))

    run_workers(world, fn, fabric=fab)
    assert fab.stats.messages == world * n_msgs
    assert fab.stats.bytes_total == world * n_msgs * 64


@given(
    world=st.integers(2, 5),
    size=st.integers(1, 200),
    seed=st.integers(0, 50),
)
@settings(max_examples=30, deadline=None)
def test_property_all_reduce_correct_and_deterministic(world, size, seed):
    """Ring all-reduce equals the serial sum and is bitwise repeatable."""

    def fn(comm):
        rng = np.random.default_rng((seed, comm.rank))
        local = rng.normal(size=size)
        return local, all_reduce(comm, local)

    r1 = run_workers(world, fn)
    r2 = run_workers(world, fn)
    total = np.sum([loc for loc, _ in r1], axis=0)
    for (_, red1), (_, red2) in zip(r1, r2):
        np.testing.assert_array_equal(red1, red2)  # determinism
        np.testing.assert_allclose(red1, total, rtol=1e-12)  # correctness
    # all ranks agree bitwise
    first = r1[0][1]
    for _, red in r1[1:]:
        np.testing.assert_array_equal(red, first)


def test_microbatch_determinism_across_call_sites():
    """Any worker regenerating a microbatch gets identical bits — the
    property replacing a shared data loader."""
    from repro import FP64, ModelConfig, TrainSpec
    from repro.parallel.common import microbatch

    cfg = ModelConfig(hidden=16, n_layers=2, n_heads=2, seq_len=8, vocab=13)
    spec = TrainSpec(cfg=cfg, n_microbatches=4, microbatch_size=2, precision=FP64)
    for it in range(3):
        for mb in range(4):
            a = microbatch(spec, it, mb)
            b = microbatch(spec, it, mb)
            np.testing.assert_array_equal(a[0], b[0])
            np.testing.assert_array_equal(a[1], b[1])
    # distinct (it, mb) pairs give distinct batches
    t1 = microbatch(spec, 0, 0)[0]
    t2 = microbatch(spec, 0, 1)[0]
    t3 = microbatch(spec, 1, 0)[0]
    assert not np.array_equal(t1, t2)
    assert not np.array_equal(t1, t3)
