"""Transport layer tests: shm rings, frame codec, arena descriptors,
control block, backend resolution, and the process transport end to end.

The thread transport is the semantic oracle; everything here checks that
the shared-memory machinery under ``ProcessTransport`` preserves it —
FIFO per link, CRC-checked frames, zero-copy arena descriptors, the one
chaos layer.  Failure paths (abort, peer death, join timeout, corrupt
flows, killed children) are tested once over both wires in
``test_failure_paths.py``; the codec's stateful fuzz and bit sweep live
in ``test_shm_fuzz.py``.
"""

import os
import time

import numpy as np
import pytest

from repro.runtime import (
    Communicator,
    CorruptFrameError,
    Fabric,
    FailureDetector,
    ProcessTransport,
    ThreadTransport,
    Transport,
    run_workers,
)
from repro.runtime.communicator import Fabric
from repro.runtime.launcher import resolve_transport
from repro.runtime.transport.base import Deadline, join_group
from repro.runtime.transport.shm import (
    ControlBlock,
    FrameDecoder,
    ShmArena,
    ShmRing,
    arena_offset,
    encode_frame,
    ring_offset,
    ring_segment_size,
)
from repro.runtime.chaos import ChaosPolicy


@pytest.fixture(autouse=True)
def no_leftover_segment():
    """Every test in this module must leave ``/dev/shm`` as it found it:
    the launcher owns one segment per launch and unlinks it on every
    exit path (clean, ``WorkerError``, abort, parent join timeout)."""
    before = set(os.listdir("/dev/shm"))
    yield
    leaked = sorted(set(os.listdir("/dev/shm")) - before)
    assert not leaked, f"left /dev/shm segment(s): {leaked}"


# -- ShmRing -----------------------------------------------------------------


def _ring(capacity):
    buf = memoryview(bytearray(ShmRing.HEADER + capacity))
    return ShmRing(buf, capacity, create=True)


def test_ring_roundtrip_and_accounting():
    ring = _ring(16)
    assert ring.readable() == 0
    assert ring.writable() == 16
    assert ring.write_some(memoryview(b"hello")) == 5
    assert ring.readable() == 5
    assert ring.writable() == 11
    out = memoryview(bytearray(5))
    assert ring.read_into(out) == 5
    assert bytes(out) == b"hello"
    assert ring.readable() == 0


def test_ring_wraparound_preserves_byte_order():
    ring = _ring(8)
    # advance positions so the next write straddles the physical end.
    ring.write_some(memoryview(b"aaaaa"))
    ring.read_into(memoryview(bytearray(5)))
    msg = b"wrapped!"  # 8 bytes across the 8-byte ring boundary
    assert ring.write_some(memoryview(msg)) == 8
    out = memoryview(bytearray(8))
    assert ring.read_into(out) == 8
    assert bytes(out) == msg


def test_ring_partial_write_when_full():
    ring = _ring(4)
    assert ring.write_some(memoryview(b"abcdef")) == 4  # truncated to fit
    assert ring.write_some(memoryview(b"x")) == 0  # full
    out = memoryview(bytearray(4))
    assert ring.read_into(out) == 4
    assert bytes(out) == b"abcd"


def test_ring_rejects_short_slice():
    buf = memoryview(bytearray(ShmRing.HEADER + 3))
    with pytest.raises(ValueError):
        ShmRing(buf, 8)


def test_ring_offsets_are_disjoint():
    world, control, link = 4, 128, 256
    slot = ShmRing.HEADER + link
    offsets = [
        ring_offset(s, d, world, control, link)
        for s in range(world)
        for d in range(world)
        if s != d
    ]
    assert len(set(offsets)) == world * (world - 1)
    assert min(offsets) >= control
    assert max(offsets) + slot <= ring_segment_size(world, control, link)
    # arena regions start exactly where the rings end.
    assert arena_offset(0, world, control, link, 4096) == ring_segment_size(
        world, control, link
    )
    assert arena_offset(2, world, control, link, 4096) - arena_offset(
        1, world, control, link, 4096
    ) == 4096


# -- ShmArena ----------------------------------------------------------------


def test_span_nbytes_power_of_two_classes():
    assert ShmArena.span_nbytes(1) == ShmArena.ALIGN
    assert ShmArena.span_nbytes(64) == 64
    assert ShmArena.span_nbytes(65) == 128
    assert ShmArena.span_nbytes(4096) == 4096
    assert ShmArena.span_nbytes(4097) == 8192


def _arena(nbytes=1 << 14, regions=1, own=0):
    views = [memoryview(bytearray(nbytes)) for _ in range(regions)]
    return ShmArena(views, own)


def test_arena_alloc_exact_size_pow2_reservation():
    arena = _arena()
    buf = arena.alloc(100, np.float64)  # 800 bytes -> 1024-byte span
    assert buf.shape == (100,)
    assert buf.dtype == np.float64
    assert arena.used == 1024
    # next allocation starts beyond the reserved span, aligned.
    buf2 = arena.alloc(8, np.float64)
    assert arena.locate(memoryview(buf2.view(np.uint8)))[1] == 1024


def test_arena_locate_and_view_map_same_memory():
    arena = _arena()
    buf = arena.alloc(32, np.float32)
    buf[:] = np.arange(32, dtype=np.float32)
    loc = arena.locate(memoryview(buf.view(np.uint8)))
    assert loc is not None
    region, offset = loc
    mapped = arena.view(region, offset, buf.nbytes, np.float32)
    assert np.array_equal(mapped, buf)
    mapped[0] = -1.0  # a view, not a copy
    assert buf[0] == -1.0


def test_arena_locate_rejects_private_memory():
    arena = _arena()
    private = np.arange(16, dtype=np.float64)
    assert arena.locate(memoryview(private.view(np.uint8))) is None


def test_arena_exhaustion_returns_none():
    arena = _arena(nbytes=256)
    assert arena.alloc(16, np.float64) is not None  # 128-byte span
    assert arena.alloc(16, np.float64) is not None  # region now full
    with pytest.warns(RuntimeWarning, match="256 of 256 bytes"):
        assert arena.alloc(1, np.float64) is None


def test_arena_view_out_of_range_raises():
    arena = _arena(nbytes=256)
    with pytest.raises(ValueError):
        arena.view(0, 192, 128, np.uint8)


# -- frame codec -------------------------------------------------------------


def _pump(chunks, decoder_ring):
    for chunk in chunks:
        mv = memoryview(chunk)
        while len(mv):
            n = decoder_ring.write_some(mv)
            assert n > 0, "test ring too small for frame"
            mv = mv[n:]


def _pool_acquire(numel, dtype):
    return np.empty(numel, dtype=dtype)


def test_codec_roundtrip_with_integrity():
    payload = {"w": np.arange(50, dtype=np.float64), "note": "hi"}
    chunks = encode_frame(payload, ("weights", 3), 400, seq=7, integrity=True)
    ring = _ring(1 << 12)
    dec = FrameDecoder(ring, _pool_acquire)
    _pump(chunks, ring)
    frame = dec.poll()
    assert frame is not None
    assert frame.seq == 7
    assert frame.tag == ("weights", 3)
    assert frame.nbytes == 400
    assert frame.crc is not None and frame.crc == frame.crc_actual
    assert np.array_equal(frame.payload["w"], payload["w"])
    assert frame.payload["note"] == "hi"


def test_codec_roundtrip_without_integrity():
    chunks = encode_frame([1, 2, 3], ("act",), 24, seq=0, integrity=False)
    ring = _ring(1 << 10)
    dec = FrameDecoder(ring, _pool_acquire)
    _pump(chunks, ring)
    frame = dec.poll()
    assert frame.crc is None
    assert frame.payload == [1, 2, 3]


def test_codec_detects_corrupted_wire_bytes():
    payload = np.arange(64, dtype=np.float64)
    chunks = encode_frame(payload, ("w",), 512, seq=1, integrity=True)
    chunks = [bytearray(bytes(c)) for c in chunks]
    chunks[-1][8] ^= 0xFF  # flip one payload byte after the header
    ring = _ring(1 << 11)
    dec = FrameDecoder(ring, _pool_acquire)
    _pump(chunks, ring)
    with pytest.raises(CorruptFrameError, match="payload CRC"):
        dec.poll()


def test_codec_streams_frame_larger_than_ring():
    payload = np.arange(1024, dtype=np.float64)  # 8 KiB body
    chunks = encode_frame(payload, ("big",), payload.nbytes, seq=2)
    ring = _ring(256)  # far smaller than the frame
    dec = FrameDecoder(ring, _pool_acquire)
    frame = None
    pending = [memoryview(c) for c in chunks]
    while frame is None:
        while pending:
            n = ring.write_some(pending[0])
            if n == 0:
                break
            pending[0] = pending[0][n:]
            if not len(pending[0]):
                pending.pop(0)
        frame = dec.poll()
    assert np.array_equal(frame.payload, payload)
    assert frame.crc == frame.crc_actual


def test_codec_arena_descriptor_ships_zero_payload_bytes():
    arena = _arena(1 << 14)
    body = arena.alloc(512, np.float64)
    body[:] = np.arange(512, dtype=np.float64)
    private = np.arange(512, dtype=np.float64)

    with_desc = encode_frame(body, ("w",), body.nbytes, 0, arena=arena)
    by_copy = encode_frame(private, ("w",), private.nbytes, 0, arena=arena)
    # the descriptor frame elides the 4 KiB body entirely: a few hundred
    # bytes of header+meta+blob, vs header+meta+blob+body for the copy.
    assert sum(len(c) for c in with_desc) < 512
    assert sum(len(c) for c in by_copy) >= body.nbytes

    ring = _ring(1 << 12)
    dec = FrameDecoder(ring, _pool_acquire, arena=arena)
    _pump(with_desc, ring)
    frame = dec.poll()
    assert frame.crc == frame.crc_actual
    assert np.array_equal(frame.payload, body)
    # by mapping, not by copy: the decoded array aliases the arena bytes.
    frame.payload[0] = -5.0
    assert body[0] == -5.0


# -- ControlBlock ------------------------------------------------------------


def test_control_block_abort_and_fail():
    world = 3
    buf = memoryview(bytearray(ControlBlock.size(world)))
    ctrl = ControlBlock(buf, world, create=True)
    assert ctrl.aborted() is None
    assert ctrl.fail_count() == 0

    ctrl.fail(1, "worker died", step=7)
    assert ctrl.is_failed(1)
    assert not ctrl.is_failed(0)
    assert ctrl.failed() == {1: ("worker died", 7)}
    assert ctrl.fail_count() == 1

    ctrl.abort("fatal")
    assert ctrl.aborted() == "fatal"

    # a second attach (no create) sees the same state.
    again = ControlBlock(buf, world)
    assert again.aborted() == "fatal"
    assert again.failed() == {1: ("worker died", 7)}


def test_control_block_keeps_the_first_abort_and_its_rank():
    ctrl = ControlBlock(memoryview(bytearray(ControlBlock.size(2))), 2,
                        create=True)
    assert ctrl.abort_rank() is None
    ctrl.abort("rank 1 raised RuntimeError()", 1)
    ctrl.abort("rank 0 raised FabricAborted()", 0)  # a consequence
    assert ctrl.aborted() == "rank 1 raised RuntimeError()"
    assert ctrl.abort_rank() == 1
    timeout = ControlBlock(memoryview(bytearray(ControlBlock.size(2))), 2,
                           create=True)
    timeout.abort("join timeout")
    assert timeout.aborted() == "join timeout"
    assert timeout.abort_rank() is None


# -- backend resolution and policy gate --------------------------------------


def test_resolve_transport_combinations():
    assert isinstance(resolve_transport(), ThreadTransport)
    assert isinstance(resolve_transport(backend="thread"), ThreadTransport)
    assert isinstance(resolve_transport(backend="process"), ProcessTransport)

    fab = Fabric(2)
    tt = resolve_transport(fabric=fab)
    assert isinstance(tt, ThreadTransport)

    pt = ProcessTransport()
    assert resolve_transport(fabric=pt) is pt
    assert resolve_transport(backend=pt) is pt

    with pytest.raises(ValueError, match="cannot share an in-process fabric"):
        resolve_transport(fabric=fab, backend="process")
    with pytest.raises(ValueError, match="unknown backend"):
        resolve_transport(backend="carrier-pigeon")


def test_process_takes_any_policy_but_refuses_heartbeats(monkeypatch):
    """One fabric, one refusal: every chaos knob is accepted, and the
    failure detector — with ``flap_rank``, which is defined in terms of
    heartbeats — raises from ``launch`` before anything is forked or any
    segment created."""
    import multiprocessing.context as mp_context

    assert ProcessTransport.name == "process"
    assert ThreadTransport.name == "thread"
    assert issubclass(ProcessTransport, Transport)
    everything = ChaosPolicy(
        seed=0, bitflip_prob=0.5, flap_prob=0.5, stall_prob=0.5,
        max_stall=0.001, crash_rank=1, crash_at_post=99,
        flaps=((0, 1, 0, 2),),
    )
    assert ProcessTransport(policy=everything).policy is everything

    forked = []
    monkeypatch.setattr(
        mp_context.ForkProcess, "start", lambda self: forked.append(self)
    )
    flapping = ChaosPolicy(
        seed=0, flap_rank=1, flap_rank_at_post=1, flap_rank_duration=0.1
    )
    for transport, detector in (
        (ProcessTransport(), FailureDetector()),
        (ProcessTransport(policy=flapping), None),
    ):
        with pytest.raises(ValueError, match="failure detector"):
            transport.launch(2, lambda comm: None, 10.0, True,
                             detector=detector)
    assert not forked  # and the autouse fixture checks /dev/shm


# -- Deadline / join_group ---------------------------------------------------


def test_deadline_budget_and_expiry():
    dl = Deadline(0.05)
    assert dl.remaining() > 0
    assert dl.budget(cap=0.01) <= 0.01
    time.sleep(0.06)
    assert dl.expired()
    assert dl.remaining() == 0.0


def test_join_group_times_out_on_stuck_worker():
    import threading

    release = threading.Event()
    t = threading.Thread(target=release.wait, daemon=True)
    t.start()
    poisoned = []
    try:
        with pytest.raises(TimeoutError):
            join_group([t], Deadline(0.05), on_timeout=lambda: poisoned.append(1))
        assert poisoned == [1]
    finally:
        release.set()
        t.join()


# -- ProcessTransport end to end ---------------------------------------------


def _pingpong(comm: Communicator):
    peer = 1 - comm.rank
    mine = np.full(1000, float(comm.rank), dtype=np.float64)
    comm.send(mine, peer, tag=("data",))
    comm.send(comm.rank * 10, peer, tag=("meta",))  # separate tag namespace
    got = comm.recv(peer, tag=("data",))
    meta = comm.recv(peer, tag=("meta",))
    assert np.all(got == float(peer))
    assert meta == peer * 10
    return comm.rank


def test_process_pingpong_and_merged_stats():
    pt = ProcessTransport()
    results = run_workers(2, _pingpong, timeout=60.0, backend=pt)
    assert results == [0, 1]
    assert pt.stats.messages >= 4
    assert pt.pool is not None
    assert pt.pool["backend"] == "process"
    assert pt.pool.get("arena_capacity", 0) > 0


def test_process_world_one_falls_back_inline():
    results = run_workers(1, lambda comm: comm.rank, backend="process")
    assert results == [0]


def test_process_world_one_keeps_policy_integrity_and_telemetry():
    """The inline world-1 path runs the same fabric the transport was
    configured for — it used to drop ``policy`` and ``integrity`` (and
    the topology unless traced), a silent downgrade."""
    from repro.obs import Tracer

    policy = ChaosPolicy(seed=0, delay_prob=1.0, max_delay=0.2,
                         drop_prob=0.0, duplicate_prob=0.0)

    def loopback(comm: Communicator):
        comm.send(np.ones(4), 0, tag=("self",))
        comm.recv(0, tag=("self",))
        return comm.fabric.integrity, type(comm.fabric).__name__

    oracle = Fabric(1, policy=policy, integrity=False)
    t0 = time.perf_counter()
    run_workers(1, loopback, fabric=oracle)
    oracle_s = time.perf_counter() - t0
    assert oracle.chaos.delayed == 1

    for tracer in (None, Tracer()):
        pt = ProcessTransport(policy=policy, integrity=False, tracer=tracer)
        t0 = time.perf_counter()
        results = run_workers(1, loopback, fabric=pt)
        elapsed = time.perf_counter() - t0
        assert results == [(False, "Fabric")]
        assert pt.chaos.delayed == 1 and pt.chaos.posts == 1
        # the seeded hold-back is pure in the message identity: the same
        # delay as on the thread oracle, not a 1 ms plain-fabric return.
        assert elapsed > 0.5 * oracle_s > 0.0
        assert pt.stats.messages == 1
        assert pt.metrics.total("fabric_messages_total") == 1
        assert pt.metrics.total("chaos_injections_total") == 1


def _seeded_exchange(comm: Communicator):
    peer = 1 - comm.rank
    got = []
    for i in range(24):
        out = np.arange(64, dtype=np.float64) + comm.rank + i
        comm.send(out, peer, tag=("w", i % 3))
        got.append(float(comm.recv(peer, tag=("w", i % 3)).sum()))
    return got


def test_process_default_chaos_matches_thread():
    """The default policy (delay .5, drop .05, dup .05) plus bit-flips:
    the same seeded adversary on both wires, the same values delivered,
    and the same identity-pure injection counts."""
    policy = ChaosPolicy(seed=3, bitflip_prob=0.1)
    pt = ProcessTransport(policy=policy)
    via_process = run_workers(2, _seeded_exchange, timeout=60.0, backend=pt)
    fab = Fabric(2, policy=policy)
    via_thread = run_workers(2, _seeded_exchange, timeout=60.0, fabric=fab)
    assert via_process == via_thread == run_workers(2, _seeded_exchange)
    pure = ("posts", "delayed", "dropped", "duplicates", "flapped",
            "stalls", "crashes")
    thread, process = fab.chaos.as_dict(), pt.chaos.as_dict()
    assert {k: process[k] for k in pure} == {k: thread[k] for k in pure}
    assert thread["delayed"] and thread["dropped"] and thread["duplicates"]
    assert thread["bitflips"] and process["bitflips"]
    assert process["delivered"] == thread["delivered"] == 48
    assert pt.chaos.posts_by_rank == fab.chaos.posts_by_rank == {0: 24, 1: 24}
