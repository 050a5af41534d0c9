"""The shm ring + frame codec under fuzz.

Two halves:

* a hypothesis state machine over a ring of 32…4096 bytes that
  interleaves *enqueue a frame*, *write at most k bytes of the pending
  stream* and *poll* at random, and demands that frames come out in
  order, equal to what went in, with ``crc == crc_actual`` — wraparound,
  frames larger than the ring, headers torn across writes, zero-length
  and non-contiguous arrays, integrity on and off;
* an exhaustive single-bit sweep over a whole frame: every flip must
  surface as ``CorruptFrameError`` from the decoder — never accepted,
  never a poll that waits for bytes which will not come, never an
  allocation sized by a corrupt length, never whatever ``pickle`` makes
  of garbage.
"""

import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.runtime import CorruptFrameError
from repro.runtime.transport.shm import FrameDecoder, ShmRing, encode_frame

# bounded so the module stays well under 20 s on a 2-core CI runner.
FUZZ = settings(max_examples=60, stateful_step_count=40, deadline=None)

DTYPES = (np.float64, np.float32, np.float16, np.int64, np.int8, np.uint16)


def _array(dtype, n, strided, seed):
    arr = (np.random.default_rng(seed).integers(0, 100, size=2 * n)).astype(dtype)
    return arr[::2] if strided else arr[:n].copy()


arrays = st.builds(
    _array, st.sampled_from(DTYPES), st.integers(0, 600), st.booleans(),
    st.integers(0, 2**16),
)
leaves = st.one_of(
    arrays, st.none(), st.booleans(), st.integers(-2**40, 2**40),
    st.floats(allow_nan=False), st.text(max_size=8),
)
payloads = st.recursive(
    leaves,
    lambda kids: st.one_of(
        st.tuples(kids, kids),
        st.lists(kids, max_size=3),
        st.dictionaries(st.text(max_size=4), kids, max_size=3),
    ),
    max_leaves=6,
)
tags = st.tuples(st.sampled_from(["F", "B", "D"]), st.integers(0, 9))


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype
                and a.shape == b.shape and np.array_equal(a, b))
    if type(a) is not type(b):
        return False
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


def _ring(capacity):
    return ShmRing(
        memoryview(bytearray(ShmRing.HEADER + capacity)), capacity, create=True
    )


def _acquire(numel, dtype):
    return np.empty(numel, dtype=dtype)


class CodecMachine(RuleBasedStateMachine):
    @initialize(capacity=st.integers(32, 4096))
    def open_link(self, capacity):
        self.ring = _ring(capacity)
        self.decoder = FrameDecoder(self.ring, _acquire)
        self.stream = bytearray()  # encoded, not yet in the ring
        self.in_flight = deque()  # (seq, tag, nbytes, integrity, payload)
        self.next_seq = 7

    @rule(payload=payloads, tag=tags, nbytes=st.integers(0, 2**31),
          integrity=st.booleans())
    def enqueue(self, payload, tag, nbytes, integrity):
        seq = self.next_seq
        self.next_seq += 1
        for chunk in encode_frame(payload, tag, nbytes, seq, integrity, None):
            self.stream += chunk
        self.in_flight.append((seq, tag, nbytes, integrity, payload))

    @rule(k=st.integers(1, 5000))
    def write_some(self, k):
        n = self.ring.write_some(memoryview(bytes(self.stream[:k])))
        del self.stream[:n]

    @rule()
    def poll(self):
        frame = self.decoder.poll()
        if frame is None:
            return
        seq, tag, nbytes, integrity, payload = self.in_flight.popleft()
        assert (frame.seq, frame.tag, frame.nbytes) == (seq, tag, nbytes)
        assert (frame.crc is not None) == integrity
        assert frame.crc == frame.crc_actual
        assert _same(frame.payload, payload)

    def teardown(self):
        # whatever was enqueued comes out once the stream is pushed through
        if not hasattr(self, "ring"):
            return

        def state():
            return len(self.stream), self.ring.readable(), len(self.in_flight)

        while self.in_flight:
            before = state()
            self.write_some(len(self.stream) or 1)
            self.poll()
            assert state() != before, "the stream is stuck"
        assert self.decoder.poll() is None and not self.ring.readable()


CodecMachine.TestCase.settings = FUZZ
TestCodecMachine = CodecMachine.TestCase


# -- exhaustive single-bit sweep ----------------------------------------------

CAPACITY = 4096
PAYLOAD = {"w": np.arange(8, dtype=np.float32), "step": 3, "note": ("F", None)}


def _decode(stream: bytes):
    """Push a whole (possibly corrupt) frame through a fresh link; return
    the decoder's verdict and the peak bytes it allocated meanwhile."""
    ring = _ring(CAPACITY)
    assert ring.write_some(memoryview(stream)) == len(stream)
    decoder = FrameDecoder(ring, _acquire)
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        verdict = decoder.poll()
    except CorruptFrameError:
        verdict = CorruptFrameError
    return verdict, tracemalloc.get_traced_memory()[1] - base


@pytest.mark.parametrize("integrity", [True, False])
def test_every_single_bit_flip_is_a_corrupt_frame_error(integrity):
    chunks = [bytes(c) for c in
              encode_frame(PAYLOAD, ("F", 0, 1), 32, 5, integrity, None)]
    clean = b"".join(chunks)
    # with integrity the whole frame is covered (header, meta, blob,
    # payload); without it only the header, which is always digested.
    covered = len(clean) if integrity else len(chunks[0])
    tracemalloc.start()
    try:
        frame, _ = _decode(clean)
        assert _same(frame.payload, PAYLOAD) and frame.crc == frame.crc_actual
        outcomes = {}
        for bit in range(8 * covered):
            corrupt = bytearray(clean)
            corrupt[bit // 8] ^= 1 << (bit % 8)
            verdict, allocated = _decode(bytes(corrupt))
            if verdict is not CorruptFrameError:
                outcomes[bit] = "blocked" if verdict is None else "accepted"
            elif allocated > CAPACITY:
                outcomes[bit] = f"allocated {allocated} bytes"
    finally:
        tracemalloc.stop()
    assert not outcomes, f"{len(outcomes)} of {8 * covered} flips: {outcomes}"
