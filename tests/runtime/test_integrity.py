"""Wire-integrity unit tests: CRC framing, SDC injection, NACK recovery.

The contract under test: every single-bit flip in a payload's array data
changes its structural CRC32 (detection), a corrupted frame is never
delivered silently (recovery or :class:`CorruptFrameError`), and framing
costs nothing on a quiet wire.
"""

import numpy as np
import pytest

from repro.nn.params import ParamStruct
from repro.runtime import (
    ChaosPolicy,
    CorruptFrameError,
    Fabric,
    WorkerError,
    corrupt_copy,
    payload_crc32,
    payload_nbytes,
    run_workers,
)
from repro.runtime.integrity import payload_flip_surface, verify_message
from repro.runtime.message import Message


def _flip_bit(arr: np.ndarray, byte_i: int, bit_i: int) -> np.ndarray:
    buf = bytearray(arr.tobytes())
    buf[byte_i] ^= 1 << bit_i
    return np.frombuffer(bytes(buf), dtype=arr.dtype).reshape(arr.shape)


class TestCrcDetectsEverySingleBitFlip:
    def test_exhaustive_over_small_array(self):
        """All 96 single-bit flips of a 3-float32 array change the CRC."""
        arr = np.array([1.5, -2.25, 3e-7], dtype=np.float32)
        crc = payload_crc32(arr)
        for byte_i in range(arr.nbytes):
            for bit_i in range(8):
                flipped = _flip_bit(arr, byte_i, bit_i)
                assert payload_crc32(flipped) != crc, (byte_i, bit_i)

    @pytest.mark.parametrize("seed", range(4))
    def test_sampled_over_random_payloads(self, seed):
        """Seeded corrupt_copy of arrays, arena ParamStructs and tuple
        payloads always changes the CRC and never mutates the original."""
        rng = np.random.default_rng(seed)
        chunk = ParamStruct({
            "w": rng.standard_normal((4, 5)),
            "b": rng.standard_normal(5),
        }).to_arena()
        payloads = [
            rng.standard_normal(64),
            rng.standard_normal((8, 3)).astype(np.float32),
            chunk,
            ("F", 3, {"w": rng.standard_normal((2, 2))}),
            [rng.standard_normal(4), ("mark", 1)],
        ]
        for payload in payloads:
            crc = payload_crc32(payload)
            for _ in range(32):
                bad = corrupt_copy(payload, rng)
                assert bad is not None
                assert payload_crc32(bad) != crc
                # the original must be untouched (wire corrupts a copy).
                assert payload_crc32(payload) == crc

    def test_no_array_surface_means_no_flip(self):
        rng = np.random.default_rng(0)
        for payload in ("hello", 42, {"k": 1}, ("tag", 3), None):
            assert payload_flip_surface(payload) == 0
            assert corrupt_copy(payload, rng) is None

    def test_structure_is_part_of_the_frame(self):
        """Same bytes under a different dtype/shape/container must not
        alias: a garbled header cannot masquerade as a valid frame."""
        z32 = np.zeros(4, dtype=np.float32)
        z64 = np.zeros(2, dtype=np.float64)
        assert z32.tobytes() == z64.tobytes()
        assert payload_crc32(z32) != payload_crc32(z64)
        flat = np.arange(6.0)
        assert payload_crc32(flat) != payload_crc32(flat.reshape(2, 3))
        assert payload_crc32([1, 2]) != payload_crc32((1, 2))


class TestGarbledFramesNeverDeliverSilently:
    def test_truncated_and_garbled_frames_fail_verification(self):
        arr = np.arange(32, dtype=np.float64)
        msg = Message(0, 1, ("t",), arr, arr.nbytes, crc=payload_crc32(arr))
        assert verify_message(msg)
        truncated = Message(0, 1, ("t",), arr[:-1], arr.nbytes, crc=msg.crc)
        assert not verify_message(truncated)
        garbled = Message(
            0, 1, ("t",), arr.astype(np.float32), arr.nbytes, crc=msg.crc
        )
        assert not verify_message(garbled)
        unframed = Message(0, 1, ("t",), arr, arr.nbytes)
        assert verify_message(unframed)  # no frame, nothing to check

    @pytest.mark.parametrize("seed", range(3))
    def test_bitflips_recovered_bit_exact(self, seed):
        """Under heavy SDC injection every delivered array is bit-exact:
        the NACK/retransmit path silently heals the wire."""
        policy = ChaosPolicy.quiet(seed)
        policy = ChaosPolicy(
            seed=seed, delay_prob=0.0, drop_prob=0.0, duplicate_prob=0.0,
            bitflip_prob=0.7, retransmit_budget=64,
        )
        fab = Fabric(2, policy=policy)
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal(16) for _ in range(12)]

        def fn(comm):
            if comm.rank == 0:
                for i, a in enumerate(arrays):
                    comm.send(a, 1, ("blk", i))
                return None
            return [comm.recv(0, ("blk", i)) for i in range(len(arrays))]

        results = run_workers(2, fn, fabric=fab)
        assert fab.chaos.bitflips > 0  # the adversary actually fired
        for got, want in zip(results[1], arrays):
            assert np.array_equal(got, want)

    def test_budget_exhaustion_raises_corrupt_frame_error(self):
        """A flow whose every (re)transmission is corrupted is poisoned:
        the receiver gets CorruptFrameError, never a wrong payload."""
        policy = ChaosPolicy(
            seed=3, delay_prob=0.0, drop_prob=0.0, duplicate_prob=0.0,
            bitflip_prob=1.0, retransmit_budget=3,
        )
        fab = Fabric(2, policy=policy)

        def fn(comm):
            if comm.rank == 0:
                comm.send(np.ones(8), 1, ("poison",))
                return None
            return comm.recv(0, ("poison",))

        with pytest.raises(WorkerError) as ei:
            run_workers(2, fn, fabric=fab)
        assert isinstance(ei.value.original, CorruptFrameError)
        assert fab.chaos.nacks == 3  # exactly the budget, then poison


class TestPayloadNbytes:
    def test_paramstruct_priced_by_storage_dtype(self):
        p64 = ParamStruct({"w": np.zeros((3, 4)), "b": np.zeros(4)})
        assert payload_nbytes(p64) == 16 * 8
        p32 = ParamStruct({
            "w": np.zeros((3, 4), dtype=np.float32),
            "b": np.zeros(4, dtype=np.float32),
        })
        assert payload_nbytes(p32) == 16 * 4

    def test_containers_sum_leaves(self):
        arr = np.zeros(5, dtype=np.float32)
        assert payload_nbytes(("F", 2, arr)) == 8 + arr.nbytes
