"""Transient-fault injection tests: determinism, flaps, stalls, NIC outages.

These exercise the chaos layer's *transient* adversary (PR 7) as opposed
to the fail-stop crashes of PR 2: every fault is survivable, counted in
:class:`ChaosStats`, and decided by pure seeded draws so two identical
runs inject identically.
"""

import time

import numpy as np
import pytest

from repro.runtime import ChaosPolicy, Fabric, run_workers


def _ring_exchange(rounds=6, size=32):
    """Worker fn: each rank sends a seeded array right and recvs from the
    left each round; returns the list of received arrays."""

    def fn(comm):
        rng = np.random.default_rng(100 + comm.rank)
        got = []
        for r in range(rounds):
            payload = rng.standard_normal(size)
            right = (comm.rank + 1) % comm.world_size
            left = (comm.rank - 1) % comm.world_size
            comm.send(payload, right, ("ring", r))
            got.append(comm.recv(left, ("ring", r)))
        return got

    return fn


def _stats_tuple(fab):
    s = fab.chaos
    return (s.bitflips, s.corrupt_frames, s.nacks, s.flapped,
            s.stalls, s.rank_flaps, s.delivered)


class TestDeterminism:
    @pytest.mark.parametrize("seed", [0, 11])
    def test_same_seed_same_injections(self, seed):
        """Two runs with the same seed inject the same faults and deliver
        the same values.  Duplicates/drops are disabled: a duplicated
        corrupt frame can race its retransmission, which makes the
        corrupt_frames count timing-dependent by design."""
        policy = ChaosPolicy(
            seed=seed, delay_prob=0.3, max_delay=0.001,
            drop_prob=0.0, duplicate_prob=0.0,
            bitflip_prob=0.25, stall_prob=0.1, max_stall=0.002,
        )
        runs = []
        for _ in range(2):
            fab = Fabric(3, policy=policy)
            res = run_workers(3, _ring_exchange(), fabric=fab)
            runs.append((_stats_tuple(fab), res))
        assert runs[0][0] == runs[1][0]
        assert runs[0][0][0] > 0  # bitflips actually fired at p=0.25
        for r0, r1 in zip(runs[0][1], runs[1][1]):
            for a0, a1 in zip(r0, r1):
                assert np.array_equal(a0, a1)

    def test_quiet_wire_injects_nothing(self):
        fab = Fabric(3, policy=ChaosPolicy.quiet(0))
        run_workers(3, _ring_exchange(), fabric=fab)
        s = fab.chaos
        assert (s.bitflips, s.corrupt_frames, s.nacks, s.retransmits,
                s.flapped, s.stalls, s.rank_flaps, s.dropped) == (0,) * 8
        for key in ("fabric_retransmits", "fabric_corrupt_frames",
                    "detector_suspicions", "detector_confirms",
                    "ring_rejoins"):
            assert fab._m_heal[key].value == 0, key


class TestDirectedLinkFlap:
    def test_pinned_flap_window_counts_and_preserves_fifo(self):
        """Posts 1..3 on link 0->1 ride a flapped window: they are
        counted, delayed by flap_delay, and still land in FIFO order."""
        policy = ChaosPolicy(
            seed=0, delay_prob=0.0, drop_prob=0.0, duplicate_prob=0.0,
            flaps=((0, 1, 1, 3),), flap_delay=0.005,
        )
        fab = Fabric(2, policy=policy)

        def fn(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(np.full(4, float(i)), 1, ("seq", i))
                return None
            return [comm.recv(0, ("seq", i)) for i in range(5)]

        res = run_workers(2, fn, fabric=fab)
        assert fab.chaos.flapped == 3
        for i, arr in enumerate(res[1]):
            assert np.array_equal(arr, np.full(4, float(i)))

    def test_probabilistic_flaps_are_seed_deterministic(self):
        policy = ChaosPolicy(
            seed=5, delay_prob=0.0, drop_prob=0.0, duplicate_prob=0.0,
            flap_prob=0.2, flap_len=2, flap_delay=0.001,
        )
        counts = []
        for _ in range(2):
            fab = Fabric(3, policy=policy)
            run_workers(3, _ring_exchange(rounds=8), fabric=fab)
            counts.append(fab.chaos.flapped)
        assert counts[0] == counts[1]
        assert counts[0] > 0


class TestTransientStall:
    def test_pinned_stall_freezes_one_sender(self):
        policy = ChaosPolicy(
            seed=0, delay_prob=0.0, drop_prob=0.0, duplicate_prob=0.0,
            stall_rank=0, stall_at_post=2, stall_duration=0.05,
        )
        fab = Fabric(2, policy=policy)
        t0 = time.monotonic()
        res = run_workers(2, _ring_exchange(rounds=4), fabric=fab)
        elapsed = time.monotonic() - t0
        assert fab.chaos.stalls == 1
        assert fab.chaos.stall_time_s == pytest.approx(0.05)
        assert elapsed >= 0.05
        assert len(res[0]) == len(res[1]) == 4  # nobody died


class TestNicOutageRankFlap:
    def test_pinned_rank_flap_is_survivable_without_detector(self):
        """With no failure detector attached, a NIC outage is pure delay:
        all traffic of the flapped rank is held for the outage window and
        then delivered intact."""
        policy = ChaosPolicy(
            seed=0, delay_prob=0.0, drop_prob=0.0, duplicate_prob=0.0,
            flap_rank=1, flap_rank_at_post=1, flap_rank_duration=0.15,
        )
        fab = Fabric(3, policy=policy)
        t0 = time.monotonic()
        res = run_workers(3, _ring_exchange(rounds=3), fabric=fab)
        elapsed = time.monotonic() - t0
        assert fab.chaos.rank_flaps == 1
        assert elapsed >= 0.1
        # values survive the outage bit-exact
        clean_fab = Fabric(3, policy=ChaosPolicy.quiet(0))
        clean = run_workers(3, _ring_exchange(rounds=3), fabric=clean_fab)
        for r_got, r_want in zip(res, clean):
            for a, b in zip(r_got, r_want):
                assert np.array_equal(a, b)


class TestStatsSurface:
    def test_as_dict_has_transient_fields(self):
        fab = Fabric(2, policy=ChaosPolicy.quiet(0))
        d = fab.chaos.as_dict()
        for key in ("bitflips", "corrupt_frames", "nacks", "flapped",
                    "stalls", "stall_time_s", "rank_flaps"):
            assert key in d, key
