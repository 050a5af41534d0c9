"""Properties of the WeiPipe turn schedules (Figures 1 & 2, §4.3).

These are pure functions, so we can exhaustively verify the invariants
the worker engine relies on:

* completeness — every (slot, microbatch) pair is forwarded exactly once
  and backwarded exactly once;
* flow consistency — a task's slot always equals the slot the ring
  placement law says the worker is holding that turn;
* ordering — forwards see slots 0..P-1 in order, backwards in reverse,
  and a microbatch's backward starts only after its forward finished;
* the bubble structure that separates Naive from Interleave.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schedule import (
    RING_SCHEDULES,
    bwd_home,
    bwd_slot_held,
    fwd_home,
    fwd_slot_held,
    interleave_schedule,
    naive_schedule,
    slot_owner,
)

#: every row of the table (the split row's W passes have their own
#: properties in tests/core/test_ring_program.py).
SCHEDULES = {mode: fn for mode, (fn, _) in RING_SCHEDULES.items()}


def collect(schedule, world, n_mb):
    total, fn = schedule(world, n_mb)
    fwd, bwd = {}, {}
    for p in range(world):
        for t in range(total):
            task = fn(p, t)
            if task.fwd:
                slot, mb = task.fwd
                fwd.setdefault(mb, []).append((t, p, slot))
            if task.bwd:
                slot, mb = task.bwd
                bwd.setdefault(mb, []).append((t, p, slot))
    return total, fwd, bwd


class TestPlacementLaw:
    def test_homes_are_inverse(self):
        for p_ in (1, 2, 4, 8):
            for j in range(p_):
                assert fwd_slot_held(fwd_home(j, p_), 0, p_) == j
                assert bwd_slot_held(bwd_home(j, p_), 0, p_) == j

    def test_owner_is_bwd_home(self):
        for p_ in (2, 4):
            for j in range(p_):
                assert slot_owner(j, p_) == bwd_home(j, p_)

    def test_slots_rotate_plus_one(self):
        p_ = 4
        for t in range(12):
            for j in range(p_):
                # worker holding slot j at t+1 is successor of holder at t
                holder_t = next(
                    w for w in range(p_) if fwd_slot_held(w, t, p_) == j
                )
                holder_t1 = next(
                    w for w in range(p_) if fwd_slot_held(w, t + 1, p_) == j
                )
                assert holder_t1 == (holder_t + 1) % p_


@pytest.mark.parametrize("name", list(SCHEDULES))
@pytest.mark.parametrize("world,n_mb", [(1, 2), (2, 4), (4, 4), (4, 8), (3, 9)])
class TestScheduleInvariants:
    def test_completeness(self, name, world, n_mb):
        _, fwd, bwd = collect(SCHEDULES[name], world, n_mb)
        assert set(fwd) == set(range(n_mb))
        assert set(bwd) == set(range(n_mb))
        for mb in range(n_mb):
            assert sorted(s for _, _, s in fwd[mb]) == list(range(world))
            assert sorted(s for _, _, s in bwd[mb]) == list(range(world))

    def test_single_worker_per_microbatch(self, name, world, n_mb):
        _, fwd, bwd = collect(SCHEDULES[name], world, n_mb)
        for mb in range(n_mb):
            assert {p for _, p, _ in fwd[mb]} == {mb % world}
            assert {p for _, p, _ in bwd[mb]} == {mb % world}

    def test_forward_order_then_backward_reverse(self, name, world, n_mb):
        _, fwd, bwd = collect(SCHEDULES[name], world, n_mb)
        for mb in range(n_mb):
            f = sorted(fwd[mb])
            assert [s for _, _, s in f] == list(range(world))
            b = sorted(bwd[mb])
            assert [s for _, _, s in b] == list(range(world - 1, -1, -1))
            assert f[-1][0] < b[0][0]  # backward starts after forward done

    def test_flow_consistency(self, name, world, n_mb):
        total, fn = SCHEDULES[name](world, n_mb)
        for p in range(world):
            for t in range(total):
                task = fn(p, t)
                if task.fwd:
                    assert task.fwd[0] == fwd_slot_held(p, t, world)
                if task.bwd:
                    assert task.bwd[0] == bwd_slot_held(p, t, world)

    def test_total_turns_multiple_of_world(self, name, world, n_mb):
        total, _ = SCHEDULES[name](world, n_mb)
        assert total % world == 0

    def test_out_of_range_turns_idle(self, name, world, n_mb):
        total, fn = SCHEDULES[name](world, n_mb)
        assert fn(0, -1).idle and fn(0, total).idle


class TestBubbleStructure:
    def test_interleave_steady_state_has_no_idle_turns(self):
        """Between fill and drain, every worker computes every turn."""
        world, n_mb = 4, 16
        total, fn = interleave_schedule(world, n_mb)
        for p in range(world):
            busy_turns = [t for t in range(total) if not fn(p, t).idle]
            first, last = busy_turns[0], busy_turns[-1]
            assert busy_turns == list(range(first, last + 1))

    def test_interleave_fill_is_rank_turns(self):
        world, n_mb = 4, 8
        _, fn = interleave_schedule(world, n_mb)
        for p in range(world):
            for t in range(p):
                assert fn(p, t).idle
            assert not fn(p, p).idle

    def test_naive_has_interround_bubbles(self):
        """Naive wastes turns: a worker is idle while others backward."""
        world, n_mb = 4, 4
        total, fn = naive_schedule(world, n_mb)
        idle = sum(fn(p, t).idle for p in range(world) for t in range(total))
        # each worker computes 2P turns out of 3P
        assert idle == world * (total - 2 * world)
        assert idle > 0

    def test_interleave_fewer_turns_than_naive(self):
        world, n_mb = 4, 16
        t_naive, _ = naive_schedule(world, n_mb)
        t_inter, _ = interleave_schedule(world, n_mb)
        assert t_inter < t_naive

    def test_interleave_steady_turns_do_both_passes(self):
        world, n_mb = 4, 16
        total, fn = interleave_schedule(world, n_mb)
        both = sum(
            1
            for p in range(world)
            for t in range(total)
            if fn(p, t).fwd and fn(p, t).bwd
        )
        # R-1 overlapped rounds of P turns per worker
        rounds = n_mb // world
        assert both == world * (rounds - 1) * world


class TestValidation:
    def test_indivisible_microbatches_rejected(self):
        with pytest.raises(ValueError):
            naive_schedule(4, 6)
        with pytest.raises(ValueError):
            interleave_schedule(4, 7)


@given(world=st.integers(1, 6), rounds=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_property_schedules_complete(world, rounds):
    n_mb = world * rounds
    for schedule in SCHEDULES.values():
        _, fwd, bwd = collect(schedule, world, n_mb)
        assert set(fwd) == set(range(n_mb)) == set(bwd)
        for mb in range(n_mb):
            assert len(fwd[mb]) == world and len(bwd[mb]) == world
