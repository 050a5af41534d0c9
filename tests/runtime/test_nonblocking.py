"""Nonblocking P2P: isend/irecv handles, posted-receive matching, chaos.

The double-buffered ring engine (DESIGN.md §10) leans on three
guarantees of the posted-receive machinery:

* MPI matching — posted receives on one ``(src, dst, tag)`` channel
  claim messages in *posting* order, regardless of wait order;
* prompt failure propagation — a handle parked in ``wait`` is
  interrupted with :class:`PeerFailed`, not timed out;
* an abandoned handle (timeout, failure) is unposted, so it can never
  swallow a message a later receive is entitled to.
"""

import numpy as np
import pytest

from repro.runtime import (
    ChaosPolicy,
    Fabric,
    PeerFailed,
    RecvTimeout,
    run_workers,
    run_workers_elastic,
)


class TestSendHandles:
    def test_isend_completes_at_post(self):
        """Buffered send: the handle is done the moment isend returns."""

        def fn(comm):
            if comm.rank == 0:
                h = comm.isend(np.arange(3), 1, ("x",))
                assert h.test() and h.ready()
                assert h.wait() is None
                return None
            return comm.recv(0, ("x",))

        results = run_workers(2, fn)
        np.testing.assert_array_equal(results[1], np.arange(3))


class TestPostedReceiveMatching:
    def test_completion_in_posting_order(self):
        """Handles on one channel claim messages in posting order even
        when waited out of order."""

        def fn(comm):
            if comm.rank == 0:
                for i in range(3):
                    comm.send(i, 1, ("seq",))
                return None
            handles = [comm.irecv(0, ("seq",)) for _ in range(3)]
            # wait in reverse: values must still map to posting order
            assert handles[2].wait() == 2
            assert handles[0].wait() == 0
            assert handles[1].wait() == 1
            return "ok"

        assert run_workers(2, fn)[1] == "ok"

    def test_test_does_not_steal_from_earlier_post(self):
        """test() on a later handle must not claim the first message."""

        def fn(comm):
            if comm.rank == 0:
                comm.recv(1, ("ready",))
                comm.send("first", 1, ("q",))
                return None
            h1 = comm.irecv(0, ("q",))
            h2 = comm.irecv(0, ("q",))
            assert not h1.test() and not h2.test()
            comm.send(True, 0, ("ready",))
            assert h1.wait() == "first"
            # exactly one message was sent: h2 stays incomplete
            assert not h2.test()
            with pytest.raises(RecvTimeout):
                h2.wait(timeout=0.2)
            return "ok"

        assert run_workers(2, fn)[1] == "ok"

    def test_blocking_recv_queues_behind_posted(self):
        """take() posts internally, so it honours earlier posted receives."""

        def fn(comm):
            if comm.rank == 0:
                comm.send("a", 1, ("t",))
                comm.send("b", 1, ("t",))
                return None
            h = comm.irecv(0, ("t",))
            second = comm.recv(0, ("t",))  # must get "b", not "a"
            return (h.wait(), second)

        assert run_workers(2, fn)[1] == ("a", "b")


class TestFailurePropagation:
    def test_wait_after_peer_failure_raises_peerfailed(self):
        """A posted receive from a dead peer surfaces PeerFailed.

        The failure races with the post: if rank 0's death is recorded
        before ``irecv`` runs, the post itself raises; otherwise the
        handle's ``wait`` does.  Either surfacing point is correct —
        the contract is that the survivor is *interrupted*, not where.
        """

        def fn(comm):
            if comm.rank == 0:
                raise RuntimeError("boom")
            with pytest.raises(PeerFailed) as exc_info:
                comm.irecv(0, ("never-sent",)).wait()
            assert exc_info.value.ranks == (0,)
            return "survived"

        results, errors = run_workers_elastic(2, fn, timeout=30.0)
        assert results[1] == "survived"
        assert errors[0] is not None

    def test_survivors_can_irecv_after_acknowledge(self):
        def fn(comm):
            if comm.rank == 0:
                raise RuntimeError("boom")
            with pytest.raises(PeerFailed):
                comm.recv(0, ("x",))
            comm.acknowledge_failures()
            if comm.rank == 1:
                comm.send("hello", 2, ("post",))
                return None
            return comm.irecv(1, ("post",)).wait()

        results, errors = run_workers_elastic(3, fn, timeout=30.0)
        assert results[2] == "hello"


class TestAbandonedHandles:
    def test_timed_out_handle_is_unposted(self):
        """After RecvTimeout the handle must not swallow the message."""
        fab = Fabric(2, timeout=5.0)
        h = fab.post_recv(1, 0, ("late",))
        with pytest.raises(RecvTimeout):
            fab.wait_handle(h, timeout=0.1)

        def fn(comm):
            if comm.rank == 0:
                comm.send("payload", 1, ("late",))
                return None
            return comm.recv(0, ("late",))

        # a fresh receive gets the message — the dead handle is gone
        assert run_workers(2, fn, fabric=fab)[1] == "payload"

    def test_completed_handle_survives_unposting(self):
        """A handle that completed before a timeout elsewhere keeps its
        value (done handles are immune to cancellation)."""
        fab = Fabric(2, timeout=5.0)

        def fn(comm):
            if comm.rank == 0:
                comm.send(41, 1, ("v",))
                return None
            h = comm.irecv(0, ("v",))
            assert h.wait() == 41
            assert h.wait() == 41  # idempotent after completion
            return h.test()

        assert run_workers(2, fn, fabric=fab)[1] is True


class TestChaosFifo:
    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_posted_receives_fifo_under_reorder_and_duplicates(self, seed):
        """Per-channel FIFO + exactly-once survive an adversarial wire
        even with every receive pre-posted."""
        policy = ChaosPolicy(
            seed=seed, delay_prob=0.8, max_delay=0.002,
            drop_prob=0.2, duplicate_prob=0.3,
        )
        fab = Fabric(2, policy=policy, timeout=30.0)
        n = 20

        def fn(comm):
            if comm.rank == 0:
                for i in range(n):
                    comm.send(i, 1, ("stream",))
                return None
            handles = [comm.irecv(0, ("stream",)) for _ in range(n)]
            # wait newest-first: posting order must still win
            return [h.wait() for h in reversed(handles)][::-1]

        assert run_workers(2, fn, fabric=fab)[1] == list(range(n))
        assert fab.chaos.duplicates_discarded >= 0

    @pytest.mark.parametrize("seed", [3, 11])
    def test_channels_stay_isolated_under_chaos(self, seed):
        """Cross-channel reordering never leaks a message into another
        channel's posted receives."""
        policy = ChaosPolicy(
            seed=seed, delay_prob=1.0, max_delay=0.003,
            drop_prob=0.1, duplicate_prob=0.2,
        )
        fab = Fabric(3, policy=policy, timeout=30.0)

        def fn(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(("a", i), 2, ("chan-a",))
                    comm.send(("b", i), 2, ("chan-b",))
                return None
            if comm.rank == 1:
                for i in range(5):
                    comm.send(("c", i), 2, ("chan-a",))
                return None
            ha = [comm.irecv(0, ("chan-a",)) for _ in range(5)]
            hb = [comm.irecv(0, ("chan-b",)) for _ in range(5)]
            hc = [comm.irecv(1, ("chan-a",)) for _ in range(5)]
            return (
                [h.wait() for h in ha],
                [h.wait() for h in hb],
                [h.wait() for h in hc],
            )

        a, b, c = run_workers(3, fn, fabric=fab)[2]
        assert a == [("a", i) for i in range(5)]
        assert b == [("b", i) for i in range(5)]
        assert c == [("c", i) for i in range(5)]
