"""Chaos-layer unit tests: the adversary must stay within legal semantics.

Whatever the seed, a correct program must observe exactly the MPI/NCCL
contract the plain Fabric gives: per-(src, dst, tag) FIFO, tag-match
isolation, exactly-once delivery, poison-on-abort.  Only timing and
cross-channel interleaving may differ.
"""

import threading
import time

import numpy as np
import pytest

from repro.runtime import (
    ChaosCrash,
    ChaosPolicy,
    Fabric,
    FabricAborted,
    RecvTimeout,
    WorkerError,
    run_workers,
)

AGGRESSIVE = dict(
    delay_prob=0.9, max_delay=0.002, drop_prob=0.3, duplicate_prob=0.3,
    retry_delay=0.001,
)


class TestLegalSemanticsUnderChaos:
    @pytest.mark.parametrize("seed", range(8))
    def test_fifo_per_channel_and_exactly_once(self, seed):
        fab = Fabric(2, policy=ChaosPolicy(seed=seed, **AGGRESSIVE))
        n = 40

        def fn(comm):
            if comm.rank == 0:
                for i in range(n):
                    comm.send(i, 1, ("a",))
                    comm.send(100 + i, 1, ("b",))
                return None
            a = [comm.recv(0, ("a",)) for _ in range(n)]
            b = [comm.recv(0, ("b",)) for _ in range(n)]
            return a, b

        results = run_workers(2, fn, fabric=fab)
        a, b = results[1]
        assert a == list(range(n))  # FIFO per channel
        assert b == [100 + i for i in range(n)]  # tag isolation
        # logical traffic counts each message once, chaos or not
        assert fab.stats.messages == 2 * n

    @pytest.mark.parametrize("seed", range(4))
    def test_no_ghost_deliveries(self, seed):
        """After draining, duplicates must not linger as extra messages."""
        fab = Fabric(2, policy=ChaosPolicy(seed=seed, duplicate_prob=1.0,
                                         delay_prob=1.0, max_delay=0.002))

        def fn(comm):
            if comm.rank == 0:
                for i in range(20):
                    comm.send(i, 1, ("t",))
                return None
            return [comm.recv(0, ("t",)) for _ in range(20)]

        results = run_workers(2, fn, fabric=fab)
        assert results[1] == list(range(20))
        # give every duplicate time to land, then confirm it was discarded
        deadline = time.monotonic() + 1.0
        while time.monotonic() < deadline:
            if not fab.poll(1, 0, ("t",)) and not fab._layer._limbo:
                break
            time.sleep(0.005)
        assert not fab.poll(1, 0, ("t",))
        assert fab.chaos.duplicates == 20
        assert fab.chaos.duplicates_discarded == 20

    def test_drop_with_retry_still_delivers_everything(self):
        """drop_prob=1: every first transmission is lost, every message
        still arrives via the sender-side retransmission."""
        fab = Fabric(2, policy=ChaosPolicy(seed=7, drop_prob=1.0, delay_prob=0.0,
                                         retry_delay=0.001))

        def fn(comm):
            if comm.rank == 0:
                for i in range(15):
                    comm.send(i, 1, ("r",))
                return None
            return [comm.recv(0, ("r",)) for _ in range(15)]

        results = run_workers(2, fn, fabric=fab)
        assert results[1] == list(range(15))
        assert fab.chaos.dropped == 15
        assert fab.chaos.retransmits == 15

    def test_quiet_policy_injects_nothing(self):
        fab = Fabric(2, policy=ChaosPolicy.quiet())

        def fn(comm):
            if comm.rank == 0:
                comm.send("x", 1, ("q",))
                return None
            return comm.recv(0, ("q",))

        run_workers(2, fn, fabric=fab)
        c = fab.chaos
        assert (c.delayed, c.dropped, c.duplicates) == (0, 0, 0)

    def test_decisions_deterministic_in_seed(self):
        """Same seed + same message set => identical fault decisions,
        regardless of thread timing."""

        def run(seed):
            fab = Fabric(2, policy=ChaosPolicy(seed=seed, **AGGRESSIVE))

            def fn(comm):
                if comm.rank == 0:
                    for i in range(30):
                        comm.send(np.full(4, i), 1, ("d", i % 3))
                    return None
                return [
                    comm.recv(0, ("d", i % 3)) for i in range(30)
                ]

            run_workers(2, fn, fabric=fab)
            c = fab.chaos
            return (c.posts, c.delayed, c.dropped, c.duplicates)

        assert run(11) == run(11)
        # different adversaries behave differently (sanity, not a law —
        # these seeds were checked to differ)
        assert run(11) != run(12)

    def test_poll_and_ready_consistent_with_recv(self):
        fab = Fabric(2, policy=ChaosPolicy(seed=3, delay_prob=1.0, max_delay=0.005))

        def fn(comm):
            if comm.rank == 0:
                comm.send(41, 1, ("p",))
                return None
            h = comm.irecv(0, ("p",))
            deadline = time.monotonic() + 5.0
            while not h.ready():
                assert time.monotonic() < deadline, "message never became ready"
                time.sleep(0.0005)
            # once ready, the wait must complete without blocking long
            return h.wait(timeout=0.5)

        assert run_workers(2, fn, fabric=fab)[1] == 41


class TestCrashInjection:
    def test_crash_raises_on_nth_post(self):
        fab = Fabric(2, policy=ChaosPolicy(seed=0, crash_rank=0, crash_at_post=3,
                                         delay_prob=0.0, drop_prob=0.0,
                                         duplicate_prob=0.0))
        comm = fab.communicator(0)
        comm.send(1, 1, ("c",))
        comm.send(2, 1, ("c",))
        with pytest.raises(ChaosCrash, match="3th send"):
            comm.send(3, 1, ("c",))
        assert fab.chaos.crashes == 1

    def test_crash_mid_schedule_poisons_peers(self):
        """The injected crash must drive the abort path: every peer blocked
        in recv fails with FabricAborted, never RecvTimeout."""
        world = 4
        fab = Fabric(
            world,
            policy=ChaosPolicy(seed=0, crash_rank=2, crash_at_post=4),
            timeout=10.0,
        )
        outcomes = {}

        def fn(comm):
            try:
                for t in range(10):
                    comm.sendrecv(t, comm.right, comm.left, ("turn", t))
            except FabricAborted:
                outcomes[comm.rank] = "aborted"
                raise
            except RecvTimeout:
                outcomes[comm.rank] = "timeout"
                raise
            except ChaosCrash:
                outcomes[comm.rank] = "crashed"
                raise

        with pytest.raises(WorkerError):
            run_workers(world, fn, fabric=fab, timeout=10.0)
        assert outcomes[2] == "crashed"
        peers = {outcomes.get(r) for r in (0, 1, 3)}
        assert peers <= {"aborted"}, f"peers saw {outcomes}"


class TestTimeoutBookkeeping:
    """Regression for the take() deadline fix: spurious wakeups must not
    push a negative timeout into Condition.wait, and the error reports
    true elapsed time."""

    @pytest.mark.parametrize("make_fabric", [
        lambda: Fabric(2, timeout=0.25),
        lambda: Fabric(2, policy=ChaosPolicy(seed=0), timeout=0.25),
    ])
    def test_recv_timeout_survives_notification_storm(self, make_fabric):
        fab = make_fabric()
        stop = threading.Event()

        def spam():
            comm = fab.communicator(0)
            while not stop.is_set():
                comm.send(0, 1, ("other",))  # wrong tag: wakes, never matches
                time.sleep(0.005)

        t = threading.Thread(target=spam, daemon=True)
        t.start()
        try:
            start = time.monotonic()
            with pytest.raises(RecvTimeout) as ei:
                fab.take(1, 0, ("wanted",), None)
            elapsed = time.monotonic() - start
        finally:
            stop.set()
            t.join()
        assert elapsed >= 0.25
        assert "timeout 0.25s" in str(ei.value)

    def test_explicit_timeout_overrides_fabric_default(self):
        fab = Fabric(2, timeout=60.0)
        start = time.monotonic()
        with pytest.raises(RecvTimeout):
            fab.take(1, 0, ("never",), 0.05)
        assert time.monotonic() - start < 5.0
