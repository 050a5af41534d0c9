"""Ring re-grow tests: rejoin protocol units and elastic end-to-end.

A confirmed-dead rank is not gone forever: it requests readmission, the
survivor leader admits it at a step boundary with a state snapshot, the
ring re-grows to full world, and the loss stream is identical on every
rank — including the one that died and came back.
"""

import pytest

from repro.runtime import (
    ChaosPolicy,
    DeclaredDead,
    Fabric,
    FailureDetector,
    PeerFailed,
    RecvTimeout,
    all_gather,
    elastic_worker,
    run_workers_elastic,
)


class TestRejoinProtocolUnits:
    def test_request_is_noop_for_live_rank(self):
        fab = Fabric(3)
        fab.request_rejoin(1)
        assert fab.pending_rejoins() == ()

    def test_failed_rank_can_request_and_be_admitted(self):
        det = FailureDetector()
        fab = Fabric(3, detector=det)
        fab.fail_rank(1, "test kill")
        assert 1 in fab.failed_ranks()
        fab.request_rejoin(1)
        assert fab.pending_rejoins() == (1,)
        fab.admit_rejoin(1, epoch=1, leader=0)
        assert fab.pending_rejoins() == ()
        assert 1 not in fab.failed_ranks()
        assert fab._m_heal["ring_rejoins"].value == 1
        # the admitted rank's await returns the admission ticket.
        assert fab.await_readmission(1, timeout=1.0) == (1, 0)

    def test_admit_requires_a_failed_rank(self):
        fab = Fabric(2)
        with pytest.raises(ValueError):
            fab.admit_rejoin(0, epoch=1, leader=1)

    def test_admission_resets_detector_history(self):
        det = FailureDetector()
        fab = Fabric(2, detector=det)
        det.heartbeat(1, 0.0)
        det.evaluate(1, 100.0)
        det.evaluate(1, 200.0)
        assert det.is_confirmed(1)
        fab.fail_rank(1, "confirmed dead")
        fab.admit_rejoin(1, epoch=1, leader=0)
        # a fresh incarnation must not inherit the confirmed verdict.
        assert not det.is_confirmed(1)

    def test_await_readmission_times_out_when_never_admitted(self):
        fab = Fabric(2)
        fab.fail_rank(1, "gone")
        fab.request_rejoin(1)
        with pytest.raises(RecvTimeout):
            fab.await_readmission(1, timeout=0.05)

    def test_own_death_raises_declared_dead_only_with_detector(self):
        """Legacy fail-stop behavior is preserved: without a detector a
        failure record surfaces as the PR-2 ``PeerFailed`` interrupt for
        everyone, never as ``DeclaredDead``; with a detector attached,
        the falsely-confirmed rank is told of its own death — its gateway
        into the rejoin protocol."""
        plain = Fabric(2)
        plain.fail_rank(1, "fail-stop")
        with pytest.raises(PeerFailed):
            plain.communicator(1).send(0.0, 0, ("t",))

        det_fab = Fabric(2, detector=FailureDetector())
        det_fab.fail_rank(1, "confirmed by detector")
        with pytest.raises(DeclaredDead):
            det_fab.communicator(1).send(0.0, 0, ("t",))


class TestElasticRejoinEndToEnd:
    def test_nic_outage_confirm_then_rejoin_full_world(self):
        """Rank 1's NIC goes dark for 0.8s mid-run: the detector confirms
        it dead, the ring shrinks to 3, the rank rejoins at a step
        boundary, the ring re-grows to 4, and all ranks finish with
        identical losses.  A couple of seeds are tried because the
        outage/confirmation race is wall-clock driven."""
        iters = 60

        def step(comm, it, state):
            vals = all_gather(comm, float(comm.rank + it), tag=("w", it))
            return sum(vals), state + 1

        def worker(comm):
            return elastic_worker(comm, iters, 0, step)

        last = None
        for seed in (7, 8, 9):
            policy = ChaosPolicy(
                seed=seed,
                flap_rank=1, flap_rank_at_post=25, flap_rank_duration=0.8,
            )
            det = FailureDetector(
                min_suspect_s=0.05, min_confirm_s=0.25, poll_interval=0.01
            )
            fab = Fabric(4, policy=policy, timeout=60.0, detector=det)
            results, errors = run_workers_elastic(
                4, worker, timeout=60.0, fabric=fab
            )
            rejoins = fab._m_heal["ring_rejoins"].value
            last = (results, errors, det, fab, rejoins)
            if not any(errors) and rejoins >= 1:
                break
        results, errors, det, fab, rejoins = last
        assert not any(errors), [e and repr(e.original) for e in errors]
        assert rejoins >= 1
        assert det.confirms >= 1
        # every rank — including the flapped one — finished all iters
        # with the same survivors and bit-identical losses.
        losses0 = results[0].losses
        for r, res in enumerate(results):
            assert res is not None, r
            assert res.survivors == [0, 1, 2, 3], r
            assert len(res.losses) == iters
            assert res.losses == losses0, r
        # the rejoin is visible in the per-rank event stream too.
        assert any(res.rejoins for res in results)
