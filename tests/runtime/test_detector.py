"""FailureDetector unit tests (scripted clocks) + fabric integration.

The detector's contract: suspicion is a held fence, not an execution —
only a suspicion that *ages past* the confirmation threshold kills the
rank, a heartbeat clears it, and no rank is ever confirmed on the first
look regardless of how stale its clock seems.
"""

import time

import numpy as np
import pytest

from repro.runtime import (
    ChaosPolicy,
    Fabric,
    FailureDetector,
    PeerFailed,
    run_workers_elastic,
)


def _warm(det, rank, t0=0.0, n=20, gap=0.01):
    """Feed a steady heartbeat cadence; returns the last timestamp."""
    t = t0
    for _ in range(n):
        det.heartbeat(rank, t)
        t += gap
    return t - gap


class TestScriptedTimeline:
    def test_suspect_then_confirm_exactly_once(self):
        det = FailureDetector(min_suspect_s=0.05, min_confirm_s=0.25)
        last = _warm(det, 1)
        # healthy: repeated evaluation right after a beat says nothing.
        assert det.evaluate(1, last + 0.001) is None
        # silence past the suspect threshold -> exactly one "suspect".
        t_sus = last + det.suspect_after(1) + 0.01
        assert det.evaluate(1, t_sus) == "suspect"
        assert det.is_suspected(1)
        assert det.suspected_ranks() == (1,)
        assert det.evaluate(1, t_sus + 0.001) is None  # transition, not state
        # below the confirm threshold the verdict stays None: the fence
        # holds but nothing dies.
        t_conf = last + det.confirm_after(1)
        assert det.evaluate(1, t_conf - 0.01) is None
        assert not det.is_confirmed(1)
        # past it: exactly one "confirm", then silence forever.
        assert det.evaluate(1, t_conf + 0.01) == "confirm"
        assert det.is_confirmed(1)
        assert det.evaluate(1, t_conf + 10.0) is None
        assert det.as_dict() == {
            "suspicions": 1, "suspicions_cleared": 0, "confirms": 1,
        }

    def test_heartbeat_clears_unconfirmed_suspicion(self):
        det = FailureDetector(min_suspect_s=0.05, min_confirm_s=0.25)
        last = _warm(det, 2)
        t_sus = last + det.suspect_after(2) + 0.01
        assert det.evaluate(2, t_sus) == "suspect"
        # the rank was only slow: its next beat clears the suspicion.
        assert det.heartbeat(2, t_sus + 0.01) is True
        assert not det.is_suspected(2)
        assert det.suspicions_cleared == 1
        # an ordinary beat on a healthy rank does not "clear" anything.
        assert det.heartbeat(2, t_sus + 0.02) is False
        # and the cycle can repeat: suspicion is re-armed, not latched.
        t2 = t_sus + 0.02 + det.suspect_after(2) + 0.01
        assert det.evaluate(2, t2) == "suspect"
        assert det.suspicions == 2

    def test_never_confirm_on_first_look(self):
        """A rank first seen ages ago is suspected, never confirmed: the
        first evaluation only anchors its clock, and confirmation
        requires a standing suspicion."""
        det = FailureDetector()
        assert det.evaluate(3, 100.0) is None  # anchors, no verdict
        # an enormous gap later: suspicion first, not execution.
        assert det.evaluate(3, 1000.0) == "suspect"
        assert not det.is_confirmed(3)

    def test_adaptive_threshold_scales_with_cadence(self):
        """A slow-cadence rank (big compute steps) earns a longer grace
        window than a chatty one; the chatty one bottoms out at the
        min_suspect_s floor."""
        det = FailureDetector(min_suspect_s=0.05)
        _warm(det, 0, n=30, gap=0.2)      # slow: beats every 200ms
        _warm(det, 1, n=30, gap=0.001)    # chatty: every 1ms
        assert det.suspect_after(0) >= 0.2
        assert det.suspect_after(1) == pytest.approx(0.05)
        assert det.suspect_after(0) > det.suspect_after(1)

    def test_reset_forgets_history(self):
        det = FailureDetector()
        last = _warm(det, 1)
        det.evaluate(1, last + 100.0)
        det.evaluate(1, last + 200.0)
        assert det.is_confirmed(1)
        det.reset(1)  # rejoin admitted a fresh incarnation
        assert not det.is_confirmed(1)
        assert det.evaluate(1, last + 300.0) is None  # first look anchors

    def test_ctor_validates_threshold_ordering(self):
        with pytest.raises(ValueError):
            FailureDetector(phi_suspect=8.0, phi_confirm=8.0)
        with pytest.raises(ValueError):
            FailureDetector(min_suspect_s=0.3, min_confirm_s=0.2)


class TestFabricIntegration:
    def test_silent_rank_is_confirmed_and_peer_sees_peerfailed(self):
        det = FailureDetector(
            min_suspect_s=0.02, min_confirm_s=0.05, poll_interval=0.005
        )
        fab = Fabric(2, policy=ChaosPolicy.quiet(0), detector=det)

        def fn(comm):
            if comm.rank == 1:
                time.sleep(0.3)  # silent well past min_confirm_s
                return None
            comm.recv(1, ("never",))

        _, errors = run_workers_elastic(2, fn, fabric=fab)
        assert errors[0] is not None
        assert isinstance(errors[0].original, PeerFailed)
        assert errors[1] is None  # the silent rank merely returned late
        assert det.confirms == 1
        assert fab._m_heal["detector_confirms"].value == 1

    def test_slow_rank_is_suspected_then_cleared(self):
        """A rank that is slow but not dead trips suspicion, then its
        message lands: delivery succeeds and the suspicion is cleared —
        the run never shrinks."""
        det = FailureDetector(
            min_suspect_s=0.02, min_confirm_s=0.5, poll_interval=0.005
        )
        fab = Fabric(2, policy=ChaosPolicy.quiet(0), detector=det)

        def fn(comm):
            if comm.rank == 1:
                time.sleep(0.1)  # past suspect, well short of confirm
                comm.send(np.arange(4.0), 0, ("late",))
                return None
            return comm.recv(1, ("late",))

        results, errors = run_workers_elastic(2, fn, fabric=fab)
        assert errors == [None, None]
        assert np.array_equal(results[0], np.arange(4.0))
        assert det.suspicions >= 1
        assert det.suspicions_cleared >= 1
        assert det.confirms == 0
        assert fab._m_heal["detector_suspicions"].value >= 1
        assert fab._m_heal["detector_suspicions_cleared"].value >= 1
