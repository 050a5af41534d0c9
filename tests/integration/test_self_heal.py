"""End-to-end self-healing: heal differential, rejoin scenario, quiet cost.

The three acceptance gates of the self-healing ring in one place:

1. **Heal differential** — within-budget transient faults (bit-flips,
   link flaps, stalls) are bit-exactly invisible: the faulted run equals
   a clean same-strategy same-world run.
2. **Self-heal scenario** — a NIC outage long enough to be *confirmed*
   shrinks the ring, the rank rejoins, the ring re-grows to full world,
   and the result still matches the clean full-world run.
3. **Quiet-wire cost** — CRC framing and the heal machinery cost zero
   retransmits and zero steady-state allocations when nothing misbehaves
   (the PR-3 gate, with framing on).
"""

import pytest

from repro.core.api import train
from repro.core.weipipe import train_weipipe
from repro.parallel.elastic import train_elastic
from repro.runtime import ChaosPolicy, Fabric, Topology
from repro.testing import (
    HEAL_SCHEDULES,
    compare_train_results,
    default_differential_spec,
    run_crash_recovery,
    run_heal_differential,
    run_self_heal,
)


class TestHealDifferential:
    @pytest.mark.parametrize("schedule", ["bitflip", "storm"])
    def test_faulted_runs_bit_exact_vs_clean_twin(self, schedule):
        report = run_heal_differential(
            modes=("weipipe-interleave", "weipipe-hier"),
            worlds=(4,),
            precisions=("fp64", "fp32"),
            schedules={schedule: HEAL_SCHEDULES[schedule]},
        )
        report.raise_if_failed()
        # the honesty check inside already requires real injections;
        # assert the headline fault fired so the gate can't go vacuous.
        agg = report.injected[schedule]
        if "bitflip" in schedule or schedule == "storm":
            assert agg.get("bitflips", 0) > 0

    def test_flap_and_stall_schedules_at_small_world(self):
        report = run_heal_differential(
            modes=("weipipe-naive",),
            worlds=(2,),
            precisions=("fp64",),
            schedules={k: HEAL_SCHEDULES[k] for k in ("flap", "stall")},
        )
        report.raise_if_failed()


class TestSelfHealScenario:
    def test_confirm_shrink_rejoin_regrow_verified(self):
        report = run_self_heal(strategy="weipipe-interleave", world=4, seed=0)
        assert report.ok, report.summary()
        assert report.final_world == 4
        assert report.ring_rejoins >= 1
        assert report.detector.get("confirms", 0) >= 1
        assert report.verified is True

    def test_hier_strategy_heals_too(self):
        report = run_self_heal(strategy="weipipe-hier", world=4, seed=0)
        assert report.ok, report.summary()


class TestQuietWireCost:
    def test_zero_retransmits_and_alloc_gate_with_framing(self):
        """PR-3's steady-state allocation gate still holds with CRC
        framing on every message, and a quiet wire never retransmits."""
        fab = Fabric(4)
        spec = default_differential_spec()
        result = train_weipipe(spec, 4, mode="interleave", fabric=fab,
                               overlap=True)
        allocs = result.extra["pool_allocs_by_iter"]
        assert allocs[-1] - allocs[0] <= 2
        assert fab._m_heal["fabric_retransmits"].value == 0
        assert fab._m_heal["fabric_corrupt_frames"].value == 0

    def test_quiet_chaos_fabric_control(self):
        fab = Fabric(4, policy=ChaosPolicy.quiet(0))
        train(default_differential_spec(), "weipipe-interleave", 4, fabric=fab)
        s = fab.chaos
        assert (s.retransmits, s.nacks, s.bitflips, s.corrupt_frames) == (0,) * 4


class TestHierElasticRegistration:
    def test_elastic_hier_bit_equal_to_direct(self):
        spec = default_differential_spec()
        direct = train_weipipe(spec, 4, topology=Topology.grid(4, "2x2"))
        elastic = train_elastic(spec, "weipipe-hier", 4)
        diff = compare_train_results(elastic, direct, tol=0)
        assert diff is None, diff

    def test_hier_crash_recovery_shrink_then_verify(self):
        report = run_crash_recovery(strategy="weipipe-hier", seed=1)
        assert report.recovered, report.summary()
        assert report.verified, report.summary()


class TestSweepHonesty:
    def test_heal_differential_rejects_inert_schedule(self):
        """A schedule that injects nothing must fail the sweep: the gate
        refuses to pass vacuously."""
        report = run_heal_differential(
            modes=("weipipe-naive",),
            worlds=(2,),
            precisions=("fp64",),
            schedules={"inert": {}},
        )
        assert not report.ok
        assert any("inject" in str(f) for f in report.failures)
