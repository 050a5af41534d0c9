"""Elastic training end to end: equivalence, crash recovery, resume.

Three claims, each checked bit-for-bit (the specs are fp64 so exact
comparison is honest):

* with nothing failing, ``train_elastic`` is indistinguishable from the
  plain strategy zoo — same losses, same final weights;
* with a worker killed mid-run by seeded chaos injection, the survivors
  shrink the ring and the continuation equals a clean run on the
  shrunken world seeded from the rollback snapshot
  (:func:`repro.testing.run_crash_recovery`'s differential);
* a checkpoint written at a step boundary resumes bit-exactly — in
  memory and through the durable v2 file format.
"""

from dataclasses import replace

import pytest

import repro.testing as harness
from repro.optim import Adam
from repro.core.api import train
from repro.io import load_checkpoint_state, save_checkpoint
from repro.parallel.common import TrainResult
from repro.parallel.elastic import ELASTIC_STRATEGIES, train_elastic
from repro.runtime import ChaosPolicy, Fabric, PeerFailed, ProcessTransport
from repro.testing import compare_train_results, default_crash_spec, run_crash_recovery


def _adam_spec(**overrides):
    return default_crash_spec(
        make_optimizer=lambda: Adam(lr=1e-2), **overrides
    )


def _assert_same(result, reference):
    diff = compare_train_results(result, reference, tol=0)
    assert diff is None, diff


class TestElasticEqualsPlain:
    @pytest.mark.parametrize("strategy", ELASTIC_STRATEGIES)
    def test_no_failure_matches_plain_train(self, strategy):
        spec = default_crash_spec(iters=2)
        world = 1 if strategy == "serial" else 4
        _assert_same(train_elastic(spec, strategy, 4), train(spec, strategy, world))


class TestCrashRecovery:
    # crash points pinned inside the active phase for determinism and to
    # skip the probe run (they were chosen from probed post counts).
    @pytest.mark.parametrize(
        "strategy,crash_rank,crash_at_post",
        [("weipipe-interleave", 0, 76), ("fsdp", 1, 249)],
    )
    def test_recovery_matches_clean_shrunken_run(
        self, strategy, crash_rank, crash_at_post
    ):
        report = run_crash_recovery(
            strategy=strategy,
            world=4,
            crash_rank=crash_rank,
            crash_at_post=crash_at_post,
        )
        assert report.recovered, report.summary()
        assert report.survivors and crash_rank not in report.survivors
        assert len(report.losses) == default_crash_spec().iters
        report.raise_if_failed()
        assert report.verified is True

    def test_recovery_survives_wire_chaos(self):
        report = run_crash_recovery(
            strategy="weipipe-interleave",
            world=4,
            crash_rank=2,
            crash_at_post=60,
            wire_chaos=True,
        )
        assert report.recovered, report.summary()
        report.raise_if_failed()

    @pytest.mark.parametrize("wire_chaos", [False, True])
    def test_pinned_crash_recovers_identically_on_both_wires(self, wire_chaos):
        """The crash is a function of the victim's own post count and the
        chaos layer is the same object on both wires: the same pinned
        crash — under a quiet and under a fully chaotic wire — shrinks
        to the same survivors from the same step and continues
        bit-identically on processes and on threads."""
        spec = default_crash_spec()
        base = ChaosPolicy(seed=0) if wire_chaos else ChaosPolicy.quiet(0)
        policy = replace(base, crash_rank=2, crash_at_post=40)
        thread = train_elastic(
            spec, "weipipe-interleave", 4,
            fabric=Fabric(4, policy=policy, timeout=60.0),
        )
        transport = ProcessTransport(policy=policy)
        process = train_elastic(spec, "weipipe-interleave", 4, fabric=transport)
        assert transport.chaos.crashes == 1
        assert process.extra["survivors"] == thread.extra["survivors"] == [0, 1, 3]
        assert [e.describe() for e in process.extra["recovery_events"]] == [
            e.describe() for e in thread.extra["recovery_events"]
        ]
        _assert_same(process, thread)

    def test_verify_compares_chunk_counts(self, monkeypatch):
        """A clean rerun that comes back one chunk short is a mismatch:
        the verify step compares chunk counts instead of zipping the two
        lists to the shorter one."""
        real, calls = harness.train_elastic, []

        def clean_run_one_chunk_short(*args, **kwargs):
            res = real(*args, **kwargs)
            calls.append(res)
            if len(calls) == 2:  # pinned crash, no probe: call 2 is verify
                res = TrainResult(res.losses, res.chunks[:-1], res.extra)
            return res

        monkeypatch.setattr(harness, "train_elastic", clean_run_one_chunk_short)
        report = run_crash_recovery(
            strategy="weipipe-interleave", world=4, crash_rank=0,
            crash_at_post=76,
        )
        assert report.recovered and report.verified is False, report.summary()
        assert "weight chunks" in report.detail
        assert not report.ok

    def test_max_recoveries_zero_propagates(self):
        spec = default_crash_spec(iters=2)

        policy = replace(
            ChaosPolicy.quiet(0), crash_rank=1, crash_at_post=40
        )
        with pytest.raises(Exception) as exc_info:
            train_elastic(
                spec,
                "weipipe-interleave",
                4,
                fabric=Fabric(4, policy=policy, timeout=60.0),
                max_recoveries=0,
            )
        # every survivor re-raised PeerFailed; the driver surfaces one.
        assert "PeerFailed" in str(exc_info.value) or isinstance(
            exc_info.value, PeerFailed
        )


class TestResumeDeterminism:
    @pytest.mark.parametrize("strategy", ["serial", "weipipe-interleave"])
    def test_split_run_equals_full_run(self, strategy):
        """iters=4 in one go == iters=2 then resume for 2 more, using the
        canonical optimizer state and the start_iteration cursor."""
        spec = _adam_spec(iters=4)
        full = train_elastic(spec, strategy, 4)

        first = train_elastic(replace(spec, iters=2), strategy, 4)
        second = train_elastic(
            replace(
                spec,
                iters=2,
                start_iteration=2,
                initial_chunks=first.chunks,
                initial_opt_state=first.extra["opt_state"],
            ),
            strategy,
            4,
        )
        _assert_same(
            TrainResult(losses=first.losses + second.losses, chunks=second.chunks),
            full,
        )

    def test_resume_through_checkpoint_file(self, tmp_path):
        """The durable v2 format preserves bit-exactness: save at the
        halfway boundary, load, resume, compare with the unbroken run."""
        spec = _adam_spec(iters=4)
        strategy = "fsdp"
        full = train_elastic(spec, strategy, 4)

        first = train_elastic(replace(spec, iters=2), strategy, 4)
        path = save_checkpoint(
            tmp_path / "mid",
            spec.cfg,
            first.chunks,
            opt_state=first.extra["opt_state"],
            train_state={
                "next_iteration": 2,
                "strategy": strategy,
                "losses": list(first.losses),
            },
        )
        ckpt = load_checkpoint_state(path)
        assert ckpt.train_state["strategy"] == strategy
        second = train_elastic(
            replace(
                spec,
                iters=2,
                start_iteration=ckpt.train_state["next_iteration"],
                initial_chunks=ckpt.chunks,
                initial_opt_state=ckpt.opt_state,
            ),
            strategy,
            4,
        )
        _assert_same(
            TrainResult(
                losses=ckpt.train_state["losses"] + second.losses,
                chunks=second.chunks,
            ),
            full,
        )
