"""The differential chaos harness, exercised end to end.

Two obligations:

* every strategy in the zoo is equivalent to serial under *many* chaos
  seeds (delivery-order robustness, the claim the happy-path
  equivalence suite cannot make);
* the harness has teeth: intentionally broken schedules — a wire with
  swapped ring tags, and a racy gradient exchange that trusts
  ``ready()`` — are caught, with the failing chaos seed named so
  ``python -m repro chaos-sweep`` can replay it.

The one comparator and every matrix's replay line are pinned here too.
"""

import shlex
from dataclasses import replace

import numpy as np
import pytest

import repro.core.api as api
from repro.cli import build_parser
from repro.parallel.common import TrainResult, microbatch, pre_update
from repro.runtime import ChaosPolicy, Fabric, run_workers
from repro.testing import (
    DEFAULT_DIFFERENTIAL_STRATEGIES,
    HEAL_SCHEDULES,
    SERIAL_TOL,
    DifferentialMismatch,
    compare_train_results,
    default_differential_spec,
    run_backend_differential,
    run_differential,
    run_heal_differential,
    run_traced_backend_differential,
)


class TestAllStrategiesUnderChaos:
    def test_five_seeds_across_the_whole_zoo(self):
        """Tier-1's cell of the acceptance sweep — every strategy x 5
        chaos seeds (the nightly ``extended`` job runs all 20), all
        equivalent to serial in losses, final weights and accumulated
        weight updates."""
        report = run_differential(chaos_seeds=range(5))
        assert report.runs == len(DEFAULT_DIFFERENTIAL_STRATEGIES) * 5
        assert report.ok, report.summary()

    def test_aggressive_wire_smaller_sweep(self):
        """Crank every fault probability up on a few seeds."""
        policy = ChaosPolicy(
            delay_prob=1.0, max_delay=0.004, drop_prob=0.4,
            duplicate_prob=0.4, retry_delay=0.001,
        )
        report = run_differential(
            strategies={"weipipe-interleave": 4, "weipipe-zb": 4, "1f1b": 4},
            chaos_seeds=range(3),
            spec=default_differential_spec(iters=1),
            policy=policy,
        )
        assert report.ok, report.summary()

    def test_raise_on_failure_mentions_seed(self):
        """A failing cell must raise with strategy + seed + repro hint."""

        def always_wrong(spec, world, fabric):
            res = _train_builtin(spec, "serial", 1)
            bad = [c.map(lambda a: a + 1.0) for c in res.chunks]
            return TrainResult(losses=res.losses, chunks=bad)

        with pytest.raises(DifferentialMismatch) as ei:
            run_differential(
                strategies={"always-wrong": (1, always_wrong)},
                chaos_seeds=[17],
                raise_on_failure=True,
            )
        msg = str(ei.value)
        assert "chaos_seed=17" in msg
        assert "always-wrong" in msg
        assert "chaos-sweep" in msg  # the replay hint


class TestOneComparator:
    """Every gate's comparator; ``tol=0`` is bitwise."""

    @pytest.fixture(scope="class")
    def serial(self):
        spec = default_differential_spec(iters=1)
        return spec, _train_builtin(spec, "serial", 1)

    def test_one_chunk_fewer_fails_at_every_tolerance(self, serial):
        spec, ref = serial
        short = TrainResult(losses=ref.losses, chunks=ref.chunks[:-1])
        for tol in (SERIAL_TOL, 0):
            assert "weight chunks" in compare_train_results(short, ref, spec, tol)

    def test_one_ulp_passes_the_serial_tolerance_not_bitwise(self, serial):
        spec, ref = serial
        chunks = [c.clone() for c in ref.chunks]
        w = chunks[0][chunks[0].keys()[0]]
        w.flat[0] = np.nextafter(w.flat[0], np.inf)
        nudged = TrainResult(losses=ref.losses, chunks=chunks)
        assert compare_train_results(nudged, ref, spec) is None
        assert "bitwise" in compare_train_results(nudged, ref, spec, tol=0)

    def test_nan_loss_fails_at_every_tolerance(self, serial):
        spec, ref = serial
        bad = TrainResult(losses=[float("nan")] + ref.losses[1:], chunks=ref.chunks)
        for tol in (SERIAL_TOL, 0):
            diff = compare_train_results(bad, ref, spec, tol)
            assert "loss curve diverges at iter 0" in diff


def _boom(spec, world, fabric):
    raise RuntimeError("forced failure")


class TestReplayLines:
    """A failure's replay line is a command the CLI parses, naming the
    subcommand of the matrix that produced it and the failing cell."""

    MATRICES = {
        "chaos": (
            lambda: run_differential(strategies={"boom": 2}, chaos_seeds=[7]),
            dict(command="chaos-sweep", strategies="boom", seed_start=7, seeds=1),
        ),
        "backend": (
            lambda: run_backend_differential(
                strategies={"boom": 2}, worlds=(2,), precisions=("fp32",)
            ),
            dict(command="train", strategy="boom", world=2, precision="fp32",
                 backend="process"),
        ),
        "traced": (
            lambda: run_traced_backend_differential(
                strategies={"boom": 2}, worlds=(2,), precisions=("fp32",)
            ),
            dict(command="trace", strategy="boom", world=2, backend="process"),
        ),
        "heal": (
            lambda: run_heal_differential(
                modes=("boom",), worlds=(2,), precisions=("fp32",),
                schedules={"flap": HEAL_SCHEDULES["flap"]}, seed=3,
            ),
            dict(command="self-heal", modes="boom", worlds="2",
                 precisions="fp32", seed=3, skip_rejoin=True),
        ),
    }

    @pytest.mark.parametrize("matrix", sorted(MATRICES))
    def test_forced_failure_replays_through_its_own_subcommand(
        self, matrix, monkeypatch
    ):
        monkeypatch.setitem(api.STRATEGIES, "boom", _boom)
        run, expected = self.MATRICES[matrix]
        report = run()
        assert report.runs == 1 and not report.ok
        assert "RuntimeError: forced failure" in report.failures[0].message
        for failure in report.failures:
            line = str(failure).splitlines()[-1]
            prefix = "  reproduce: python -m repro "
            assert line.startswith(prefix), line
            args = build_parser().parse_args(shlex.split(line[len(prefix):]))
            assert {k: getattr(args, k) for k in expected} == expected


def _train_builtin(spec, strategy, world, fabric=None):
    from repro import train

    return train(spec, strategy, world, fabric=fabric)


# ---------------------------------------------------------------------------
# broken schedule 1: swapped ring tags on the wire
# ---------------------------------------------------------------------------


class _TagSwapFabric(Fabric):
    """A wire that crosses WeiPipe's two weight flows: everything sent as
    the forward-flow slot ("F") arrives tagged as backward-flow ("B")
    and vice versa — the classic copy-paste ring bug."""

    def post(self, msg):
        tag = msg.tag
        if tag and tag[0] in ("F", "B"):
            swapped = (("B" if tag[0] == "F" else "F"),) + tuple(tag[1:])
            msg = replace(msg, tag=swapped)
        super().post(msg)


class TestBrokenSchedulesAreCaught:
    def test_swapped_ring_tags_caught_with_seed(self):
        report = run_differential(
            strategies={"weipipe-interleave": 4},
            chaos_seeds=range(3),
            spec=default_differential_spec(iters=1),
            fabric_factory=lambda world, pol: _TagSwapFabric(world),
        )
        assert not report.ok
        assert len(report.failures) >= 1
        f = report.failures[0]
        assert f.cell == "weipipe-interleave/P4"
        assert "chaos_seed" in str(f)
        assert "chaos-sweep" in str(f)

    def test_racy_ready_based_exchange_caught_by_some_seed(self):
        """A gradient exchange that *peeks* (``ready()``) instead of
        blocking is correct on the instant wire — the handshake
        guarantees the message was posted — but wrong on a real one,
        where posted != delivered.  Chaos finds it; the clean wire
        cannot."""
        strategies = {"racy-dp": (2, _train_racy_dp)}

        clean = run_differential(
            strategies=strategies,
            chaos_seeds=range(3),
            policy=ChaosPolicy.quiet(),
        )
        assert clean.ok, (
            "the racy exchange must pass on the instant wire (that is "
            "what makes it a chaos-only bug): " + clean.summary()
        )

        chaotic = run_differential(
            strategies=strategies,
            chaos_seeds=range(10),
            policy=ChaosPolicy(
                delay_prob=1.0, max_delay=0.01, drop_prob=0.0,
                duplicate_prob=0.0,
            ),
        )
        assert not chaotic.ok, "no chaos seed exposed the ready() race"
        assert any("chaos_seed" in str(f) for f in chaotic.failures)


def _train_racy_dp(spec, world, fabric):
    """Two-replica data parallelism with a ready()-race: each replica
    ships its gradients, handshakes on a *different* tag, then only
    merges the peer's gradients if they happen to have landed."""
    assert world == 2
    from repro.nn.checkpoint import CheckpointedChunk
    from repro.nn import functional as F

    def fn(comm):
        cfg = spec.cfg
        rank, peer = comm.rank, 1 - comm.rank
        chunks = spec.init_chunks()
        cos, sin = spec.rope()
        ck = CheckpointedChunk(cfg, recompute=spec.recompute)
        opt = spec.make_optimizer()
        states = [opt.init_state(c) for c in chunks]
        scale = 1.0 / spec.n_microbatches

        losses = []
        for it in range(spec.iters):
            accum = [c.zeros_like() for c in chunks]
            local_loss = 0.0
            for mb in range(rank, spec.n_microbatches, 2):
                tokens, targets = microbatch(spec, it, mb)
                x, fwd_states = tokens, []
                for i in range(cfg.n_layers):
                    x, st = ck.fwd(i, chunks[i], x, cos, sin)
                    fwd_states.append(st)
                loss, c_loss = F.cross_entropy_fwd(x, targets)
                local_loss += loss
                dy = F.cross_entropy_bwd(1.0, c_loss)
                for i in range(cfg.n_layers - 1, -1, -1):
                    dy, g = ck.bwd(i, chunks[i], dy, fwd_states[i])
                    accum[i].add_(g, scale=scale)

            comm.send([g.pack(np.float64) for g in accum], peer, ("grads", it))
            comm.send(local_loss, peer, ("loss", it))
            comm.send(True, peer, ("ack", it))
            comm.recv(peer, ("ack", it))
            # BUG: peeking instead of blocking.  The ack proves the peer
            # *posted* its gradients, not that they were *delivered*.
            handle = comm.irecv(peer, ("grads", it))
            peer_flats = handle.wait() if handle.ready() else None
            peer_loss = comm.recv(peer, ("loss", it))
            for i, g in enumerate(accum):
                total = g.pack(np.float64)
                if peer_flats is not None:
                    total = total + peer_flats[i]
                accum[i] = g.unpack_from(total)
            pre_update(spec, it, opt, accum)
            for i, c in enumerate(chunks):
                opt.step(c, accum[i], states[i])
            losses.append((local_loss + peer_loss) / spec.n_microbatches)
        return TrainResult(losses=losses, chunks=chunks)

    return run_workers(world, fn, fabric=fabric)[0]
