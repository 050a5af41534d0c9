"""Cross-check: DES makespans vs closed-form bubble formulas (§4.4).

With communication made free (infinite bandwidth, zero latency), the
simulated bubble ratios must match the pencil-and-paper formulas — a
joint property test of the schedule builders and the engine.
"""

import pytest

from repro.runtime import LinkSpec
from repro.sim import WorkloadDims, evaluate
from repro.sim.analytic import (
    activation_pp_bandwidth,
    bubble_ratio_1f1b,
    bubble_ratio_weipipe_interleave,
    bubble_ratio_weipipe_naive,
    weipipe_turn_bandwidth,
)
from repro.sim.costmodel import CostModel, ExecConfig
from repro.sim.hardware import A800, Cluster
from repro.sim.schedules import build_schedule

FREE = LinkSpec("free", bandwidth=1e18, latency=0.0)


def free_cluster(world: int) -> Cluster:
    return Cluster(gpu=A800, nodes=1, gpus_per_node=world, intra=FREE, inter=FREE)


def dims(world=4, rounds=4):
    return WorkloadDims(
        hidden=1024, n_layers=world * 2, seq_len=4096, microbatch=8,
        n_microbatches=world * rounds,
    )


NOREC = ExecConfig(recompute=False)


# P >= 4: the closed forms assume the fill/drain rounds are paced by
# steady-state neighbours, which needs a few workers in steady state.
# They also assume one T_F and one T_B for every op: with recompute the
# checkpoint rule gives a B that follows its own F one replay fewer
# (1F1B's last stage), so the cross-check runs without it.
@pytest.mark.parametrize("world,rounds", [(4, 2), (4, 4), (4, 8), (8, 2)])
class TestBubbleCrossCheck:
    def test_gpipe(self, world, rounds):
        d, cluster = dims(world, rounds), free_cluster(world)
        rep = evaluate(build_schedule("gpipe", d, cluster, NOREC))
        t_f, t_b = CostModel(d, cluster.gpu, NOREC).op_means("gpipe", world)
        expected = bubble_ratio_1f1b(world, d.n_microbatches, t_f, t_b)
        assert rep.bubble_ratio == pytest.approx(expected, rel=0.05)

    def test_1f1b(self, world, rounds):
        d, cluster = dims(world, rounds), free_cluster(world)
        rep = evaluate(build_schedule("1f1b", d, cluster, NOREC))
        t_f, t_b = CostModel(d, cluster.gpu, NOREC).op_means("1f1b", world)
        expected = bubble_ratio_1f1b(world, d.n_microbatches, t_f, t_b)
        assert rep.bubble_ratio == pytest.approx(expected, rel=0.05)

    def test_weipipe_interleave(self, world, rounds):
        d, cluster = dims(world, rounds), free_cluster(world)
        rep = evaluate(build_schedule("weipipe-interleave", d, cluster, NOREC))
        t_f, t_b = CostModel(d, cluster.gpu, NOREC).op_means("weipipe-interleave", world)
        expected = bubble_ratio_weipipe_interleave(
            world, d.n_microbatches, t_f, t_b
        )
        # the closed form is an upper bound: it assumes every fill/drain
        # turn is stretched to steady pace, but the ring's first and
        # last few turns run unstretched.
        assert rep.bubble_ratio <= expected + 0.01
        assert rep.bubble_ratio >= 0.7 * expected

    def test_weipipe_naive(self, world, rounds):
        d, cluster = dims(world, rounds), free_cluster(world)
        rep = evaluate(build_schedule("weipipe-naive", d, cluster, NOREC))
        t_f, t_b = CostModel(d, cluster.gpu, NOREC).op_means("weipipe-naive", world)
        expected = bubble_ratio_weipipe_naive(world, d.n_microbatches, t_f, t_b)
        assert rep.bubble_ratio == pytest.approx(expected, abs=0.06)


class TestAnalyticRelations:
    def test_1f1b_equals_interleave_paper_claim(self):
        """Paper: 1F1B and WeiPipe-Interleave have similar bubble ratios."""
        t_f, t_b = 1.0, 3.0
        for world, n in [(4, 16), (8, 32), (16, 128)]:
            a = bubble_ratio_1f1b(world, n, t_f, t_b)
            b = bubble_ratio_weipipe_interleave(world, n, t_f, t_b)
            assert a == pytest.approx(b, rel=0.35)

    def test_naive_worst(self):
        t_f, t_b = 1.0, 3.0
        naive = bubble_ratio_weipipe_naive(4, 16, t_f, t_b)
        inter = bubble_ratio_weipipe_interleave(4, 16, t_f, t_b)
        assert naive > inter

    def test_bubbles_vanish_with_microbatches(self):
        t_f, t_b = 1.0, 3.0
        prev = 1.0
        for n in (8, 32, 128, 512):
            b = bubble_ratio_1f1b(8, n, t_f, t_b)
            assert b < prev
            prev = b
        assert prev < 0.05

    def test_weipipe_bandwidth_independent_of_seq(self):
        """36 H^2 per turn: the turn gets longer with S but bytes stay
        flat, so required bandwidth *falls* with context length."""
        cluster = free_cluster(4)
        d1 = dims(4, 4)
        d2 = d1.with_(seq_len=16384)
        bw1 = weipipe_turn_bandwidth(d1, cluster)
        bw2 = weipipe_turn_bandwidth(d2, cluster)
        assert bw2 < bw1

    def test_activation_bandwidth_grows_with_seq_via_attention_only(self):
        """Activation-passing: bytes and GEMM time both scale with S, so
        required bandwidth is ~flat in S (it scales with G instead) —
        until the S^2 attention term lengthens the period."""
        cluster = free_cluster(4)
        d1 = dims(4, 4).with_(seq_len=16384)  # deep in long-context regime
        bw_act = activation_pp_bandwidth(d1, cluster)
        bw_wp = weipipe_turn_bandwidth(d1, cluster)
        # at G*S >> 18H the weight ring needs less bandwidth
        assert bw_wp < bw_act

    def test_crossover_at_small_context(self):
        """Short context, small G: activation-passing is cheaper."""
        cluster = free_cluster(4)
        d = WorkloadDims(
            hidden=4096, n_layers=8, seq_len=128, microbatch=1,
            n_microbatches=16,
        )
        assert activation_pp_bandwidth(d, cluster) < weipipe_turn_bandwidth(d, cluster)
