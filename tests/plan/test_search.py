"""Config-space enumeration: shape rules, pruning ledger, ranking."""

import pytest

from repro.plan import PlanSpec, enumerate_candidates, search
from repro.plan.spec import ClusterSpec, ModelSpec, SearchSpace
from repro.sim.runner import NO_RECOMPUTE_STRATEGIES


def _spec(**over):
    kw = dict(
        model=ModelSpec(hidden=512, n_layers=8, seq_len=2048, n_heads=4,
                        vocab=1024, global_batch_sequences=64),
        cluster=ClusterSpec(preset="pcie-eth", world=8, gpus_per_node=4),
        space=SearchSpace(microbatch_sizes=(1, 2), overlap=(True,),
                          backends=("thread",)),
    )
    kw.update(over)
    return PlanSpec(**kw)


class TestShapeRules:
    def test_degree_one_is_dp_only(self):
        cands, _ = enumerate_candidates(_spec())
        at_one = {c.strategy for c in cands if c.degree == 1}
        assert at_one == {"dp"}
        assert all(c.degree == 1 for c in cands if c.strategy == "dp")

    def test_dp_times_degree_is_world(self):
        cands, _ = enumerate_candidates(_spec())
        assert all(c.dp * c.degree == c.world == 8 for c in cands)

    def test_hier_is_interleave_spanning_nodes(self):
        cands, _ = enumerate_candidates(_spec())
        hier = [c for c in cands if c.grouping == "hier"]
        assert hier, "expected hierarchical candidates"
        for c in hier:
            assert c.strategy == "weipipe-hier"
            assert c.dp == 1
            # gpus_per_node=4, so a >1-node inner ring means degree 8
            assert c.degree == 8

    def test_single_node_cluster_has_no_hier(self):
        spec = _spec(cluster=ClusterSpec(preset="single-node", world=8))
        cands, _ = enumerate_candidates(spec)
        assert not [c for c in cands if c.grouping == "hier"]

    def test_layer_divisibility(self):
        # 8 layers on degree 8 is fine; a 6-layer model cannot ring at 4
        spec = _spec(model=ModelSpec(hidden=512, n_layers=6, seq_len=2048,
                                     n_heads=4, vocab=1024,
                                     global_batch_sequences=64))
        cands, rejected = enumerate_candidates(spec)
        assert not [
            c for c in cands
            if c.strategy.startswith("weipipe") and c.degree == 4
        ]
        assert rejected > 0

    def test_tp_needs_hidden_divisible(self):
        spec = _spec(model=ModelSpec(hidden=12, n_layers=8, seq_len=2048,
                                     n_heads=4, vocab=1024,
                                     global_batch_sequences=64))
        cands, _ = enumerate_candidates(spec)
        assert not [c for c in cands if c.strategy == "tp" and c.degree == 8]

    def test_ring_needs_microbatches_divisible(self):
        cands, _ = enumerate_candidates(_spec())
        for c in cands:
            if c.strategy.startswith("weipipe"):
                assert c.n_microbatches % c.degree == 0

    def test_recompute_follows_strategy(self):
        cands, _ = enumerate_candidates(_spec())
        for c in cands:
            base = "weipipe-interleave" if c.strategy == "weipipe-hier" \
                else c.strategy
            assert c.recompute == (base not in NO_RECOMPUTE_STRATEGIES)

    def test_explicit_degrees_filtered_to_divisors(self):
        spec = _spec(space=SearchSpace(degrees=(2, 3, 8),
                                       microbatch_sizes=(1,),
                                       overlap=(True,)))
        cands, _ = enumerate_candidates(spec)
        assert {c.degree for c in cands} <= {2, 8}

    def test_backend_axis_multiplies(self):
        one, _ = enumerate_candidates(_spec())
        both, _ = enumerate_candidates(_spec(space=SearchSpace(
            microbatch_sizes=(1, 2), overlap=(True,),
            backends=("thread", "process"))))
        assert len(both) == 2 * len(one)


class TestSearchAndRanking:
    def test_ledger_adds_up(self):
        result = search(_spec())
        assert result.total == (
            len(result.feasible) + len(result.memory_rejected)
            + result.shape_rejected
        )

    def test_feasible_sorted_descending(self):
        result = search(_spec())
        tps = [e.tokens_per_s_per_gpu for e in result.feasible]
        assert tps == sorted(tps, reverse=True)
        assert all(t > 0 for t in tps)

    def test_deterministic(self):
        a = search(_spec())
        b = search(_spec())
        assert [e.candidate for e in a.feasible] == [
            e.candidate for e in b.feasible
        ]

    def test_thread_before_process_on_ties(self):
        spec = _spec(space=SearchSpace(microbatch_sizes=(1,), overlap=(True,),
                                       backends=("thread", "process")))
        result = search(spec)
        seen = {}
        for rank, ev in enumerate(result.feasible):
            key = (ev.candidate.strategy, ev.candidate.degree,
                   ev.candidate.microbatch, ev.candidate.overlap,
                   ev.candidate.grouping)
            if key in seen:
                other = result.feasible[seen[key]]
                if other.tokens_per_s_per_gpu == ev.tokens_per_s_per_gpu:
                    assert other.candidate.backend == "thread"
                    assert ev.candidate.backend == "process"
            else:
                seen[key] = rank


class TestReferenceSpec:
    """The CI acceptance assertions, pinned here too: the reference
    cluster spec must rank >= 24 feasible candidates, reject at least
    one on memory, and put a reconcile-gated strategy on top."""

    def test_reference_plan_shape(self):
        from repro.plan import RECONCILE_GATED, load_spec

        spec = load_spec("examples/specs/reference_cluster.json")
        result = search(spec)
        assert len(result.feasible) >= 24
        assert len(result.memory_rejected) >= 1
        top = result.feasible[0].candidate
        assert top.strategy in RECONCILE_GATED
        # the paper's claim at long context on a slow wire: the
        # hierarchical weight ring wins
        assert top.strategy == "weipipe-hier"
