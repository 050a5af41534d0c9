"""The predict-then-validate loop: live runs gated by reconcile()."""

import pytest

from repro.plan import (
    PlanSpec,
    search,
    validate_candidate,
)
from repro.plan.search import Candidate, Evaluated
from repro.plan.spec import ClusterSpec, ModelSpec, SearchSpace, ValidationSpec


def _spec(**space_over):
    space = dict(microbatch_sizes=(1,))
    space.update(space_over)
    return PlanSpec(
        model=ModelSpec(hidden=512, n_layers=8, seq_len=2048, n_heads=4,
                        vocab=1024, global_batch_sequences=64),
        cluster=ClusterSpec(preset="pcie-eth", world=8, gpus_per_node=4),
        space=SearchSpace(**space),
        validation=ValidationSpec(world_cap=2, iters=2),
    )


def _evaluated(strategy, degree, dp):
    return Evaluated(
        candidate=Candidate(
            strategy=strategy, world=degree * dp, degree=degree, dp=dp,
            microbatch=1, n_microbatches=8, precision="fp16",
        ),
        peak_memory_bytes=1.0, fits=True,
        iteration_s=1.0, tokens_per_s=1.0, tokens_per_s_per_gpu=1.0,
    )


class TestReconcileGate:
    def test_interleave_pick_reconciles(self):
        verdict = validate_candidate(
            _evaluated("weipipe-interleave", 8, 1), _spec()
        )
        assert verdict["ran"] is True
        assert verdict["gate"] == "reconcile"
        assert verdict["strategy"] == "weipipe-interleave"
        assert verdict["world"] == 2  # clamped by world_cap
        assert verdict["trace_schema_ok"] is True
        assert verdict["passed"] is True
        wall = verdict["reconcile"]["iteration_wall"]
        assert wall["within_tolerance"] is True

    def test_zb_ring_pick_reconciles(self):
        verdict = validate_candidate(_evaluated("weipipe-zb", 8, 1), _spec())
        assert verdict["strategy"] == "weipipe-zb"
        assert verdict["gate"] == "reconcile"
        assert verdict["passed"] is True

    @staticmethod
    def _hier_verdict():
        spec = PlanSpec(
            model=_spec().model, cluster=_spec().cluster,
            space=_spec().space,
            validation=ValidationSpec(world_cap=4, iters=2),
        )
        return validate_candidate(
            _evaluated("weipipe-hier", 8, 1), spec
        )

    def test_hier_pick_runs_with_topology(self):
        verdict = self._hier_verdict()
        assert verdict["strategy"] == "weipipe-hier"
        assert verdict["world"] == 4
        assert verdict["gate"] == "reconcile"
        assert verdict["trace_schema_ok"] is True
        ht = verdict["reconcile"]["hier_traffic"]
        assert ht["within_tolerance"], ht

    @pytest.mark.timing
    def test_hier_pick_passes_wall_gate(self):
        assert self._hier_verdict()["passed"] is True

    def test_pipeline_pick_reconciles(self):
        verdict = validate_candidate(_evaluated("1f1b", 8, 1), _spec())
        assert verdict["gate"] == "reconcile"
        assert verdict["passed"] is True


class TestRankSymmetricPicksReconcile:
    """fsdp, dp, tp and sp run the shared traced loop: their picks are
    gated by reconcile() like the rings and pipelines."""

    @pytest.mark.parametrize("strategy,degree,dp,world", [
        ("fsdp", 8, 1, 2),
        ("dp", 1, 8, 2),  # pure dp validates its replica fan-out, capped
        ("tp", 8, 1, 2),
        ("sp", 8, 1, 2),
    ])
    def test_pick_reconciles(self, strategy, degree, dp, world):
        verdict = validate_candidate(_evaluated(strategy, degree, dp), _spec())
        assert verdict["strategy"] == strategy
        assert verdict["world"] == world
        assert verdict["gate"] == "reconcile"
        assert verdict["trace_schema_ok"] is True
        assert verdict["passed"] is True, verdict["reconcile"]


class TestSmokeGate:
    def test_one_worker_run_takes_the_smoke_gate(self):
        """The ring's DES has no self-link to price a world of 1."""
        spec = PlanSpec(
            model=_spec().model, cluster=_spec().cluster, space=_spec().space,
            validation=ValidationSpec(world_cap=1, iters=2),
        )
        verdict = validate_candidate(_evaluated("weipipe-interleave", 8, 1), spec)
        assert verdict["world"] == 1
        assert verdict["gate"] == "smoke"
        assert verdict["reconcile"] is None
        assert verdict["passed"] is True
        assert all(l == l for l in verdict["losses"])  # finite


class TestEndToEnd:
    def test_search_then_validate_top_pick(self):
        spec = _spec()
        result = search(spec)
        assert result.feasible
        verdict = validate_candidate(result.feasible[0], spec)
        assert verdict["ran"] and verdict["passed"]
        assert verdict["planned"] == result.feasible[0].candidate.as_dict()
