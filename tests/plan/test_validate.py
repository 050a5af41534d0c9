"""The predict-then-validate loop: live runs gated by reconcile()."""

import pytest

from repro.plan import (
    DEFAULT_STRATEGIES,
    RECONCILE_GATED,
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


class TestStrategyNames:
    def test_simulator_and_planner_speak_the_runtimes_names(self):
        """No name map: whatever can be simulated, charged memory or
        searched is something ``train`` runs."""
        from repro.core.api import RING_STRATEGIES, STRATEGIES
        from repro.sim import SIM_STRATEGIES
        from repro.sim.memory import MEMORY_MODELS

        for table in (SIM_STRATEGIES, MEMORY_MODELS, DEFAULT_STRATEGIES,
                      RECONCILE_GATED):
            assert set(table) <= set(STRATEGIES)
        # and every runnable ring has a simulator and a memory row
        assert set(RING_STRATEGIES) <= set(SIM_STRATEGIES) & set(MEMORY_MODELS)
        # the planner searches exactly what the simulator prices
        assert set(DEFAULT_STRATEGIES) == set(SIM_STRATEGIES)

    def test_gated_set_is_traceable_families(self):
        assert "weipipe-hier" in RECONCILE_GATED
        assert "1f1b" in RECONCILE_GATED
        assert "fsdp" not in RECONCILE_GATED
        assert "dp" not in RECONCILE_GATED


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


class TestSmokeGate:
    def test_fsdp_pick_smoke_gates(self):
        verdict = validate_candidate(_evaluated("fsdp", 8, 1), _spec())
        assert verdict["gate"] == "smoke"
        assert verdict["reconcile"] is None
        assert verdict["passed"] is True
        assert all(l == l for l in verdict["losses"])  # finite

    def test_pure_dp_validates_its_replica_fanout(self):
        verdict = validate_candidate(_evaluated("dp", 1, 8), _spec())
        assert verdict["gate"] == "smoke"
        assert verdict["world"] == 2  # dp fan-out clamped by cap
        assert verdict["passed"] is True


class TestEndToEnd:
    def test_search_then_validate_top_pick(self):
        spec = _spec()
        result = search(spec)
        assert result.feasible
        verdict = validate_candidate(result.feasible[0], spec)
        assert verdict["ran"] and verdict["passed"]
        assert verdict["planned"] == result.feasible[0].candidate.as_dict()
