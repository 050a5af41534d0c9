"""OOM-boundary exactness of the planner's memory pruning.

The planner's pruning predicate (:func:`repro.sim.fits_memory` and the
``peak > budget`` rejection in ``repro.plan.search``) must be *exact* at
the budget edge: a budget equal to the analytic peak survives, one byte
under is rejected, one byte over survives — and pruning never discards
a config the model says fits.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import fits_memory, peak_memory
from repro.sim.costmodel import ExecConfig, WorkloadDims
from repro.sim.hardware import nvlink_cluster, pcie_ethernet_cluster
from repro.core.api import strategy_names

STRATEGIES = strategy_names(simulated=True)


def _dims(h, s, g, n_mb):
    return WorkloadDims(hidden=h, n_layers=8, seq_len=s, microbatch=g,
                        n_microbatches=n_mb, n_heads=4, vocab=1024)


dims_st = st.builds(
    _dims,
    st.sampled_from([256, 512, 1024]),
    st.sampled_from([512, 1024, 4096]),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([8, 16, 32]),
)
strategy_st = st.sampled_from(STRATEGIES)
cluster_st = st.sampled_from(
    [nvlink_cluster(8, gpus_per_node=4), pcie_ethernet_cluster(8, gpus_per_node=4)]
)


class TestBudgetEdgeExactness:
    """peak == budget survives; one byte over the peak's budget rejects."""

    @given(strategy_st, dims_st, cluster_st)
    @settings(max_examples=60, deadline=None)
    def test_exact_peak_is_a_fit(self, strategy, dims, cluster):
        peak = peak_memory(strategy, dims, cluster)
        assert fits_memory(strategy, dims, cluster, budget_bytes=peak)

    @given(strategy_st, dims_st, cluster_st)
    @settings(max_examples=60, deadline=None)
    def test_one_byte_under_rejects(self, strategy, dims, cluster):
        peak = peak_memory(strategy, dims, cluster)
        assert not fits_memory(strategy, dims, cluster, budget_bytes=peak - 1)

    @given(strategy_st, dims_st, cluster_st)
    @settings(max_examples=60, deadline=None)
    def test_one_byte_over_survives(self, strategy, dims, cluster):
        peak = peak_memory(strategy, dims, cluster)
        assert fits_memory(strategy, dims, cluster, budget_bytes=peak + 1)

    @given(strategy_st, dims_st, cluster_st, st.floats(0.25, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_verdict_matches_model(self, strategy, dims, cluster, scale):
        """fits_memory agrees with the model at any budget: it never
        discards a config the model says fits, and never admits one the
        model says does not."""
        peak = peak_memory(strategy, dims, cluster)
        budget = peak * scale
        assert fits_memory(strategy, dims, cluster, budget_bytes=budget) == (
            peak <= budget
        )

    def test_default_budget_is_gpu_hbm(self):
        cluster = nvlink_cluster(8, gpus_per_node=4)
        dims = _dims(256, 512, 1, 8)
        assert fits_memory("1f1b", dims, cluster) == (
            peak_memory("1f1b", dims, cluster) <= cluster.gpu.memory
        )


class TestSearchPruningMatchesModel:
    """The search-level rejection is the same predicate: every feasible
    candidate's peak is <= budget, every memory reject's is > budget,
    and nothing the model admits is discarded."""

    def _result(self, budget_bytes):
        from repro.plan import PlanSpec, search
        from repro.plan.spec import ClusterSpec, ModelSpec, SearchSpace

        spec = PlanSpec(
            model=ModelSpec(hidden=512, n_layers=8, seq_len=2048, n_heads=4,
                            vocab=1024, global_batch_sequences=64),
            cluster=ClusterSpec(preset="single-node", world=4,
                                memory_budget_bytes=budget_bytes),
            space=SearchSpace(microbatch_sizes=(1, 2)),
        )
        return search(spec)

    @pytest.mark.parametrize("budget_gib", [0.25, 1.0, 4.0, 64.0])
    def test_partition_is_exact(self, budget_gib):
        budget = budget_gib * 2**30
        result = self._result(budget)
        assert result.budget_bytes == budget
        for ev in result.feasible:
            assert ev.fits and ev.peak_memory_bytes <= budget
        for ev in result.memory_rejected:
            assert not ev.fits and ev.peak_memory_bytes > budget

    def test_budget_at_exact_peak_keeps_the_config(self):
        """Pin the budget to one candidate's exact analytic peak: that
        candidate must survive, not fall to a strict comparison."""
        wide_open = self._result(2.0**40)
        assert wide_open.feasible
        probe = min(wide_open.feasible, key=lambda e: e.peak_memory_bytes)
        result = self._result(probe.peak_memory_bytes)
        kept = [
            e.candidate for e in result.feasible
        ]
        assert probe.candidate in kept
        result_under = self._result(probe.peak_memory_bytes - 1)
        assert probe.candidate not in [e.candidate for e in result_under.feasible]

    def test_raising_budget_never_loses_a_config(self):
        small = self._result(1.0 * 2**30)
        large = self._result(4.0 * 2**30)
        kept_small = {repr(e.candidate.as_dict()) for e in small.feasible}
        kept_large = {repr(e.candidate.as_dict()) for e in large.feasible}
        assert kept_small <= kept_large
