"""Planner spec parsing: defaults, JSON round-trip, loud rejection."""

import json

import pytest

from repro.plan import (
    ClusterSpec,
    ModelSpec,
    PlanSpec,
    PlanSpecError,
    SearchSpace,
    ValidationSpec,
    load_spec,
)


class TestDefaults:
    def test_empty_dict_is_the_default_spec(self):
        assert PlanSpec.from_dict({}) == PlanSpec()

    def test_default_space_covers_the_strategy_zoo(self):
        from repro.core import strategy_names
        from repro.sim import WorkloadDims, nvlink_cluster, peak_memory

        space = SearchSpace()
        assert sorted(space.strategies) == strategy_names(simulated=True)
        dims = WorkloadDims(hidden=64, n_layers=4, seq_len=128, microbatch=1,
                            n_microbatches=4)
        for s in space.strategies:
            assert peak_memory(s, dims, nvlink_cluster(4, gpus_per_node=4)) > 0

    def test_round_trip(self):
        spec = PlanSpec.from_dict({
            "model": {"hidden": 512, "seq_len": 2048},
            "cluster": {"preset": "pcie-eth", "world": 8},
            "space": {"microbatch_sizes": [1, 2], "precisions": ["fp32"]},
            "validation": {"world_cap": 2},
        })
        again = PlanSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec

    def test_json_lists_become_tuples(self):
        spec = PlanSpec.from_dict({"space": {"microbatch_sizes": [1, 2]}})
        assert spec.space.microbatch_sizes == (1, 2)


class TestRejection:
    def test_unknown_section(self):
        with pytest.raises(PlanSpecError, match="unknown sections"):
            PlanSpec.from_dict({"modle": {}})

    def test_unknown_key(self):
        with pytest.raises(PlanSpecError, match="unknown keys"):
            PlanSpec.from_dict({"model": {"hiden": 4096}})

    def test_bad_precision(self):
        with pytest.raises(PlanSpecError, match="unknown precision"):
            PlanSpec.from_dict({"space": {"precisions": ["fp13"]}})

    def test_bad_preset(self):
        with pytest.raises(PlanSpecError, match="preset"):
            PlanSpec.from_dict({"cluster": {"preset": "quantum"}})

    @pytest.mark.parametrize("axis", ["overlap", "groupings", "backends"])
    def test_deleted_axes_are_unknown_keys(self, axis):
        """A v1 spec fails loudly, naming the key that decides nothing."""
        with pytest.raises(PlanSpecError, match=f"unknown keys.*{axis}"):
            PlanSpec.from_dict({"space": {axis: []}})
        with pytest.raises(TypeError, match=axis):
            SearchSpace(**{axis: ()})

    def test_nonpositive_model_dims(self):
        with pytest.raises(PlanSpecError, match="must be positive"):
            ModelSpec(hidden=0)

    def test_bad_json_file(self, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text("{not json")
        with pytest.raises(PlanSpecError, match="not valid JSON"):
            load_spec(str(p))

    def test_world_not_multiple_of_gpn(self):
        with pytest.raises(PlanSpecError, match="multiple"):
            ClusterSpec(preset="custom", world=6, gpus_per_node=4).build()


class TestClusterBuild:
    @pytest.mark.parametrize("preset,nodes", [
        ("nvlink", 2), ("pcie-eth", 4), ("single-node", 1),
    ])
    def test_presets(self, preset, nodes):
        cluster = ClusterSpec(preset=preset, world=16).build()
        assert cluster.world_size == 16
        assert cluster.nodes == nodes

    def test_custom_links(self):
        spec = ClusterSpec(preset="custom", world=8, gpus_per_node=4,
                           inter_bandwidth=1e8, intra_bandwidth=2e11)
        cluster = spec.build()
        assert cluster.nodes == 2
        assert cluster.inter.bandwidth == 1e8
        assert cluster.intra.bandwidth == 2e11

    def test_budget_defaults_to_hbm(self):
        spec = ClusterSpec(preset="nvlink", world=8)
        assert spec.budget_bytes() == spec.build().gpu.memory

    def test_budget_override(self):
        spec = ClusterSpec(preset="nvlink", world=8,
                           memory_budget_bytes=7 * 2**30)
        assert spec.budget_bytes() == 7 * 2**30

    def test_reference_spec_parses(self):
        spec = load_spec("examples/specs/reference_cluster.json")
        assert spec.cluster.world == 16
        assert spec.model.seq_len == 131072
        assert spec.validation.world_cap == 4


class TestValidationSpec:
    def test_dims_guardrails(self):
        with pytest.raises(PlanSpecError):
            ValidationSpec(world_cap=0)
        with pytest.raises(PlanSpecError):
            ValidationSpec(iters=0)
