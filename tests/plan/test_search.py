"""Config-space enumeration: shape rules, pruning ledger, ranking."""

from dataclasses import replace

from repro.plan import PlanSpec, enumerate_candidates, search
from repro.plan.search import _sub_cluster
from repro.plan.spec import ClusterSpec, ModelSpec, SearchSpace
from repro.sim.runner import build_schedule, exec_for, run_cell
from repro.sim.schedules import ring_collective_time


def _spec(**over):
    kw = dict(
        model=ModelSpec(hidden=512, n_layers=8, seq_len=2048, n_heads=4,
                        vocab=1024, global_batch_sequences=64),
        cluster=ClusterSpec(preset="pcie-eth", world=8, gpus_per_node=4),
        space=SearchSpace(microbatch_sizes=(1, 2)),
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

    def test_hier_spans_nodes_and_takes_the_world(self):
        cands, _ = enumerate_candidates(_spec())
        hier = [c for c in cands if c.strategy == "weipipe-hier"]
        assert hier, "expected hierarchical candidates"
        for c in hier:
            assert c.dp == 1
            # gpus_per_node=4, so a >1-node inner ring means degree 8
            assert c.degree == 8

    def test_single_node_cluster_has_no_hier(self):
        spec = _spec(cluster=ClusterSpec(preset="single-node", world=8))
        cands, _ = enumerate_candidates(spec)
        assert not [c for c in cands if c.strategy == "weipipe-hier"]

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

    def test_tp_needs_heads_divisible(self):
        # hidden 512 divides by 8; the 4 heads do not, and it is heads
        # the simulator and the runtime both refuse on
        cands, rejected = enumerate_candidates(_spec())
        tp = {c.degree for c in cands if c.strategy == "tp"}
        assert tp == {2, 4}
        assert rejected > 0

    def test_every_candidate_is_built_by_its_simulator(self):
        """The shape rules are the builders': nothing enumerated raises
        (heads < world, layers and microbatches that do not tile)."""
        for model in (
            _spec().model,
            ModelSpec(hidden=96, n_layers=6, seq_len=72, n_heads=2,
                      vocab=64, global_batch_sequences=64),
        ):
            spec = _spec(model=model)
            cluster = spec.cluster.build()
            cands, _ = enumerate_candidates(spec)
            assert {c.strategy for c in cands} >= {"tp", "sp", "fsdp", "dp"}
            for c in cands:
                build_schedule(
                    c.strategy, model.dims(c.microbatch, c.n_microbatches),
                    _sub_cluster(cluster, c.degree), c.exec_cfg(),
                )

    def test_ring_needs_microbatches_divisible(self):
        cands, _ = enumerate_candidates(_spec())
        for c in cands:
            if c.strategy.startswith("weipipe"):
                assert c.n_microbatches % c.degree == 0

    def test_exec_config_is_the_tables_rule(self):
        cands, _ = enumerate_candidates(_spec())
        for c in cands:
            assert c.exec_cfg() == exec_for(c.strategy)
            assert c.as_dict()["recompute"] == exec_for(c.strategy).recompute

    def test_explicit_degrees_filtered_to_divisors(self):
        spec = _spec(space=SearchSpace(degrees=(2, 3, 8),
                                       microbatch_sizes=(1,)))
        cands, _ = enumerate_candidates(spec)
        assert {c.degree for c in cands} <= {2, 8}

    def test_no_two_candidates_are_one_configuration(self):
        cands, _ = enumerate_candidates(_spec())
        assert len(set(cands)) == len(cands)


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


def _config(ev):
    c = ev.candidate
    return (c.strategy, c.degree, c.dp, c.microbatch, c.precision)


class TestReferenceSpec:
    """The CI acceptance assertions, pinned here too: the reference
    cluster spec ranks 8 distinct feasible configurations within the
    GPU's memory, rejects at least one on memory, and puts the
    hierarchical weight ring on top.  (7 until the DES took the runtime's
    ffn width: ``sp`` at degree 16 then fits, 4.3 MB under the budget.)"""

    def test_reference_plan_shape(self):
        from repro.plan import load_spec

        spec = load_spec("examples/specs/reference_cluster.json")
        result = search(spec)
        assert len({_config(ev) for ev in result.feasible}) == 8
        assert len(result.feasible) == 8
        assert len(result.memory_rejected) >= 1
        assert result.wall_s > 0
        top = result.feasible[0].candidate
        # the paper's claim at long context on a slow wire: the
        # hierarchical weight ring wins
        assert (top.strategy, top.degree) == ("weipipe-hier", 16)

    def test_order_is_the_simulators(self):
        """The ranking is the DES makespan of each inner group (plus the
        replicas' all-reduce, priced as the DES prices its own), sorted."""
        from repro.plan import load_spec

        spec = load_spec("examples/specs/reference_cluster.json")
        cluster = spec.cluster.build()
        result = search(spec)

        def des_tokens_per_s_per_gpu(ev):
            c = ev.candidate
            dims = spec.model.dims(c.microbatch, c.n_microbatches)
            cfg = exec_for(c.strategy, c.precision)
            it_s = run_cell(
                c.strategy, dims, _sub_cluster(cluster, c.degree), cfg
            ).makespan
            if c.dp == 1:
                assert ev.iteration_s == it_s
            else:  # one rank per replica, over the inter-node fabric
                it_s += 2 * ring_collective_time(
                    replace(cluster, nodes=c.dp, gpus_per_node=1),
                    dims.model_params * cfg.wgrad_bytes,
                )
            return c.dp * dims.tokens_per_iteration / it_s / c.world

        des = [des_tokens_per_s_per_gpu(ev) for ev in result.feasible]
        assert des == [ev.tokens_per_s_per_gpu for ev in result.feasible]
        assert des == sorted(des, reverse=True)
        assert {ev.candidate.dp for ev in result.feasible} == {1, 2}
