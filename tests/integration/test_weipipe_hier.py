"""Differential + traffic gates for the hierarchical (two-level) ring.

The contract (ISSUE 6): ``train_weipipe`` given a ``topology`` is
bit-exact with the flat ring and with serial under every wire — the hierarchy changes what
crosses slow links, never what is computed — while crossing *strictly*
fewer bytes between groups and exactly the same bytes within them.
Degenerate group shapes must reduce exactly: ``1xP`` is the flat ring
verbatim (byte-identical wire), ``Px1`` makes every hop a boundary and
every rank a gateway.
"""

import numpy as np
import pytest

from repro.core import strategy_names, train
from repro.core.weipipe import train_weipipe
from repro.nn import FP32, FP64
from repro.runtime import ChaosPolicy, Fabric, Topology, default_groups
from repro.testing import (
    compare_train_results,
    default_differential_spec,
    run_differential,
)

WORLD = 4

SHAPES = {
    "2x2": Topology.grid(WORLD, "2x2"),
    "1x4": Topology.grid(WORLD, "1x4"),
    "4x1": Topology.grid(WORLD, "4x1", allow_singleton=True),
}


def _assert_identical(result, reference):
    diff = compare_train_results(result, reference, tol=0)
    assert diff is None, diff


def _hier_runner(topo):
    return lambda spec, world, fabric: train_weipipe(
        spec, world, topology=topo, fabric=fabric
    )


class TestBitExactVsFlat:
    @pytest.mark.parametrize("shape", sorted(SHAPES), ids=sorted(SHAPES))
    @pytest.mark.parametrize("precision", [FP32, FP64], ids=["fp32", "fp64"])
    def test_plain_wire(self, shape, precision):
        spec = default_differential_spec(precision=precision)
        flat = train_weipipe(spec, WORLD, fabric=Fabric(WORLD))
        hier = train_weipipe(
            spec, WORLD, topology=SHAPES[shape], fabric=Fabric(WORLD)
        )
        _assert_identical(hier, flat)

    @pytest.mark.parametrize("shape", sorted(SHAPES), ids=sorted(SHAPES))
    @pytest.mark.parametrize("seed", range(3))
    def test_chaos_wire(self, shape, seed):
        spec = default_differential_spec()
        policy = ChaosPolicy(seed=seed)
        topo = SHAPES[shape]
        flat = train_weipipe(
            spec, WORLD,
            fabric=Fabric(WORLD, policy=policy, timeout=60.0),
        )
        hier = train_weipipe(
            spec, WORLD, topology=topo,
            fabric=Fabric(WORLD, policy=policy, topology=topo,
                          timeout=60.0),
        )
        _assert_identical(hier, flat)

    @pytest.mark.parametrize("mode", ["naive", "interleave", "zero-bubble"])
    def test_all_modes(self, mode):
        spec = default_differential_spec()
        flat = train_weipipe(spec, WORLD, mode=mode)
        hier = train_weipipe(spec, WORLD, topology=SHAPES["2x2"], mode=mode)
        _assert_identical(hier, flat)

    def test_sync_engine(self):
        spec = default_differential_spec()
        flat = train_weipipe(spec, WORLD, overlap=False)
        hier = train_weipipe(spec, WORLD, topology=SHAPES["2x2"], overlap=False)
        _assert_identical(hier, flat)


class TestDifferentialSweep:
    """vs serial through the harness: every shape, every chaos seed."""

    @pytest.mark.parametrize("precision", [FP32, FP64], ids=["fp32", "fp64"])
    def test_plain_wire_sweep(self, precision):
        spec = default_differential_spec(precision=precision)
        # vs-serial tolerances are precision-bound: fp32 ring accumulation
        # legitimately rounds ~1e-10 away from serial (the flat ring does
        # too); hier-vs-flat stays exactly bit-equal (TestBitExactVsFlat).
        tol = {} if precision is FP64 else dict(tol=(1e-5, 1e-7, 1e-4, 1e-7))
        report = run_differential(
            strategies={
                f"weipipe-hier-{shape}": (WORLD, _hier_runner(topo))
                for shape, topo in SHAPES.items()
            },
            chaos_seeds=[0],
            spec=spec,
            policy=ChaosPolicy.quiet(),
            **tol,
        )
        report.raise_if_failed()
        assert report.runs == len(SHAPES)

    @pytest.mark.parametrize("shape", sorted(SHAPES), ids=sorted(SHAPES))
    def test_chaos_wire_sweep(self, shape):
        topo = SHAPES[shape]
        report = run_differential(
            strategies={f"weipipe-hier-{shape}": (WORLD, _hier_runner(topo))},
            chaos_seeds=range(4),
            fabric_factory=lambda world, pol: Fabric(
                world, policy=pol, topology=topo, timeout=60.0
            ),
        )
        report.raise_if_failed()
        assert report.runs == 4


class TestDegenerateShapes:
    def test_one_group_is_byte_identical_to_flat(self):
        """1xP has no boundaries: the exact message stream of the flat
        ring, not merely the same results."""
        spec = default_differential_spec()
        f_flat, f_hier = Fabric(WORLD), Fabric(WORLD)
        train_weipipe(spec, WORLD, fabric=f_flat)
        train_weipipe(spec, WORLD, topology=SHAPES["1x4"], fabric=f_hier)
        assert f_hier.stats.messages == f_flat.stats.messages
        assert f_hier.stats.bytes_total == f_flat.stats.bytes_total
        assert f_hier.stats.by_kind == f_flat.stats.by_kind

    def test_one_group_sends_no_references(self):
        result = train_weipipe(
            default_differential_spec(), WORLD, topology=SHAPES["1x4"]
        )
        assert result.extra["inter_full_sends"] == 0
        assert result.extra["inter_ref_sends"] == 0
        assert result.extra["gateways"] == [0]

    def test_all_singletons_every_rank_is_gateway(self):
        result = train_weipipe(
            default_differential_spec(), WORLD, topology=SHAPES["4x1"]
        )
        assert result.extra["gateways"] == [0, 1, 2, 3]
        assert result.extra["inter_full_sends"] > 0


class TestTrafficAccounting:
    """Satellite 3: per-link-class byte counters prove the claim."""

    def _traffic(self, runner):
        topo = SHAPES["2x2"]
        fabric = Fabric(WORLD, topology=topo)
        runner(default_differential_spec(), fabric, topo)
        return fabric.link_traffic()

    def test_cross_group_bytes_strictly_fewer(self):
        flat = self._traffic(
            lambda spec, fab, topo: train_weipipe(spec, WORLD, fabric=fab)
        )
        hier = self._traffic(
            lambda spec, fab, topo: train_weipipe(
                spec, WORLD, topology=topo, fabric=fab
            )
        )
        assert hier["inter"]["bytes"] < flat["inter"]["bytes"]
        # same ring, same schedule: message *counts* are identical; only
        # the payloads shrank.
        assert hier["inter"]["messages"] == flat["inter"]["messages"]

    def test_intra_group_bytes_conserved_exactly(self):
        flat = self._traffic(
            lambda spec, fab, topo: train_weipipe(spec, WORLD, fabric=fab)
        )
        hier = self._traffic(
            lambda spec, fab, topo: train_weipipe(
                spec, WORLD, topology=topo, fabric=fab
            )
        )
        assert hier["intra"] == flat["intra"]

    def test_crossing_counts_match_schedule(self):
        """Each slot crosses each boundary in full exactly once per flow
        per iteration; every other weight crossing is a reference."""
        spec = default_differential_spec()
        result = train_weipipe(spec, WORLD, topology=SHAPES["2x2"])
        boundaries = len(SHAPES["2x2"].ring_boundaries())
        rounds = spec.n_microbatches // WORLD
        turns = (rounds + 2) * WORLD  # interleave schedule length
        full = result.extra["inter_full_sends"]
        refs = result.extra["inter_ref_sends"]
        assert full == spec.iters * boundaries * 2 * WORLD
        assert full + refs == spec.iters * boundaries * 2 * turns

    def test_hier_metrics_counters_exported(self):
        topo = SHAPES["2x2"]
        fabric = Fabric(WORLD, topology=topo)
        train_weipipe(
            default_differential_spec(), WORLD, topology=topo, fabric=fabric
        )
        dump = fabric.metrics.as_dict()
        by_name = {}
        for m in dump["metrics"]:
            by_name.setdefault(m["name"], 0)
            by_name[m["name"]] += m.get("value", 0)
        assert by_name["weipipe_hier_full_crossings_total"] > 0
        assert by_name["weipipe_hier_ref_crossings_total"] > 0


class TestStrategyRegistration:
    def test_registered(self):
        assert "weipipe-hier" in strategy_names()

    def test_train_dispatch_matches_serial_losses(self):
        spec = default_differential_spec()
        ref = train(spec, "serial", 1)
        hier = train(spec, "weipipe-hier", WORLD)
        assert hier.losses == ref.losses

    def test_train_dispatch_uses_fabric_topology(self):
        spec = default_differential_spec()
        topo = SHAPES["2x2"]
        fabric = Fabric(WORLD, topology=topo)
        result = train(spec, "weipipe-hier", WORLD, fabric=fabric)
        assert result.extra["groups"] == [[0, 1], [2, 3]]
        assert fabric.link_traffic()["inter"]["bytes"] > 0

    def test_default_groups(self):
        assert default_groups(4) == "2x2"
        assert default_groups(8) == "2x4"
        assert default_groups(2) == "1x2"
        assert default_groups(3) == "1x3"


class TestValidation:
    def test_topology_world_mismatch(self):
        with pytest.raises(ValueError, match="world_size"):
            train_weipipe(
                default_differential_spec(), 2, topology=SHAPES["2x2"]
            )

    def test_microbatch_divisibility(self):
        spec = default_differential_spec(n_microbatches=3, microbatch_size=2)
        with pytest.raises(ValueError, match="divisible"):
            train_weipipe(spec, WORLD, topology=SHAPES["2x2"])
