"""Hierarchical-ring analytics: turn time and cross-boundary volume.

The closed forms must (a) reduce *exactly* to the flat-ring formulas in
every degenerate direction — single node, or first-revolution
(``steady=False``) pricing — and (b) reproduce the engine's measured
crossing counts: ``P`` full weight crossings per flow per boundary per
iteration, references everywhere after, ``D`` on every hop.
"""

import pytest

from repro.runtime import WREF_NBYTES
from repro.sim import (
    CostModel,
    ExecConfig,
    WorkloadDims,
    nvlink_cluster,
    pcie_ethernet_cluster,
    weipipe_cross_bytes,
    weipipe_hier_cross_bytes,
    weipipe_hier_turn_time,
    weipipe_turn_time,
)

DIMS = WorkloadDims(
    hidden=1024, n_layers=32, seq_len=4096, microbatch=4,
    n_microbatches=64, n_heads=16, vocab=50_000,
)


def _cost(cluster):
    return CostModel(DIMS, cluster.gpu, ExecConfig())


class TestHierTurnTime:
    def test_single_node_reduces_to_flat(self):
        cluster = nvlink_cluster(8, gpus_per_node=8)
        assert weipipe_hier_turn_time(DIMS, cluster) == pytest.approx(
            weipipe_turn_time(DIMS, cluster)
        )

    def test_first_revolution_prices_like_flat(self):
        cluster = pcie_ethernet_cluster(16, gpus_per_node=4)
        assert weipipe_hier_turn_time(
            DIMS, cluster, steady=False
        ) == pytest.approx(weipipe_turn_time(DIMS, cluster))

    def test_steady_state_beats_flat_on_asymmetric_fabric(self):
        cluster = pcie_ethernet_cluster(16, gpus_per_node=4)
        hier = weipipe_hier_turn_time(DIMS, cluster)
        flat = weipipe_turn_time(DIMS, cluster)
        assert hier < flat

    def test_steady_state_wire_leg_is_boundary_complement(self):
        """On a wire-bound asymmetric cluster the steady turn is paced
        by the boundary link carrying only ``1 D + 2 ref``."""
        cluster = pcie_ethernet_cluster(16, gpus_per_node=4)
        cost = _cost(cluster)
        lps = DIMS.n_layers // cluster.world_size
        compute = lps * (cost.t_fwd_layer() + cost.t_bwd_layer())
        expected_wire = max(
            cluster.intra.time(cost.weipipe_turn_bytes(lps)),
            cluster.inter.time(
                cost.hier_boundary_turn_bytes(lps)
            ),
        )
        assert weipipe_hier_turn_time(DIMS, cluster) == pytest.approx(
            cost.overlapped(compute, expected_wire)
        )


class TestCrossBytes:
    TURNS = (DIMS.n_microbatches // 16 + 2) * 16  # interleave, P=16

    def test_flat_volume_is_full_complement_every_hop(self):
        cluster = pcie_ethernet_cluster(16, gpus_per_node=4)
        cost = _cost(cluster)
        lps = DIMS.n_layers // 16
        expected = (self.TURNS + 1) * cost.weipipe_turn_bytes(lps)
        assert weipipe_cross_bytes(DIMS, cluster, self.TURNS) == expected

    def test_hier_volume_formula(self):
        cluster = pcie_ethernet_cluster(16, gpus_per_node=4)
        cost = _cost(cluster)
        lps = DIMS.n_layers // 16
        hops = self.TURNS + 1
        expected = (
            2 * 16 * cost.weight_chunk_bytes(lps)  # P fulls per flow
            + 2 * (hops - 16) * WREF_NBYTES  # refs afterwards
            + hops * cost.wgrad_chunk_bytes(lps)  # D crosses every hop
        )
        assert weipipe_hier_cross_bytes(DIMS, cluster, self.TURNS) == expected

    def test_hier_strictly_fewer_cross_bytes(self):
        cluster = pcie_ethernet_cluster(16, gpus_per_node=4)
        hier = weipipe_hier_cross_bytes(DIMS, cluster, self.TURNS)
        flat = weipipe_cross_bytes(DIMS, cluster, self.TURNS)
        assert hier < flat
        # for T >> P the saving approaches the 3x chunk reduction.
        assert flat / hier > 2.0

    def test_boundary_turn_bytes_complement(self):
        cluster = pcie_ethernet_cluster(16, gpus_per_node=4)
        cost = _cost(cluster)
        lps = DIMS.n_layers // 16
        assert cost.weipipe_turn_bytes(lps) == (
            2 * cost.weight_chunk_bytes(lps) + cost.wgrad_chunk_bytes(lps)
        )
        assert cost.hier_boundary_turn_bytes(lps) == (
            cost.wgrad_chunk_bytes(lps) + 2 * WREF_NBYTES
        )
        assert (cost.hier_boundary_turn_bytes(lps)
                < cost.weipipe_turn_bytes(lps))
