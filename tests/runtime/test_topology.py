"""Topology unit and property tests.

The topology is load-bearing in three places — the chaos wire's
serialization delays, the fabric's per-link-class traffic ledger, and
the hierarchical ring's boundary/gateway structure — so its validation
must reject every malformed description loudly (DESIGN.md §12) and its
query surface must be exact.
"""

import threading

import pytest

from repro.runtime import (
    DEFAULT_INTER,
    DEFAULT_INTRA,
    ChaosPolicy,
    Fabric,
    LinkSpec,
    Topology,
    TopologyError,
    WREF_NBYTES,
    parse_group_shape,
    run_workers,
)
from repro.runtime.message import Message


FAST = LinkSpec("fast", bandwidth=1e9, latency=1e-6)
SLOW = LinkSpec("slow", bandwidth=1e7, latency=1e-4)


class TestParseGroupShape:
    def test_basic(self):
        assert parse_group_shape("2x2") == (2, 2)
        assert parse_group_shape("1x8") == (1, 8)
        assert parse_group_shape("8x1") == (8, 1)

    def test_whitespace_tolerated(self):
        assert parse_group_shape("  4x2 ") == (4, 2)

    @pytest.mark.parametrize(
        "bad", ["", "2x", "x2", "2*2", "axb", "2x2x2", "2 x 2", "-1x2"]
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(TopologyError, match="not of the form"):
            parse_group_shape(bad)

    @pytest.mark.parametrize("bad", ["0x4", "4x0", "0x0"])
    def test_zero_factors_rejected(self, bad):
        with pytest.raises(TopologyError, match="positive"):
            parse_group_shape(bad)


class TestLinkSpec:
    def test_time_is_latency_plus_serialization(self):
        link = LinkSpec("l", bandwidth=1e6, latency=0.5)
        assert link.time(0) == 0.5
        assert link.time(1e6) == pytest.approx(1.5)

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(TopologyError, match="bandwidth must be > 0"):
            LinkSpec("l", bandwidth=0.0)
        with pytest.raises(TopologyError, match="bandwidth must be > 0"):
            LinkSpec("l", bandwidth=-1.0)

    def test_negative_latency_rejected(self):
        with pytest.raises(TopologyError, match="latency must be >= 0"):
            LinkSpec("l", bandwidth=1.0, latency=-1e-9)

    def test_as_dict_round_trips_fields(self):
        d = FAST.as_dict()
        assert d == {"name": "fast", "bandwidth": 1e9, "latency": 1e-6}


class TestGroupValidation:
    def test_duplicate_rank_rejected(self):
        with pytest.raises(TopologyError, match="more than one group"):
            Topology(4, [[0, 1], [1, 2]])

    def test_missing_rank_rejected(self):
        with pytest.raises(TopologyError, match="missing ranks \\[3\\]"):
            Topology(4, [[0, 1], [2]])

    def test_unknown_rank_rejected(self):
        with pytest.raises(TopologyError, match="unknown ranks \\[4\\]"):
            Topology(4, [[0, 1], [2, 3, 4]])

    def test_unequal_groups_rejected(self):
        with pytest.raises(TopologyError, match="equal-sized"):
            Topology(6, [[0, 1], [2, 3, 4, 5]])

    def test_non_contiguous_group_rejected(self):
        with pytest.raises(TopologyError, match="contiguous"):
            Topology(4, [[0, 2], [1, 3]])

    def test_singleton_groups_rejected_by_default(self):
        with pytest.raises(TopologyError, match="allow_singleton"):
            Topology(2, [[0], [1]])

    def test_singleton_groups_allowed_explicitly(self):
        topo = Topology(2, [[0], [1]], allow_singleton=True)
        assert topo.n_groups == 2
        assert all(topo.is_gateway(r) for r in range(2))

    def test_single_group_of_one_is_fine(self):
        # a 1-rank world has no peers at all; nothing degenerates.
        topo = Topology(1, [[0]])
        assert topo.n_groups == 1

    def test_empty_groups_rejected(self):
        with pytest.raises(TopologyError, match="at least one group"):
            Topology(4, [])

    def test_bad_world_size_rejected(self):
        with pytest.raises(TopologyError, match="world_size"):
            Topology(0, [[0]])

    def test_grid_shape_must_cover_world(self):
        with pytest.raises(TopologyError, match="covers 4 ranks"):
            Topology.grid(8, "2x2")

    def test_grid_layout(self):
        topo = Topology.grid(6, "2x3")
        assert topo.groups == ((0, 1, 2), (3, 4, 5))

    def test_flat_has_no_boundaries(self):
        topo = Topology.flat(4)
        assert topo.n_groups == 1
        assert topo.ring_boundaries() == ()
        assert topo.link(0, 3) is topo.intra


class TestLinkOverrides:
    def test_missing_reverse_rejected(self):
        with pytest.raises(TopologyError, match="missing its reverse"):
            Topology(4, [[0, 1], [2, 3]], links={(1, 2): SLOW})

    def test_asymmetric_pair_rejected(self):
        with pytest.raises(TopologyError, match="asymmetric link override"):
            Topology(4, [[0, 1], [2, 3]],
                     links={(1, 2): SLOW, (2, 1): FAST})

    def test_out_of_range_rejected(self):
        with pytest.raises(TopologyError, match="outside"):
            Topology(4, [[0, 1], [2, 3]], links={(1, 7): SLOW, (7, 1): SLOW})

    def test_self_link_rejected(self):
        with pytest.raises(TopologyError, match="self-link"):
            Topology(4, [[0, 1], [2, 3]], links={(1, 1): SLOW})

    def test_symmetric_override_applies(self):
        topo = Topology(4, [[0, 1], [2, 3]],
                        links={(1, 2): SLOW, (2, 1): SLOW})
        assert topo.link(1, 2) is SLOW
        assert topo.link(2, 1) is SLOW
        # untouched pairs keep their class default
        assert topo.link(0, 1) is topo.intra
        assert topo.link(3, 0) is topo.inter


class TestQueries:
    def setup_method(self):
        self.topo = Topology.grid(4, "2x2", intra=FAST, inter=SLOW)

    def test_link_class(self):
        assert self.topo.link_class(0, 1) == "intra"
        assert self.topo.link_class(2, 3) == "intra"
        assert self.topo.link_class(1, 2) == "inter"
        assert self.topo.link_class(3, 0) == "inter"
        assert self.topo.link_class(2, 2) == "local"

    def test_group_of_out_of_range(self):
        with pytest.raises(TopologyError, match="out of range"):
            self.topo.group_of(9)

    def test_gateways_are_lowest_ranks(self):
        assert self.topo.gateways() == (0, 2)
        assert self.topo.is_gateway(0) and self.topo.is_gateway(2)
        assert not self.topo.is_gateway(1) and not self.topo.is_gateway(3)

    def test_ring_boundaries(self):
        assert self.topo.ring_boundaries() == ((1, 2), (3, 0))
        everyhop = Topology.grid(4, "4x1", allow_singleton=True)
        assert everyhop.ring_boundaries() == ((0, 1), (1, 2), (2, 3), (3, 0))

    def test_wire_time_monotone_in_bytes(self):
        assert self.topo.wire_time(0, 1, 1000) < self.topo.wire_time(0, 1, 10_000)
        assert self.topo.wire_time(0, 0, 10_000) == 0.0

    def test_inter_slower_than_intra_for_same_payload(self):
        assert self.topo.wire_time(1, 2, 4096) > self.topo.wire_time(0, 1, 4096)

    def test_as_dict_is_json_shape(self):
        d = self.topo.as_dict()
        assert d["world_size"] == 4
        assert d["groups"] == [[0, 1], [2, 3]]
        assert d["intra"]["name"] == "fast"
        assert d["inter"]["name"] == "slow"
        assert d["overrides"] == []

    def test_repr_names_shape(self):
        assert "2x2" in repr(self.topo)

    def test_wref_nbytes_is_marker_sized(self):
        # the reference token must stay tiny relative to any real chunk.
        assert 0 < WREF_NBYTES < 256


class TestChaosLinkDelay:
    """Seeded chaos delays must respect per-link ordering (satellite 2)."""

    def _fabric(self, topo):
        return Fabric(topo.world_size, policy=ChaosPolicy.quiet(),
                      topology=topo)

    def test_link_delay_zero_without_topology(self):
        fab = Fabric(2, policy=ChaosPolicy.quiet())
        assert fab.link_delay(0, 1, 1 << 20) == 0.0

    def test_link_delay_orders_by_link_class(self):
        topo = Topology.grid(4, "2x2", intra=FAST, inter=SLOW)
        fab = self._fabric(topo)
        n = 100_000
        assert fab.link_delay(1, 2, n) > fab.link_delay(0, 1, n)
        assert fab.link_delay(3, 0, n) > fab.link_delay(2, 3, n)
        assert fab.link_delay(0, 0, n) == 0.0

    def test_link_delay_matches_topology_wire_time(self):
        topo = Topology.grid(4, "2x2", intra=FAST, inter=SLOW)
        fab = self._fabric(topo)
        for src, dst in ((0, 1), (1, 2), (2, 0), (3, 3)):
            assert fab.link_delay(src, dst, 777) == topo.wire_time(src, dst, 777)

    def test_chaos_decisions_ignore_payload_size(self):
        # flat and hier rings differ only in nbytes on boundary hops; the
        # seeded adversary must treat both runs identically.
        pol = ChaosPolicy(seed=3)
        a = pol.decide(0, 1, ("F", 0, 1), 0)
        b = pol.decide(0, 1, ("F", 0, 1), 0)
        assert a == b  # pure in message identity; nbytes is not an input

    def _slow_link_exchange(self):
        """One 10 kB message over a 20 ms + 1 MB/s link: returns the
        fabric, the received payload and the receiver's blocked time."""
        topo = Topology.grid(2, "2x1", intra=FAST,
                             inter=LinkSpec("s", bandwidth=1e6, latency=0.02),
                             allow_singleton=True)
        fab = Fabric(2, policy=ChaosPolicy.quiet(), topology=topo,
                     timeout=10.0)

        def worker(comm):
            if comm.rank == 0:
                comm.send(b"x" * 10_000, 1, ("t",))
                return None
            import time
            t0 = time.perf_counter()
            got = comm.recv(0, ("t",))
            return got, time.perf_counter() - t0

        got, waited = run_workers(2, worker, fabric=fab)[1]
        return fab, got, waited

    def test_slow_link_delivers_with_the_priced_delay(self):
        fab, got, _ = self._slow_link_exchange()
        assert got == b"x" * 10_000
        # latency 20 ms + 10 ms serialization is what the wire charges
        assert fab.link_delay(0, 1, 10_000) == pytest.approx(0.03)

    @pytest.mark.timing
    def test_messages_arrive_later_over_slow_links(self):
        _, _, waited = self._slow_link_exchange()
        # ... and must be visible in wall time
        assert waited >= 0.02


class TestFabricLinkCounters:
    def test_topology_world_size_must_match(self):
        topo = Topology.grid(4, "2x2")
        with pytest.raises(ValueError, match="world_size"):
            Fabric(2, topology=topo)

    def test_link_traffic_empty_without_topology(self):
        assert Fabric(2).link_traffic() == {}

    def test_link_traffic_classifies_bytes_and_messages(self):
        topo = Topology.grid(4, "2x2")
        fab = Fabric(4, topology=topo)
        fab.post(Message(src=0, dst=1, tag=("a",), payload=b"", nbytes=100))
        fab.post(Message(src=1, dst=2, tag=("b",), payload=b"", nbytes=7))
        fab.post(Message(src=3, dst=0, tag=("c",), payload=b"", nbytes=5))
        lt = fab.link_traffic()
        assert lt["intra"] == {"bytes": 100, "messages": 1}
        assert lt["inter"] == {"bytes": 12, "messages": 2}

    def test_link_counters_surface_in_metrics(self):
        topo = Topology.grid(4, "2x2")
        fab = Fabric(4, topology=topo)
        fab.post(Message(src=1, dst=2, tag=("x",), payload=b"", nbytes=64))
        dump = fab.metrics.as_dict()
        counters = {
            (m["name"], tuple(sorted(m["labels"].items()))): m["value"]
            for m in dump["metrics"]
        }
        assert counters[("fabric_link_bytes_total", (("link", "inter"),))] == 64
        assert counters[
            ("fabric_link_messages_total", (("link", "inter"),))
        ] == 1

    def test_link_traffic_is_thread_safe_snapshot(self):
        topo = Topology.grid(2, "1x2")
        fab = Fabric(2, topology=topo)

        def pump():
            for i in range(200):
                fab.post(Message(src=0, dst=1, tag=("t", i), payload=b"",
                                 nbytes=10))

        t = threading.Thread(target=pump)
        t.start()
        while t.is_alive():
            snap = fab.link_traffic()
            for cls in snap:
                assert snap[cls]["bytes"] == 10 * snap[cls]["messages"]
        t.join()
        assert fab.link_traffic()["intra"] == {"bytes": 2000, "messages": 200}
