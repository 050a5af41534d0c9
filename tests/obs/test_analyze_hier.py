"""Golden-trace + reconciliation tests for topology-aware analysis.

A synthetic hierarchical trace (4 ranks in two groups) pins the
per-link-class arithmetic exactly — traffic split, wire-wait
attribution, and the self-calibrating cross-group reconciliation whose
measured/predicted ratio is 1.0 by construction.  A real traced
``weipipe-hier`` run then holds the documented WALL_TOL / RATIO_TOL /
HIER_TRAFFIC_TOL envelopes end to end.
"""

import pytest

from repro.core.weipipe import train_weipipe
from repro.nn import ModelConfig
from repro.obs import (
    HIER_TRAFFIC_TOL,
    TRACE_SCHEMA,
    WALL_TOL,
    Tracer,
    analyze_trace,
    link_traffic,
    reconcile,
)
from repro.parallel.common import TrainSpec
from repro.runtime import Fabric, Topology

US = 1e6  # seconds -> trace microseconds

GROUPS = [[0, 1], [2, 3]]

W_CHUNK = 1000  # intra-hop weight chunk bytes, by construction
D_CHUNK = 500  # gradient-accumulator chunk bytes
REF = 24  # weight-reference token bytes


def _span(pid, name, cat, start_s, dur_s, args=None):
    ev = {"ph": "X", "name": name, "cat": cat, "pid": pid, "tid": 0,
          "ts": start_s * US, "dur": dur_s * US}
    if args:
        ev["args"] = args
    return ev


def _send(pid, dst, kind, nbytes, it=0, turn=1):
    return {"ph": "i", "name": "send", "cat": "comm", "pid": pid, "tid": 0,
            "ts": 0.0, "s": "t",
            "args": {"dst": dst, "kind": kind, "nbytes": nbytes,
                     "tag": [kind, it, turn]}}


def golden_hier_trace():
    """4 ranks in groups [[0,1],[2,3]]; every number pinned below.

    Ring hops 0->1 and 2->3 are intra (full ``2W+1D``: 1000+1000+500
    bytes), hops 1->2 and 3->0 are inter (steady-state boundary
    complement ``2 ref + 1 D``: 24+24+500).  Wire waits: rank 0 waits
    2 s on its left neighbour 3 (inter, defaulted), rank 1 waits 1 s on
    rank 0 (intra, defaulted), rank 2 waits 1.5 s on an explicit
    ``src=1`` (inter), rank 3 waits 0.5 s on ``src=2`` (intra).
    """
    events = []
    for pid, compute_s in ((0, 6.0), (1, 5.0), (2, 7.0), (3, 4.0)):
        events.append(_span(pid, "iteration", "iteration", 0.0, 10.0))
        events.append(_span(pid, "F", "compute", 0.0, compute_s))
    events += [
        _span(0, "wait:slots", "wire", 6.0, 2.0),  # src defaults to 3
        _span(1, "wait:slots", "wire", 5.0, 1.0),  # src defaults to 0
        _span(2, "wait:D", "wire", 7.0, 1.5, {"src": 1}),
        _span(3, "wait:D", "wire", 4.0, 0.5, {"src": 2}),
    ]
    for src, dst in ((0, 1), (2, 3)):  # intra hops: full complement
        events += [
            _send(src, dst, "F", W_CHUNK),
            _send(src, dst, "B", W_CHUNK),
            _send(src, dst, "D", D_CHUNK),
        ]
    for src, dst in ((1, 2), (3, 0)):  # boundary hops: refs + D
        events += [
            _send(src, dst, "F", REF),
            _send(src, dst, "B", REF),
            _send(src, dst, "D", D_CHUNK),
        ]
    return {
        "traceEvents": events,
        "metadata": {
            "schema": TRACE_SCHEMA,
            "strategy": "weipipe-hier",
            "world": 4,
            "overlap": True,
            "recompute": False,
            "topology": {"groups": GROUPS},
            "dims": {"hidden": 16, "n_layers": 4, "seq_len": 8,
                     "microbatch": 2, "n_microbatches": 4, "n_heads": 2,
                     "vocab": 29},
        },
    }


class TestGoldenLinkTraffic:
    def test_totals_pinned(self):
        lt = link_traffic(golden_hier_trace())
        assert lt["intra"] == {"bytes": 2 * (2 * W_CHUNK + D_CHUNK),
                               "messages": 6}
        assert lt["inter"] == {"bytes": 2 * (2 * REF + D_CHUNK),
                               "messages": 6}

    def test_by_kind_pinned(self):
        bk = link_traffic(golden_hier_trace())["by_kind"]
        assert bk["intra"]["F"] == {"bytes": 2 * W_CHUNK, "messages": 2}
        assert bk["intra"]["D"] == {"bytes": 2 * D_CHUNK, "messages": 2}
        assert bk["inter"]["F"] == {"bytes": 2 * REF, "messages": 2}
        assert bk["inter"]["D"] == {"bytes": 2 * D_CHUNK, "messages": 2}

    def test_none_without_topology_metadata(self):
        doc = golden_hier_trace()
        del doc["metadata"]["topology"]
        assert link_traffic(doc) is None

    def test_bare_groups_metadata_accepted(self):
        doc = golden_hier_trace()
        doc["metadata"] = {"groups": GROUPS, "world": 4}
        lt = link_traffic(doc)
        assert lt["inter"]["messages"] == 6


class TestGoldenWireAttribution:
    def test_per_rank_split_pinned(self):
        ana = analyze_trace(golden_hier_trace())
        pr = ana["per_rank"]
        # rank 0 waited on ring-left 3: a boundary hop.
        assert pr[0]["wire_wait_inter_s"] == pytest.approx(2.0)
        assert pr[0]["wire_wait_intra_s"] == pytest.approx(0.0)
        # rank 1 waited on ring-left 0: same group.
        assert pr[1]["wire_wait_intra_s"] == pytest.approx(1.0)
        assert pr[1]["wire_wait_inter_s"] == pytest.approx(0.0)
        # explicit src args win over the ring-left default.
        assert pr[2]["wire_wait_inter_s"] == pytest.approx(1.5)
        assert pr[3]["wire_wait_intra_s"] == pytest.approx(0.5)

    def test_summary_totals_pinned(self):
        s = analyze_trace(golden_hier_trace())["summary"]
        assert s["wire_wait_intra_s_total"] == pytest.approx(1.5)
        assert s["wire_wait_inter_s_total"] == pytest.approx(3.5)

    def test_flat_trace_has_no_split(self):
        doc = golden_hier_trace()
        del doc["metadata"]["topology"]
        ana = analyze_trace(doc)
        assert "wire_wait_intra_s" not in ana["per_rank"][0]
        assert "wire_wait_intra_s_total" not in ana["summary"]

    def test_link_traffic_rides_along_in_analysis(self):
        ana = analyze_trace(golden_hier_trace())
        assert ana["link_traffic"]["inter"]["messages"] == 6


class TestGoldenHierReconciliation:
    def test_ratio_is_exactly_one_by_construction(self):
        """The golden trace carries the steady-state complement on every
        boundary hop, so measured == predicted exactly."""
        rec = reconcile(golden_hier_trace())
        ht = rec["hier_traffic"]
        assert ht["w_chunk_bytes"] == pytest.approx(W_CHUNK)
        assert ht["d_chunk_bytes"] == pytest.approx(D_CHUNK)
        assert ht["predicted_steady_inter_bytes_per_turn"] == pytest.approx(
            D_CHUNK + 2 * REF
        )
        assert ht["predicted_flat_inter_bytes_per_turn"] == pytest.approx(
            2 * W_CHUNK + D_CHUNK
        )
        assert ht["measured_inter_bytes_per_turn"] == pytest.approx(
            D_CHUNK + 2 * REF
        )
        assert ht["ratio"] == pytest.approx(1.0)
        assert ht["within_tolerance"] is True
        assert ht["tolerance_factor"] == HIER_TRAFFIC_TOL

    def test_flat_strategy_gets_no_hier_section(self):
        doc = golden_hier_trace()
        doc["metadata"]["strategy"] = "weipipe-interleave"
        assert "hier_traffic" not in reconcile(doc)

    def test_bloated_boundary_traffic_flagged(self):
        """Full weight chunks still crossing in steady state must fail
        the tolerance check — that is the regression the gate exists
        to catch."""
        doc = golden_hier_trace()
        for ev in doc["traceEvents"]:
            args = ev.get("args") or {}
            if (ev.get("name") == "send" and args.get("nbytes") == REF):
                args["nbytes"] = W_CHUNK  # boundary hop ships full W again
        ht = reconcile(doc)["hier_traffic"]
        assert ht["ratio"] > HIER_TRAFFIC_TOL
        assert ht["within_tolerance"] is False


def _traced_hier_run(iters=2):
    cfg = ModelConfig(hidden=32, n_layers=4, n_heads=4, seq_len=32, vocab=64)
    spec = TrainSpec(cfg=cfg, n_microbatches=8, microbatch_size=2,
                     iters=iters, seed=3)
    topo = Topology.grid(4, "2x2")
    tracer = Tracer(metadata={
        "strategy": "weipipe-hier", "mode": "interleave", "world": 4,
        "recompute": spec.recompute, "overlap": True,
        "topology": topo.as_dict(),
        "dims": {"hidden": cfg.hidden, "n_layers": cfg.n_layers,
                 "seq_len": cfg.seq_len, "microbatch": spec.microbatch_size,
                 "n_microbatches": spec.n_microbatches,
                 "n_heads": cfg.n_heads, "vocab": cfg.vocab},
    })
    fabric = Fabric(4, tracer=tracer, topology=topo)
    train_weipipe(spec, 4, topology=topo, fabric=fabric)
    return tracer.chrome_trace(), fabric


class TestTracedHierRun:
    @pytest.mark.timing
    def test_reconcile_wall_holds_documented_tolerance(self):
        doc, _ = _traced_hier_run()
        wall = reconcile(doc)["iteration_wall"]
        assert wall["within_tolerance"], wall
        assert (1.0 / WALL_TOL) <= wall["ratio"] <= WALL_TOL

    def test_reconcile_traffic_holds_documented_tolerance(self):
        doc, _ = _traced_hier_run()
        ht = reconcile(doc)["hier_traffic"]
        assert ht["within_tolerance"], ht
        # steady-state floor, inflated only by the amortised first
        # revolution — and always under the flat ring's volume.
        assert 1.0 <= ht["ratio"] <= HIER_TRAFFIC_TOL
        assert (ht["measured_inter_bytes_per_turn"]
                < ht["predicted_flat_inter_bytes_per_turn"])

    def test_trace_traffic_matches_fabric_ledger(self):
        """Two independent measurements of the same wire — send instants
        in the trace vs the fabric's locked counters — must agree."""
        doc, fabric = _traced_hier_run()
        lt = link_traffic(doc)
        ledger = fabric.link_traffic()
        for cls in ("intra", "inter"):
            assert lt[cls]["bytes"] == ledger[cls]["bytes"]
            assert lt[cls]["messages"] == ledger[cls]["messages"]

    def test_wire_attribution_present_for_all_ranks(self):
        doc, _ = _traced_hier_run()
        ana = analyze_trace(doc)
        for pid in range(4):
            assert "wire_wait_intra_s" in ana["per_rank"][pid]
            assert "wire_wait_inter_s" in ana["per_rank"][pid]
