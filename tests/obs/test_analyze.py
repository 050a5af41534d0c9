"""Trace analyzer tests.

The golden-file test pins the arithmetic on a synthetic trace whose
bubble ratio is known by construction; the property tests run real
traced jobs and check the paper-level claims: per-turn traffic is
exactly ``2W + 1D`` for every (rank, iteration, turn), the interleave
schedule measures a smaller bubble than naive on the same workload, and
the calibrated cost model brackets the measured wall clock within the
documented tolerance on the zero-latency wire.
"""

from dataclasses import replace

import pytest

from repro.nn import ModelConfig
from repro.obs import (
    RATIO_TOL,
    TRACE_SCHEMA,
    WALL_TOL,
    Tracer,
    analyze_trace,
    load_trace,
    per_turn_chunks,
    reconcile,
    trace_metadata,
)
from repro.parallel.common import TrainSpec
from repro.runtime import ChaosPolicy, Fabric, LinkSpec, Topology

US = 1e6  # seconds -> trace microseconds


def _span(pid, name, cat, start_s, dur_s, args=None):
    ev = {"ph": "X", "name": name, "cat": cat, "pid": pid, "tid": 0,
          "ts": start_s * US, "dur": dur_s * US}
    if args:
        ev["args"] = args
    return ev


def _send(pid, kind, it, turn, nbytes=100):
    return {"ph": "i", "name": "send", "cat": "comm", "pid": pid, "tid": 0,
            "ts": 0.0, "s": "t",
            "args": {"dst": (pid + 1) % 2, "kind": kind, "nbytes": nbytes,
                     "tag": [kind, it, turn]}}


def golden_trace():
    """Two ranks, one 10 s iteration each, bubble known by construction.

    * rank 0: compute [0,4) and [5,8) — 7 s busy -> bubble 0.3; the
      two compute spans overlap a nested update span [5,6) that must
      NOT double-count; wire wait [4,5) is fully inside rank 1's
      compute -> overlap fraction 1.0.
    * rank 1: compute [0,5) — 5 s busy -> bubble 0.5; wire wait [5,8)
      overlaps rank 0's compute only during [5,8) ∩ [5,8) = all of it.
    * rank 0 turns: 4 turns of 2 s each, one idle -> idle fraction 0.25.
    """
    events = [
        _span(0, "iteration", "iteration", 0.0, 10.0),
        _span(0, "F", "compute", 0.0, 4.0),
        _span(0, "B", "compute", 5.0, 3.0),
        _span(0, "update", "compute", 5.0, 1.0),  # nested: no double count
        _span(0, "wait:slots", "wire", 4.0, 1.0),
        _span(0, "turn", "turn", 0.0, 2.0, {"turn": 0, "idle": False}),
        _span(0, "turn", "turn", 2.0, 2.0, {"turn": 1, "idle": True}),
        _span(0, "turn", "turn", 4.0, 2.0, {"turn": 2, "idle": False}),
        _span(0, "turn", "turn", 6.0, 2.0, {"turn": 3, "idle": False}),
        _span(1, "iteration", "iteration", 0.0, 10.0),
        _span(1, "F", "compute", 0.0, 5.0),
        _span(1, "wait:D", "wire", 5.0, 3.0),
    ]
    # one full 2W+1D turn per rank
    for pid in (0, 1):
        for kind in ("F", "B", "D"):
            events.append(_send(pid, kind, 0, 1))
    return {"traceEvents": events, "metadata": {"schema": TRACE_SCHEMA}}


class TestGoldenTrace:
    def test_bubble_ratio_exact(self):
        ana = analyze_trace(golden_trace())
        assert ana["per_rank"][0]["bubble_ratio"] == pytest.approx(0.3)
        assert ana["per_rank"][1]["bubble_ratio"] == pytest.approx(0.5)
        assert ana["summary"]["bubble_ratio_mean"] == pytest.approx(0.4)
        assert ana["summary"]["bubble_ratio_max"] == pytest.approx(0.5)

    def test_nested_compute_spans_do_not_double_count(self):
        ana = analyze_trace(golden_trace())
        # update [5,6) sits inside B [5,8): union is 7 s, not 8.
        assert ana["per_rank"][0]["compute_s"] == pytest.approx(7.0)

    def test_idle_turn_fraction(self):
        ana = analyze_trace(golden_trace())
        r0 = ana["per_rank"][0]
        assert r0["turns"] == 4
        assert r0["idle_turns"] == 1
        assert r0["idle_turn_fraction"] == pytest.approx(0.25)

    def test_overlap_fraction(self):
        ana = analyze_trace(golden_trace())
        # rank 0 waits [4,5) under rank 1's compute [0,5): fully hidden.
        assert ana["per_rank"][0]["overlap_fraction"] == pytest.approx(1.0)
        # rank 1 waits [5,8) under rank 0's compute [5,8): fully hidden.
        assert ana["per_rank"][1]["overlap_fraction"] == pytest.approx(1.0)

    def test_critical_path_attribution(self):
        ana = analyze_trace(golden_trace())
        cp = ana["critical_path"]
        assert cp["rank"] in (0, 1)  # equal walls; either is valid
        assert cp["compute_s"] + cp["wire_wait_s"] + cp["other_s"] == (
            pytest.approx(cp["wall_s"])
        )

    def test_per_turn_chunks_uniform(self):
        pt = per_turn_chunks(golden_trace())
        assert pt["uniform_2w_1d"] is True
        assert pt["turns_observed"] == 2  # one (it, turn) group per rank
        assert pt["counts_min"] == {"F": 1, "B": 1, "D": 1}
        assert pt["bytes_by_kind"] == {"F": 200, "B": 200, "D": 200}

    def test_missing_chunk_breaks_uniformity(self):
        doc = golden_trace()
        doc["traceEvents"] = [
            e for e in doc["traceEvents"]
            if not (e["ph"] == "i" and e["pid"] == 1
                    and e["args"]["kind"] == "D")
        ]
        pt = per_turn_chunks(doc)
        assert pt["uniform_2w_1d"] is False
        assert pt["counts_min"]["D"] == 0

    def test_non_weipipe_trace_has_no_per_turn_section(self):
        doc = golden_trace()
        doc["traceEvents"] = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert per_turn_chunks(doc) is None

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            analyze_trace({"traceEvents": [], "metadata": {}})


class TestTraceMetadata:
    def test_round_trips_to_the_specs_workload_dims(self, monkeypatch):
        """What :func:`trace_metadata` writes is what :func:`reconcile`
        prices: the spec's workload dims, its arrays' width (the default
        ``ModelConfig`` computes in fp64), the widths its wire ledgers at
        (the default FP32 policy's 4 bytes) and its exec settings."""
        from repro.sim.costmodel import CostModel, ExecConfig, WorkloadDims

        cfg = ModelConfig(hidden=24, n_layers=6, n_heads=3, seq_len=12,
                          vocab=40, flash_attention=True)
        spec = TrainSpec(cfg=cfg, n_microbatches=6, microbatch_size=3,
                         iters=2, recompute=True)
        doc = golden_trace()
        doc["metadata"].update(trace_metadata("weipipe-interleave", 2, spec))
        seen = []
        calibrated = CostModel.calibrated.__func__

        def spy(cls, dims, t_fwd, exec_cfg):
            seen.append((dims, exec_cfg))
            return calibrated(cls, dims, t_fwd, exec_cfg)

        monkeypatch.setattr(CostModel, "calibrated", classmethod(spy))
        reconcile(doc)
        assert seen == [(
            WorkloadDims(hidden=24, n_layers=6, seq_len=12, microbatch=3,
                         n_microbatches=6, n_heads=3, vocab=40),
            replace(ExecConfig.for_precision("fp64", recompute=True, overlap=True,
                                             flash_attention=True),
                    act_bytes=4, bgrad_bytes=4, weight_bytes=4, wgrad_bytes=4),
        )]

    def test_extra_keys_add_and_override(self):
        spec = TrainSpec(cfg=ModelConfig(hidden=8, n_layers=2, n_heads=2,
                                         seq_len=4, vocab=8))
        meta = trace_metadata("weipipe-hier", 4, spec, overlap=False,
                              topology=Topology.grid(4, "2x2"))
        assert meta["overlap"] is False
        assert meta["topology"]["groups"] == [[0, 1], [2, 3]]
        assert (meta["strategy"], meta["world"], meta["iters"]) == (
            "weipipe-hier", 4, 1)

    def test_only_a_priced_wire_records_links(self):
        """A topology without a ``ChaosPolicy`` only accounts traffic, so
        its links are recorded only when the wire charged them."""
        spec = TrainSpec(cfg=ModelConfig(hidden=8, n_layers=2, n_heads=2,
                                         seq_len=4, vocab=8))
        topo = Topology.grid(4, "2x2", inter=LinkSpec("slow", bandwidth=6e6))
        assert "links" not in trace_metadata("weipipe-hier", 4, spec,
                                             topology=topo)
        links = trace_metadata("weipipe-hier", 4, spec, topology=topo,
                               priced=True)["links"]
        assert links["inter"] == {"name": "slow", "bandwidth": 6e6,
                                  "latency": 0.0}
        assert links["intra"] == topo.intra.as_dict()


def _traced_run(mode, iters=2, n_layers=4, world=2):
    from repro.core.weipipe import train_weipipe

    # compute per turn must dominate per-turn bookkeeping, or the
    # busy-fraction bubble comparison drowns in dispatch noise — hence
    # a config slightly larger than the usual test minimum.
    cfg = ModelConfig(hidden=32, n_layers=n_layers, n_heads=4, seq_len=32,
                      vocab=64)
    spec = TrainSpec(cfg=cfg, n_microbatches=8, microbatch_size=2,
                     iters=iters, seed=3)
    tracer = Tracer(
        metadata=trace_metadata(f"weipipe-{mode}", world, spec, mode=mode)
    )
    train_weipipe(spec, world, mode=mode, fabric=Fabric(world, tracer=tracer))
    return tracer.chrome_trace(), spec


class TestMeasuredProperties:
    def test_per_turn_traffic_is_exactly_2w_1d(self):
        """Every (rank, iteration, turn) ships one F + one B + one D
        chunk — the paper's per-turn volume, measured off send instants
        rather than inferred from a byte ledger."""
        doc, spec = _traced_run("interleave")
        pt = per_turn_chunks(doc)
        assert pt is not None
        assert pt["uniform_2w_1d"] is True, (pt["counts_min"], pt["counts_max"])
        # interleave: (R+2)*P turns per iteration, every turn on each of
        # the P ranks ships the full complement.
        world = 2
        rounds = spec.n_microbatches // world
        turns_per_iter = (rounds + 2) * world
        expected = spec.iters * turns_per_iter * world
        assert pt["turns_observed"] == expected

    def test_interleave_measures_smaller_bubble_than_naive(self):
        doc_i, _ = _traced_run("interleave")
        doc_n, _ = _traced_run("naive")
        ana_i = analyze_trace(doc_i)
        ana_n = analyze_trace(doc_n)
        assert (ana_i["summary"]["bubble_ratio_mean"]
                < ana_n["summary"]["bubble_ratio_mean"])
        # the schedule-level signal is even cleaner: naive idles ~1/3 of
        # its turns, interleave almost none.
        assert (ana_i["summary"]["idle_turn_fraction_mean"]
                < ana_n["summary"]["idle_turn_fraction_mean"])

    def test_reconcile_within_documented_tolerance(self):
        doc, _ = _traced_run("interleave", iters=2)
        rec = reconcile(doc)
        cal = rec["calibration"]
        # calibration reproduces the measurement by construction
        assert cal["t_fwd_layer_model_s"] == pytest.approx(
            cal["t_fwd_layer_measured_s"]
        )
        wall = rec["iteration_wall"]
        assert wall["within_tolerance"], wall
        assert wall["tolerance_factor"] == WALL_TOL
        bf = rec["b_over_f"]
        assert bf["within_tolerance"], bf
        assert bf["tolerance"] == RATIO_TOL

    def test_reconcile_prices_the_rules_replays(self):
        """The predicted B/F ratio and wall price the replays the
        checkpoint rule counts on the strategy's programs — what the B
        spans report, so a kept cache is not a model error — each at a
        replay's price: the forward's FLOPs less the down projection and,
        with the streaming core, the attention core."""
        from repro.core.weipipe import train_weipipe
        from repro.sim import Cluster, CostModel, ExecConfig, WorkloadDims, run_cell
        from repro.sim.runner import FREE_LINK

        world, iters, n_mb, n_layers = 2, 2, 4, 4
        cfg = ModelConfig(hidden=16, n_layers=n_layers, n_heads=2, seq_len=8,
                          vocab=17, flash_attention=True)
        spec = TrainSpec(cfg=cfg, n_microbatches=n_mb, microbatch_size=1,
                         iters=iters, recompute=True)
        tracer = Tracer(metadata={
            "strategy": "weipipe-interleave", "world": world,
            "recompute": True, "overlap": True, "flash_attention": True,
            "dims": {"hidden": cfg.hidden, "n_layers": n_layers,
                     "seq_len": cfg.seq_len, "microbatch": 1,
                     "n_microbatches": n_mb, "n_heads": 2, "vocab": cfg.vocab},
        })
        res = train_weipipe(spec, world, fabric=Fabric(world, tracer=tracer))
        doc = tracer.chrome_trace()
        b_spans = [ev for ev in doc["traceEvents"]
                   if ev.get("ph") == "X" and ev["name"] == "B"]
        ledger = res.extra["recompute"]
        assert ledger == {"replayed": iters * n_mb * (n_layers - 1),
                          "kept": iters * n_mb}
        assert sum(ev["args"]["replayed"] for ev in b_spans) == ledger["replayed"]

        rec = reconcile(doc)
        assert rec["replays"] == {"predicted": ledger["replayed"],
                                  "measured": ledger["replayed"]}
        t_fwd = rec["calibration"]["t_fwd_layer_model_s"]
        per_span = ledger["replayed"] / len(b_spans)
        # the cost model's forward, at the runtime's ffn width:
        # 2 * params * tokens + the causal core
        h, s_, ffn = cfg.hidden, cfg.seq_len, cfg.ffn
        core, down = 2.0 * s_**2 * h, 2.0 * h * ffn * s_
        fwd = 2.0 * (4 * h * h + 3 * h * ffn + 2 * h) * s_ + core
        share = (fwd - down - core) / fwd
        assert rec["b_over_f"]["predicted"] == pytest.approx(
            2.0 + share * per_span / (n_layers // world))
        # the wall is the DES makespan of the same schedule: every rank
        # on its own compute stream, so under the summed work of all
        # ranks and over a perfectly balanced split of it.
        summed = (n_mb * n_layers * 3.0 * t_fwd
                  + ledger["replayed"] / iters * share * t_fwd)
        dims = WorkloadDims(hidden=cfg.hidden, n_layers=n_layers,
                            seq_len=cfg.seq_len, microbatch=1,
                            n_microbatches=n_mb, n_heads=2, vocab=cfg.vocab)
        exec_cfg = ExecConfig.for_precision("fp32", recompute=True)
        gpu = CostModel.calibrated(dims, t_fwd, exec_cfg).gpu
        sim = run_cell("weipipe-interleave", dims, Cluster(
            gpu=gpu, nodes=1, gpus_per_node=world, intra=FREE_LINK,
            inter=FREE_LINK), exec_cfg)
        wall = rec["iteration_wall"]["predicted_s"]
        assert wall == pytest.approx(sim.makespan)
        assert summed / world < wall < summed

        # the materialised core leaves a replay nothing to resume from
        doc["metadata"]["flash_attention"] = False
        assert reconcile(doc)["b_over_f"]["predicted"] == pytest.approx(
            2.0 + (fwd - down) / fwd * per_span / (n_layers // world))

        # spans without the count are priced by the rule all the same,
        # and the check reports what they did not say
        for ev in b_spans:
            del ev["args"]["replayed"]
        bare = reconcile(doc)
        assert bare["b_over_f"]["predicted"] == pytest.approx(
            2.0 + (fwd - down) / fwd * per_span / (n_layers // world))
        assert bare["replays"] == {"predicted": ledger["replayed"], "measured": 0}

    @pytest.mark.parametrize("recompute", [True, False])
    @pytest.mark.parametrize("strategy, world", [
        ("gpipe", 2), ("1f1b", 2), ("zb1", 2), ("zb2", 2), ("weipipe-naive", 2),
        ("weipipe-interleave", 2), ("weipipe-zb", 2), ("weipipe-hier", 4),
    ])
    def test_the_rule_counts_every_traced_runs_replays(self, strategy, world,
                                                       recompute):
        """Every strategy whose ops emit spans: the rule's count on its
        programs is what the B spans and the runtime's ledger report."""
        from repro import train

        cfg = ModelConfig(hidden=16, n_layers=4, n_heads=2, seq_len=8, vocab=17)
        spec = TrainSpec(cfg=cfg, n_microbatches=4, microbatch_size=1, iters=2,
                         recompute=recompute)
        tracer = Tracer(metadata=trace_metadata(strategy, world, spec))
        res = train(spec, strategy, world, fabric=Fabric(world, tracer=tracer))
        replays = reconcile(tracer.chrome_trace())["replays"]
        assert replays == {"predicted": res.extra["recompute"]["replayed"],
                           "measured": res.extra["recompute"]["replayed"]}
        assert (replays["predicted"] > 0) == recompute

    def test_a_priced_wire_predicts_a_longer_wall(self):
        """A trace whose wire charged a slow link is priced on that link:
        the same trace without the ``links`` record is priced on free
        links and predicts a shorter wall."""
        from repro.core.weipipe import train_weipipe

        cfg = ModelConfig(hidden=16, n_layers=4, n_heads=2, seq_len=8,
                          vocab=17)
        spec = TrainSpec(cfg=cfg, n_microbatches=4, microbatch_size=1,
                         iters=2)
        topo = Topology.flat(2, LinkSpec("slow", bandwidth=6e6, latency=5e-5))
        tracer = Tracer(metadata=trace_metadata(
            "weipipe-interleave", 2, spec, topology=topo, priced=True))
        train_weipipe(spec, 2, fabric=Fabric(
            2, tracer=tracer, topology=topo, policy=ChaosPolicy.quiet()))
        doc = tracer.chrome_trace()
        priced = reconcile(doc)["iteration_wall"]
        assert priced["links"] == {"intra": "slow", "inter": "slow"}
        del doc["metadata"]["links"]
        free = reconcile(doc)["iteration_wall"]
        assert free["links"] == {"intra": "free", "inter": "free"}
        assert priced["predicted_s"] > free["predicted_s"]
        assert priced["measured_s"] == free["measured_s"]

    def test_the_suites_metadata_reconciles(self):
        """The benchmark suite writes only the keys reconcile requires —
        no precision, flash-attention setting or links — and still gets
        a wall prediction, on free links."""
        doc, _ = _traced_run("interleave", iters=1)
        meta = doc["metadata"]
        doc["metadata"] = {k: meta[k] for k in (
            "strategy", "world", "recompute", "overlap", "iters", "dims")}
        wall = reconcile(doc)["iteration_wall"]
        assert wall["predicted_s"] > 0.0 and wall["measured_s"] > 0.0
        assert wall["links"] == {"intra": "free", "inter": "free"}

    def test_reconcile_needs_metadata(self):
        doc, _ = _traced_run("interleave")
        doc["metadata"].pop("dims")
        with pytest.raises(ValueError):
            reconcile(doc)

    def test_load_trace_roundtrip(self, tmp_path):
        doc, _ = _traced_run("interleave", iters=1)
        import json

        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        loaded = load_trace(str(path))
        assert analyze_trace(loaded)["summary"] == analyze_trace(doc)["summary"]
