"""CLI smoke and behaviour tests (invoked in-process via main())."""

import argparse

import pytest

from repro.cli import build_parser, main
from repro.core.schedule import RING_SCHEDULES
from repro.testing import DEFAULT_HEAL_MODES


def _option(command, dest):
    """The parser's action for ``command``'s ``dest`` option."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices[command]._actions if a.dest == dest)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.strategy == "weipipe-interleave"
        assert args.world == 4

    def test_table_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "5"])

    @pytest.mark.parametrize("command", ["bench-overlap", "bench-topology"])
    def test_ring_modes_are_the_turn_table(self, command):
        assert _option(command, "mode").choices == sorted(RING_SCHEDULES)

    def test_self_heal_modes_default_to_the_heal_matrix(self):
        assert _option("self-heal", "modes").default == ",".join(DEFAULT_HEAL_MODES)


class TestCommands:
    def test_strategies(self, capsys):
        assert main(["strategies"]) == 0
        out = capsys.readouterr().out
        functional, simulated = (
            line.split(": ")[1].split(", ") for line in out.strip().splitlines()
        )
        assert "weipipe-interleave" in functional
        # the simulator speaks the runtime's names: no figure-only entry,
        # and every ring that trains can be simulated
        assert set(simulated) <= set(functional)
        assert {s for s in functional if s.startswith("weipipe-")} <= set(simulated)

    def test_train_tiny(self, capsys):
        rc = main([
            "train", "--iters", "2", "--world", "2", "--hidden", "16",
            "--layers", "2", "--heads", "2", "--seq", "8", "--vocab", "17",
            "--microbatches", "4", "--strategy", "1f1b",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "iter    1" in out

    def test_train_process_backend(self, capsys):
        rc = main([
            "train", "--iters", "2", "--world", "2", "--hidden", "16",
            "--layers", "2", "--heads", "2", "--seq", "8", "--vocab", "17",
            "--microbatches", "4", "--backend", "process",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "iter    1" in out

    @pytest.mark.parametrize("strategy", ["weipipe-interleave", "1f1b", "gpipe"])
    def test_train_recompute_prints_the_replay_ledger(self, strategy, capsys):
        argv = [
            "train", "--iters", "2", "--world", "2", "--hidden", "16",
            "--layers", "4", "--heads", "2", "--seq", "8", "--vocab", "16",
            "--microbatches", "4", "--strategy", strategy,
        ]
        assert main(argv + ["--recompute"]) == 0
        # 2 iterations x N=4 backwards of L=4 chunks; one per microbatch
        # takes the cache its forward left, except on gpipe.
        want = {"gpipe": "recompute: replayed=32 kept=0"}.get(
            strategy, "recompute: replayed=24 kept=8")
        assert want in capsys.readouterr().out.splitlines()
        assert main(argv) == 0
        assert "recompute:" not in capsys.readouterr().out

    def test_train_process_backend_traces_and_merges_metrics(self, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.json"
        rc = main([
            "train", "--iters", "1", "--world", "2", "--hidden", "16",
            "--layers", "2", "--heads", "2", "--seq", "8", "--vocab",
            "17", "--microbatches", "4", "--backend", "process",
            "--trace", str(trace), "--metrics-out", str(metrics),
        ])
        assert rc == 0
        doc = json.loads(trace.read_text())
        assert validate_chrome_trace(doc) == []
        pids = {e["pid"] for e in doc["traceEvents"] if e["ph"] != "M"}
        assert pids == {0, 1}
        merged = json.loads(metrics.read_text())
        names = {m["name"] for m in merged["metrics"]}
        # quiet run: the heal counters are present *and* zero.
        assert "fabric_retransmits" in names
        assert all(
            m["value"] == 0 for m in merged["metrics"]
            if m["name"] == "fabric_retransmits"
        )

    def test_train_process_backend_still_rejects_durable(self, tmp_path):
        import pytest

        with pytest.raises(SystemExit, match="backend thread"):
            main([
                "train", "--iters", "1", "--world", "2", "--hidden", "16",
                "--layers", "2", "--heads", "2", "--seq", "8", "--vocab",
                "17", "--microbatches", "4", "--backend", "process",
                "--checkpoint-every", "1",
                "--checkpoint-path", str(tmp_path / "ckpt.npz"),
            ])

    def test_train_markov_with_clip(self, capsys):
        rc = main([
            "train", "--iters", "2", "--world", "2", "--hidden", "16",
            "--layers", "2", "--heads", "2", "--seq", "8", "--vocab", "17",
            "--microbatches", "4", "--data", "markov", "--clip-norm", "1.0",
        ])
        assert rc == 0

    def test_simulate(self, capsys):
        rc = main([
            "simulate", "--strategy", "weipipe-interleave", "--world", "8",
            "--hidden", "1024", "--layers", "8", "--seq", "4096",
            "--microbatch", "4", "--microbatches", "16",
            "--cluster", "single-node",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tokens/s/GPU" in out

    #: a workload small enough that the no-recompute ring fits 80 GB
    SMALL = ["--world", "8", "--hidden", "1024", "--layers", "8", "--seq", "2048",
             "--microbatch", "1", "--microbatches", "16"]

    @pytest.mark.parametrize("cluster, gpn", [("nvlink", "8"), ("pcie-eth", "4")])
    def test_simulate_and_timeline_every_ring_the_runtime_lists(self, cluster, gpn, capsys):
        from repro.core import RING_STRATEGIES

        for strategy in RING_STRATEGIES:
            rc = main(["simulate", "--strategy", strategy, "--cluster", cluster,
                       "--gpus-per-node", gpn, *self.SMALL])
            assert rc == 0, strategy
            assert f": {strategy}\n" in capsys.readouterr().out
            assert main(["timeline", strategy, "--width", "40"]) == 0
            assert "worker  0" in capsys.readouterr().out

    def test_simulate_unknown_strategy_is_one_line(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--strategy", "weipipe-wzb1"])
        message = str(exc.value)
        assert "\n" not in message
        assert "weipipe-wzb1" in message and "weipipe-zb" in message

    def test_timeline_unknown_schedule_is_one_line(self):
        with pytest.raises(SystemExit, match="choose from.*weipipe-zb.*wzb1"):
            main(["timeline", "weipipe-wzb1"])

    def test_simulate_oom_exit_code(self, capsys):
        rc = main([
            "simulate", "--strategy", "zb2", "--world", "16",
            "--hidden", "4096", "--layers", "32", "--seq", "16384",
            "--microbatch", "4", "--microbatches", "32",
        ])
        assert rc == 1
        assert "OOM" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "schedule", ["weipipe-interleave", "weipipe-naive", "wzb1", "wzb2", "1f1b", "zb1"]
    )
    def test_timeline(self, schedule, capsys):
        rc = main(["timeline", schedule, "--width", "40", "--microbatches", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "worker  0" in out

    def test_figure(self, capsys):
        rc = main(["figure", "6"])
        assert rc == 0
        assert "weak scaling" in capsys.readouterr().out


class TestChaosSweepCLI:
    def test_defaults(self):
        args = build_parser().parse_args(["chaos-sweep"])
        assert args.seeds == 5
        assert args.seed_start == 0
        assert args.strategies is None

    def test_sweep_passes_on_correct_strategies(self, capsys):
        rc = main([
            "chaos-sweep", "--seeds", "2",
            "--strategies", "weipipe-interleave,1f1b", "--iters", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "0 failure(s)" in out

    def test_replay_single_seed(self, capsys):
        rc = main([
            "chaos-sweep", "--seeds", "1", "--seed-start", "13",
            "--strategies", "weipipe-zb", "--iters", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "seed   13" in out

    def test_quiet_wire_control_run(self, capsys):
        rc = main([
            "chaos-sweep", "--seeds", "1", "--strategies", "fsdp",
            "--iters", "1", "--quiet-wire",
        ])
        assert rc == 0

    def test_unknown_strategy_errors(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            main([
                "chaos-sweep", "--seeds", "1", "--strategies", "frobnicate",
            ])


class TestCheckpointCLI:
    TINY = [
        "--hidden", "16", "--layers", "4", "--heads", "2", "--seq", "8",
        "--vocab", "17", "--microbatches", "4", "--world", "4",
    ]

    def test_checkpoint_then_full_state_resume(self, tmp_path, capsys):
        ck = str(tmp_path / "ck.npz")
        rc = main(["train", "--iters", "2", "--checkpoint-every", "1",
                   "--checkpoint-path", ck, *self.TINY])
        assert rc == 0
        straight_out = capsys.readouterr().out
        assert "checkpoint written" in straight_out

        rc = main(["train", "--iters", "2", "--resume", ck, *self.TINY])
        assert rc == 0
        resumed_out = capsys.readouterr().out
        assert "resuming (full state)" in resumed_out
        assert "at iteration 2" in resumed_out
        assert "iter    2" in resumed_out and "iter    3" in resumed_out

        # the resumed segment must equal the tail of an unbroken run.
        rc = main(["train", "--iters", "4", *self.TINY])
        assert rc == 0
        unbroken_out = capsys.readouterr().out
        for line in resumed_out.splitlines():
            if line.startswith("iter "):
                assert line in unbroken_out

    def test_cross_strategy_resume_is_weights_only(self, tmp_path, capsys):
        ck = str(tmp_path / "ck.npz")
        assert main(["train", "--iters", "1", "--checkpoint-every", "1",
                     "--checkpoint-path", ck, *self.TINY]) == 0
        capsys.readouterr()
        rc = main(["train", "--iters", "1", "--strategy", "dp",
                   "--resume", ck, *self.TINY])
        assert rc == 0
        out = capsys.readouterr().out
        assert "weights-only" in out and "optimizer restarts" in out

    def test_corrupt_checkpoint_refused(self, tmp_path):
        """Tamper with one tensor but keep the zip container consistent:
        only the checkpoint's own checksums can catch it — and they must
        stop the resume cold."""
        import numpy as np

        from repro.io import CorruptCheckpointError

        ck = tmp_path / "ck.npz"
        assert main(["train", "--iters", "1", "--checkpoint-every", "1",
                     "--checkpoint-path", str(ck), *self.TINY]) == 0
        with np.load(ck) as data:
            arrays = {k: data[k].copy() for k in data.files}
        key = next(k for k in arrays if k.startswith("chunk"))
        arrays[key] = arrays[key] + 1.0
        np.savez_compressed(ck, **arrays)
        with pytest.raises(CorruptCheckpointError):
            main(["train", "--iters", "1", "--resume", str(ck), *self.TINY])

    def test_checkpoint_needs_elastic_strategy(self):
        with pytest.raises(SystemExit, match="elastic strategy"):
            main(["train", "--iters", "1", "--strategy", "1f1b",
                  "--checkpoint-every", "1", *self.TINY])

    def test_checkpoint_rejected_with_dp(self):
        with pytest.raises(SystemExit, match="not supported with --dp"):
            main(["train", "--iters", "1", "--dp", "2",
                  "--checkpoint-every", "1", *self.TINY])


class TestCrashRecoveryCLI:
    def test_defaults(self):
        args = build_parser().parse_args(["crash-recovery"])
        assert args.strategy == "weipipe-interleave"
        assert args.world == 4
        assert args.crash_rank is None and args.crash_at_post is None

    def test_pinned_crash_verifies(self, capsys):
        rc = main(["crash-recovery", "--crash-rank", "0",
                   "--crash-at-post", "76"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rolled back to step" in out
        assert "bit-for-bit" in out


class TestHybridCLI:
    def test_train_with_dp(self, capsys):
        rc = main([
            "train", "--world", "4", "--dp", "2", "--iters", "2",
            "--hidden", "16", "--layers", "2", "--heads", "2",
            "--seq", "8", "--vocab", "17", "--microbatches", "4",
        ])
        assert rc == 0
        assert "dp=2" in capsys.readouterr().out

    def test_dp_requires_weipipe(self):
        with pytest.raises(SystemExit):
            main([
                "train", "--world", "4", "--dp", "2", "--strategy", "1f1b",
                "--iters", "1", "--hidden", "16", "--layers", "2",
                "--heads", "2", "--seq", "8", "--vocab", "17",
                "--microbatches", "4",
            ])


class TestBenchOverlapCLI:
    def test_smoke_writes_schema_tagged_json(self, capsys, tmp_path):
        import json

        out = tmp_path / "BENCH_overlap.json"
        rc = main([
            "bench-overlap", "--world", "2", "--layers", "4", "--hidden", "8",
            "--heads", "2", "--seq", "8", "--vocab", "16",
            "--microbatches", "4", "--iters", "2", "--reps", "1",
            "--link-delay", "0.0005", "--out", str(out),
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["schema"] == "repro.bench_overlap/v2"
        # no --backend process: the per-backend section is not included.
        assert "backends" not in report
        assert report["losses_equal"] is True
        assert report["bytes_equal"] is True
        assert report["overlap"]["steady_state_allocs_per_iter"] == 0
        assert report["overlap"]["tokens_per_s"] > 0
        assert report["zero_latency"]["losses_equal"] is True
        printed = capsys.readouterr().out
        assert "speedup" in printed and "losses bit-equal    : True" in printed

    def test_no_control_skips_zero_latency(self, tmp_path):
        import json

        out = tmp_path / "b.json"
        rc = main([
            "bench-overlap", "--world", "2", "--layers", "2", "--hidden", "8",
            "--heads", "2", "--seq", "8", "--vocab", "16",
            "--microbatches", "2", "--iters", "2", "--reps", "1",
            "--link-delay", "0.0", "--no-control", "--out", str(out),
        ])
        assert rc == 0
        assert "zero_latency" not in json.loads(out.read_text())


class TestTraceCLI:
    def test_trace_writes_valid_chrome_trace_and_analysis(self, capsys, tmp_path):
        import json

        from repro.obs import validate_chrome_trace

        out = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        analysis = tmp_path / "analysis.json"
        rc = main([
            "trace", "weipipe-interleave", "--world", "2", "--layers", "4",
            "--iters", "1", "--microbatches", "4",
            "--out", str(out), "--jsonl", str(jsonl),
            "--metrics-out", str(metrics), "--analysis-out", str(analysis),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []
        assert doc["metadata"]["strategy"] == "weipipe-interleave"
        # jsonl: header + one line per event
        lines = jsonl.read_text().splitlines()
        assert len(lines) == 1 + sum(
            1 for e in doc["traceEvents"] if e["ph"] != "M"
        )
        m = json.loads(metrics.read_text())
        names = {x["name"] for x in m["metrics"]}
        assert "fabric_bytes_total" in names
        assert "weipipe_wire_wait_seconds" in names
        a = json.loads(analysis.read_text())
        assert a["analysis"]["per_turn"]["uniform_2w_1d"] is True
        assert a["reconciliation"]["iteration_wall"]["within_tolerance"]
        printed = capsys.readouterr().out
        assert "bubble ratio" in printed
        assert "2W+1D" in printed

    def test_trace_process_backend_runs_full_pipeline(self, capsys, tmp_path):
        import json

        from repro.obs import validate_chrome_trace

        out = tmp_path / "trace.json"
        analysis = tmp_path / "analysis.json"
        rc = main([
            "trace", "weipipe-interleave", "--world", "2", "--layers", "4",
            "--iters", "1", "--microbatches", "4", "--backend", "process",
            "--out", str(out), "--analysis-out", str(analysis),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []
        pids = {e["pid"] for e in doc["traceEvents"] if e["ph"] != "M"}
        assert pids == {0, 1}
        # per-rank clock alignment is recorded in the trace metadata.
        clock = doc["metadata"]["clock"]
        assert sorted(clock) == ["0", "1"]
        a = json.loads(analysis.read_text())
        assert a["analysis"]["summary"]["ranks"] == 2
        assert a["reconciliation"]["iteration_wall"]["within_tolerance"]
        printed = capsys.readouterr().out
        assert "backend=process" in printed
        assert "clock rank 0" in printed

    def test_trace_default_strategy_and_no_analyze(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        rc = main([
            "trace", "--world", "2", "--layers", "2", "--iters", "1",
            "--microbatches", "2", "--no-analyze", "--out", str(out),
        ])
        assert rc == 0
        assert out.exists()
        assert "bubble ratio" not in capsys.readouterr().out

    def test_trace_unknown_strategy_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", "frobnicate", "--out", str(tmp_path / "t.json")])

    def test_train_trace_flag(self, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        out = tmp_path / "t.json"
        rc = main([
            "train", "--iters", "1", "--world", "2", "--hidden", "16",
            "--layers", "2", "--heads", "2", "--seq", "8", "--vocab", "17",
            "--microbatches", "4", "--strategy", "1f1b", "--trace", str(out),
        ])
        assert rc == 0
        assert validate_chrome_trace(json.loads(out.read_text())) == []

    def test_chaos_sweep_metrics_out(self, tmp_path, capsys):
        import json

        metrics = tmp_path / "m.json"
        rc = main([
            "chaos-sweep", "--seeds", "1",
            "--strategies", "weipipe-interleave",
            "--metrics-out", str(metrics),
        ])
        assert rc == 0
        m = json.loads(metrics.read_text())
        names = {x["name"] for x in m["metrics"]}
        assert "chaos_injections_total" in names

    def test_bench_overlap_trace_flag(self, tmp_path):
        import json

        from repro.obs import validate_chrome_trace

        out = tmp_path / "b.json"
        trace = tmp_path / "t.json"
        rc = main([
            "bench-overlap", "--world", "2", "--layers", "2", "--hidden", "8",
            "--heads", "2", "--seq", "8", "--vocab", "16",
            "--microbatches", "2", "--iters", "2", "--reps", "1",
            "--link-delay", "0.0", "--no-control", "--out", str(out),
            "--trace", str(trace),
        ])
        assert rc == 0
        assert json.loads(out.read_text())["trace_path"] == str(trace)
        assert validate_chrome_trace(json.loads(trace.read_text())) == []


class TestTopologyCLI:
    TINY = [
        "--world", "4", "--hidden", "16", "--layers", "4", "--heads", "2",
        "--seq", "8", "--vocab", "17", "--microbatches", "4", "--iters", "2",
    ]

    def test_train_hier_with_groups(self, capsys):
        rc = main(["train", "--strategy", "weipipe-hier",
                   "--groups", "2x2", *self.TINY])
        assert rc == 0
        out = capsys.readouterr().out
        assert "topology=2x2 gateways=[0, 2]" in out
        assert "inter" in out and "intra" in out

    def test_train_flat_on_topology_fabric(self, capsys):
        """--groups without --strategy weipipe-hier still builds the
        topology fabric and reports per-class traffic for the flat ring."""
        rc = main(["train", "--groups", "2x2", *self.TINY])
        assert rc == 0
        assert "topology=2x2" in capsys.readouterr().out

    def test_train_bad_groups_exits_cleanly(self):
        with pytest.raises(SystemExit):
            main(["train", "--strategy", "weipipe-hier",
                  "--groups", "3x3", *self.TINY])

    def test_bench_topology_smoke(self, capsys, tmp_path):
        import json

        out = tmp_path / "BENCH_topology.json"
        rc = main([
            "bench-topology", "--world", "4", "--groups", "2x2",
            "--hidden", "8", "--layers", "4", "--heads", "2", "--seq", "8",
            "--vocab", "16", "--microbatches", "4", "--iters", "1",
            "--reps", "1", "--jitter", "0.0001", "--out", str(out),
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["schema"] == "repro.bench_topology/v1"
        assert report["losses_equal"] is True
        assert report["cross_group"]["hier_lt_flat"] is True
        assert report["intra_group"]["equal"] is True
        printed = capsys.readouterr().out
        assert "cross-group" in printed and "speedup" in printed

    def test_bench_topology_trace_flag(self, tmp_path):
        import json

        from repro.obs import reconcile, validate_chrome_trace

        out = tmp_path / "b.json"
        trace = tmp_path / "t.json"
        rc = main([
            "bench-topology", "--world", "4", "--groups", "2x2",
            "--hidden", "8", "--layers", "4", "--heads", "2", "--seq", "8",
            "--vocab", "16", "--microbatches", "4", "--iters", "1",
            "--reps", "1", "--jitter", "0.0001", "--out", str(out),
            "--trace", str(trace),
        ])
        assert rc == 0
        assert json.loads(out.read_text())["trace_path"] == str(trace)
        doc = json.loads(trace.read_text())
        assert validate_chrome_trace(doc) == []
        assert "hier_traffic" in reconcile(doc)
