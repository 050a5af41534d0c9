"""CLI smoke and behaviour tests (invoked in-process via main())."""

import argparse
from dataclasses import replace

import pytest

from repro import FP32
from repro.cli import _chaos_policy, _spec, build_parser, main
from repro.runtime import ChaosPolicy
from repro.testing import (
    DEFAULT_HEAL_MODES, HEAL_SCHEDULES, default_differential_spec,
)


def _leaves(tree):
    """The arrays of a weight chunk or an optimizer state, in key order."""
    if isinstance(tree, dict):
        return [a for k in sorted(tree) for a in _leaves(tree[k])]
    if hasattr(tree, "values"):
        return list(tree.values())
    return [tree]


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

    def test_self_heal_modes_default_to_the_heal_matrix(self):
        assert _option("self-heal", "modes").default == ",".join(DEFAULT_HEAL_MODES)

    def test_fault_names_are_the_heal_table(self):
        """``--faults`` takes exactly the rows of HEAL_SCHEDULES, each
        merged onto the sweep's default wire, left to right."""
        parse = _option("chaos-sweep", "faults").type
        for name, row in HEAL_SCHEDULES.items():
            args = build_parser().parse_args(["chaos-sweep", "--faults", name])
            assert _chaos_policy(args) == replace(ChaosPolicy(), **row)
        assert parse("bitflip, flap") == ["bitflip", "flap"]
        with pytest.raises(argparse.ArgumentTypeError, match="storm"):
            parse("bitflip,frobnicate")
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos-sweep", "--faults", "frobnicate"])

    @pytest.mark.parametrize("seed", [0, 13])
    def test_sweep_policy_without_faults_is_the_default_wire(self, seed):
        """Every seed replays exactly: no flags is ``ChaosPolicy(seed=s)``
        and ``--quiet-wire`` is ``ChaosPolicy.quiet(s)``."""
        args = build_parser().parse_args(["chaos-sweep"])
        assert _chaos_policy(args).with_seed(seed) == ChaosPolicy(seed=seed)
        args = build_parser().parse_args(["chaos-sweep", "--quiet-wire"])
        assert _chaos_policy(args).with_seed(seed) == ChaosPolicy.quiet(seed)

    def test_merged_fault_rows_apply_left_to_right(self):
        args = build_parser().parse_args(["chaos-sweep", "--faults", "storm,flap"])
        want = replace(ChaosPolicy(), **HEAL_SCHEDULES["storm"])
        assert _chaos_policy(args) == replace(want, **HEAL_SCHEDULES["flap"])

    def test_model_flags_default_to_each_commands_spec(self):
        def dims(spec):
            return (spec.cfg, spec.n_microbatches, spec.microbatch_size,
                    spec.iters, spec.precision, spec.seed, spec.recompute)

        sweep = _spec(build_parser().parse_args(["chaos-sweep"]))
        assert dims(sweep) == dims(default_differential_spec())
        train = _spec(build_parser().parse_args(["train", "--precision", "fp32"]))
        assert (train.cfg.hidden, train.iters, train.precision) == (32, 5, FP32)


class TestCommands:
    def test_strategies(self, capsys):
        """One printed row per record: name, family / schedule, flags."""
        from repro.core import ZOO

        assert main(["strategies"]) == 0
        header, *rows = (line.split() for line in capsys.readouterr().out.splitlines())
        assert header == ["strategy", "family/schedule", "simulated", "full-cache"]
        assert [row[0] for row in rows] == list(ZOO)
        for name, kind, *flags in rows:
            s = ZOO[name]
            assert kind.split("/") == [s.family, *([s.schedule] if s.schedule else []),
                                       *(["two-level"] if s.hier else [])]
            assert flags == ["yes" if f else "no" for f in (s.simulated, s.full_cache)]

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

    def test_train_process_backend_writes_the_thread_checkpoint(self, tmp_path):
        """The commit hook runs in rank 0's forked process and writes the
        same bytes the thread run writes."""
        paths = {b: tmp_path / f"{b}.npz" for b in ("thread", "process")}
        for backend, path in paths.items():
            assert main([
                "train", "--strategy", "1f1b", "--iters", "2", "--world", "2",
                "--hidden", "16", "--layers", "2", "--heads", "2", "--seq", "8",
                "--vocab", "17", "--microbatches", "4", "--backend", backend,
                "--checkpoint-every", "1", "--checkpoint-path", str(path),
            ]) == 0
        assert paths["thread"].read_bytes() == paths["process"].read_bytes()

    def test_train_hybrid_on_process_backend_matches_thread(self, capsys):
        losses = {}
        for backend in ("thread", "process"):
            assert main([
                "train", "--iters", "2", "--world", "4", "--dp", "2",
                "--hidden", "16", "--layers", "2", "--heads", "2", "--seq", "8",
                "--vocab", "17", "--microbatches", "4", "--backend", backend,
            ]) == 0
            losses[backend] = [line for line in capsys.readouterr().out.splitlines()
                               if line.startswith("iter ")]
        assert losses["thread"] and losses["thread"] == losses["process"]

    @pytest.mark.parametrize("argv, why", [
        (["--strategy", "frobnicate"], "unknown strategy 'frobnicate'"),
        (["--world", "3"], "divisible"),
        (["--strategy", "tp", "--world", "3"], "divisible"),
        # the durable path refuses what the plain one does
        (["--strategy", "tp", "--world", "3", "--checkpoint-every", "1"], "divisible"),
        (["--strategy", "serial", "--world", "2", "--checkpoint-every", "1"],
         "computes on 1 of 2"),
    ])
    def test_train_config_error_exits_2_with_one_line(self, argv, why, capsys):
        rc = main(["train", "--iters", "1", "--hidden", "16", "--heads", "2",
                   "--seq", "8", "--vocab", "17", "--microbatches", "4", *argv])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("train: ") and why in err
        assert len(err.splitlines()) == 1

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
        from repro.core import ZOO

        for strategy in (s.name for s in ZOO.values() if s.family == "ring"):
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

    def test_timeline_refuses_an_indivisible_world_in_one_line(self):
        with pytest.raises(SystemExit) as exc:
            main(["timeline", "weipipe-interleave", "--world", "3"])
        message = str(exc.value)
        assert "\n" not in message and "not divisible by 3" in message

    def test_timeline_draws_a_rank_symmetric_record_as_rank_0(self, capsys):
        assert main(["timeline", "fsdp", "--width", "40"]) == 0
        rows = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("worker")]
        assert len(rows) == 1 and rows[0].startswith("worker  0 |")

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

    @pytest.mark.parametrize("precision", ["fp64", "fp32"])
    def test_pipeline_checkpoint_resume_is_bit_exact(self, tmp_path, capsys, precision):
        """1f1b checkpoints every iteration and resumes from the file;
        the resumed run's final checkpoint equals an unbroken run's, also
        where fp32-policy updates leave weights that are not fp32 values."""
        import numpy as np

        from repro.io import load_checkpoint_state

        run = ["train", "--strategy", "1f1b", "--precision", precision, *self.TINY]
        half, resumed, unbroken = (str(tmp_path / f"{n}.npz") for n in "abc")
        assert main([*run, "--iters", "2", "--checkpoint-every", "1",
                     "--checkpoint-path", half]) == 0
        assert main([*run, "--iters", "2", "--resume", half,
                     "--checkpoint-every", "1", "--checkpoint-path", resumed]) == 0
        assert main([*run, "--iters", "4", "--checkpoint-every", "1",
                     "--checkpoint-path", unbroken]) == 0
        assert "resuming (full state)" in capsys.readouterr().out
        got, want = (
            (ck.train_state, [a for t in ck.chunks + ck.opt_state for a in _leaves(t)])
            for ck in map(load_checkpoint_state, (resumed, unbroken))
        )
        assert got[0] == want[0] and len(got[1]) == len(want[1])
        assert all(np.array_equal(x, y) for x, y in zip(got[1], want[1]))

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


class TestExplainCLI:
    """One run surface: any run command records with ``--trace`` and
    ``explain`` reads the file."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_train_trace_then_explain(self, backend, capsys, tmp_path):
        import json

        from repro.obs import validate_chrome_trace

        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        analysis = tmp_path / "analysis.json"
        assert main([
            "train", "--strategy", "weipipe-interleave", "--world", "2",
            "--layers", "4", "--iters", "1", "--microbatches", "4",
            "--backend", backend, "--trace", str(trace),
            "--metrics-out", str(metrics),
        ]) == 0
        doc = json.loads(trace.read_text())
        assert validate_chrome_trace(doc) == []
        assert doc["metadata"]["strategy"] == "weipipe-interleave"
        names = {x["name"] for x in json.loads(metrics.read_text())["metrics"]}
        assert "fabric_bytes_total" in names
        capsys.readouterr()

        assert main(["explain", str(trace), "--analysis-out", str(analysis)]) == 0
        printed = capsys.readouterr().out
        assert "bubble ratio" in printed
        assert "2W+1D" in printed
        wall = next(l for l in printed.splitlines()
                    if l.startswith("cost model (wall)"))
        assert wall.endswith("OK)"), wall
        assert ("clock rank 0" in printed) == (backend == "process")
        a = json.loads(analysis.read_text())
        assert a["analysis"]["summary"]["ranks"] == 2
        assert a["analysis"]["per_turn"]["uniform_2w_1d"] is True
        assert a["reconciliation"]["iteration_wall"]["within_tolerance"]

    def test_explain_without_dims_skips_reconciliation(self, tmp_path, capsys):
        trace = tmp_path / "sweep.json"
        assert main([
            "chaos-sweep", "--seeds", "1", "--strategies", "weipipe-interleave",
            "--iters", "1", "--trace", str(trace),
        ]) == 0
        capsys.readouterr()
        assert main(["explain", str(trace)]) == 0
        printed = capsys.readouterr().out
        assert "reconciliation skipped" in printed
        assert "bubble ratio" in printed and "cost model" not in printed

    @pytest.mark.parametrize("content", [None, "{not json", '{"a": 1}'])
    def test_explain_bad_file_is_one_line(self, content, tmp_path):
        path = tmp_path / "t.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises(SystemExit) as exc:
            main(["explain", str(path)])
        message = str(exc.value)
        assert str(path) in message and "\n" not in message

    def test_trace_command_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "weipipe-interleave"])


class TestTraceCLI:
    """``--trace`` / ``--metrics-out`` on the run commands."""

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


class TestTopologyCLI:
    TINY = [
        "--world", "4", "--hidden", "16", "--layers", "4", "--heads", "2",
        "--seq", "8", "--vocab", "17", "--microbatches", "4", "--iters", "2",
    ]

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_train_hier_with_groups(self, backend, capsys):
        """Both wires report the per-class traffic from their metrics."""
        rc = main(["train", "--strategy", "weipipe-hier", "--groups", "2x2",
                   "--backend", backend, *self.TINY])
        assert rc == 0
        out = capsys.readouterr().out
        assert "topology=2x2 gateways=[0, 2]" in out
        assert "  inter : " in out and "  intra : " in out

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


class TestBenchCrossoverCLI:
    """One priced-wire experiment: ``bench-crossover --quick`` checks the
    structural invariants of every cell and gates no wall clock."""

    def test_five_options(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for a in sub.choices["bench-crossover"]._actions}
        assert dests - {"help"} == {
            "reps", "quick", "out", "trace_out", "metrics_out",
        }

    def test_quick_run_keeps_every_invariant(self, tmp_path, capsys):
        import json

        from repro.experiments.crossover import SCHEMA
        from repro.obs import reconcile, validate_chrome_trace

        out, trace = tmp_path / "x.json", tmp_path / "t.json"
        assert main(["bench-crossover", "--quick", "--reps", "1",
                     "--out", str(out), "--trace", str(trace)]) == 0
        report = json.loads(out.read_text())
        assert report["schema"] == SCHEMA and report["ok"] is True
        cells = {c["name"]: c for c in report["cells"]}
        ledgers = {
            name: [s["ledger"] for s in cells[name]["sides"]]
            for name in ("posting slow", "ring 2x2", "backend fast")
        }
        # placement, grouping and backend change when and how frames
        # move, never what is computed ...
        for a, b in ledgers.values():
            assert a["losses"] == b["losses"]
        # ... and placement and backend not what crosses the wire.
        for name in ("posting slow", "backend fast"):
            a, b = ledgers[name]
            assert (a["bytes"], a["messages"]) == (b["bytes"], b["messages"])
        hier, flat = (l["link_bytes"] for l in ledgers["ring 2x2"])
        assert hier["inter"] < flat["inter"]
        assert hier["intra"] == flat["intra"]
        steady = [
            s["ledger"]["steady_allocs_per_iter"]
            for c in report["cells"] for s in c["sides"]
            if s["backend"] == "process" and s["strategy"].startswith("weipipe")
        ]
        assert len(steady) == 11 and set(steady) == {0}
        # every side carries its DES prediction on the same link.
        assert all(s["sim"]["over_measured"] > 0
                   for c in report["cells"] for s in c["sides"])
        assert "sim/meas" in capsys.readouterr().out

        doc = json.loads(trace.read_text())
        assert validate_chrome_trace(doc) == []
        assert doc["metadata"]["strategy"] == "weipipe-hier"
        assert reconcile(doc)["hier_traffic"]["within_tolerance"]
