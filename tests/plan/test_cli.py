"""The ``plan`` CLI subcommand: flags, spec files, exit codes, artefact."""

import json

import pytest

from repro.cli import main
from repro.plan import validate_plan_report


def _flags(*extra):
    return [
        "plan", "--preset", "single-node", "--world", "4",
        "--hidden", "512", "--layers", "8", "--seq-len", "2048",
        "--heads", "4", "--vocab", "1024", "--global-batch", "64",
        "--microbatches", "1,2", *extra,
    ]


class TestPlanCommand:
    def test_flags_only_no_validate(self, capsys):
        rc = main(_flags("--no-validate"))
        out = capsys.readouterr().out
        assert rc == 0
        assert "feasible" in out
        assert "validation: not run" in out

    def test_writes_schema_valid_report(self, tmp_path, capsys):
        out_path = tmp_path / "plan.json"
        rc = main(_flags("--no-validate", "--out", str(out_path)))
        assert rc == 0
        report = json.loads(out_path.read_text())
        assert validate_plan_report(report) == []
        assert report["validation"] == {"ran": False}

    def test_live_validation_verdict_in_report(self, tmp_path, capsys):
        out_path = tmp_path / "plan.json"
        rc = main(_flags(
            "--strategies", "1f1b,weipipe-interleave",
            "--out", str(out_path),
        ))
        out = capsys.readouterr().out
        assert rc == 0
        assert "validation (" in out and "PASS" in out
        report = json.loads(out_path.read_text())
        assert validate_plan_report(report) == []
        assert report["validation"]["ran"] is True
        assert report["validation"]["passed"] is True

    def test_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "model": {"hidden": 512, "n_layers": 8, "seq_len": 2048,
                      "n_heads": 4, "vocab": 1024,
                      "global_batch_sequences": 64},
            "cluster": {"preset": "single-node", "world": 4},
            "space": {"microbatch_sizes": [1]},
        }))
        rc = main(["plan", "--spec", str(spec_path), "--no-validate"])
        assert rc == 0

    def test_bad_spec_is_exit_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"model": {"hiden": 1}}))
        rc = main(["plan", "--spec", str(spec_path)])
        assert rc == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_nothing_fits_is_exit_1(self, capsys):
        rc = main(_flags("--memory-budget-gib", "0.0001", "--no-validate"))
        assert rc == 1
        assert "no feasible configuration" in capsys.readouterr().err

    def test_strategy_subset_respected(self, tmp_path):
        out_path = tmp_path / "plan.json"
        rc = main(_flags("--no-validate", "--strategies", "1f1b,fsdp",
                         "--out", str(out_path)))
        assert rc == 0
        report = json.loads(out_path.read_text())
        assert {c["strategy"] for c in report["candidates"]} <= {"1f1b", "fsdp"}

    def test_unknown_strategy_is_exit_2(self, capsys):
        rc = main(_flags("--strategies", "warp-drive"))
        assert rc == 2
        assert "no memory model" in capsys.readouterr().err

    def test_fsdp_pick_prints_its_reconcile_verdict(self, capsys):
        """An fsdp pick's trace carries F / B spans: its live run is gated
        by reconcile() and the report prints that verdict."""
        rc = main(_flags("--strategies", "fsdp"))
        out = capsys.readouterr().out
        assert rc == 0
        assert "validation (fsdp @ world " in out
        assert "PASS — wall predicted" in out
