"""The repro.plan/v2 report: build, schema gate, rendering."""

import copy
import functools

from repro.plan import (
    PLAN_SCHEMA,
    PlanSpec,
    build_report,
    format_report,
    search,
    validate_plan_report,
)
from repro.plan.spec import ClusterSpec, ModelSpec, SearchSpace


@functools.lru_cache(maxsize=None)
def _searched():
    spec = PlanSpec(
        model=ModelSpec(hidden=512, n_layers=8, seq_len=2048, n_heads=4,
                        vocab=1024, global_batch_sequences=64),
        cluster=ClusterSpec(preset="pcie-eth", world=8, gpus_per_node=4,
                            memory_budget_bytes=2**30),
        space=SearchSpace(microbatch_sizes=(1, 2)),
    )
    return build_report(spec, search(spec))


def _report():
    return copy.deepcopy(_searched())


class TestBuild:
    def test_valid_by_construction(self):
        report = _report()
        assert report["schema"] == PLAN_SCHEMA
        assert validate_plan_report(report) == []

    def test_ranks_are_contiguous(self):
        report = _report()
        assert [c["rank"] for c in report["candidates"]] == list(
            range(1, len(report["candidates"]) + 1)
        )

    def test_ledger_matches_lists(self):
        report = _report()
        assert report["search"]["feasible"] == len(report["candidates"])
        assert report["search"]["total"] >= (
            report["search"]["feasible"] + report["search"]["memory_rejected"]
        )

    def test_rejected_sample_is_worst_first_and_annotated(self):
        report = _report()
        sample = report["rejected_sample"]
        assert sample, "spec chosen to produce memory rejects"
        peaks = [r["peak_memory_bytes"] for r in sample]
        assert peaks == sorted(peaks, reverse=True)
        for r in sample:
            assert r["reason"] == "memory"
            assert r["over_budget_bytes"] > 0

    def test_validation_defaults_to_not_ran(self):
        assert _report()["validation"] == {"ran": False}


class TestSchemaGate:
    def test_wrong_schema_tag(self):
        report = _report()
        report["schema"] = "repro.plan/v0"
        assert any("schema" in p for p in validate_plan_report(report))

    def test_v1_report_is_rejected_by_name(self):
        report = _report()
        report["schema"] = "repro.plan/v1"
        assert any(
            "'repro.plan/v1'" in p and PLAN_SCHEMA in p
            for p in validate_plan_report(report)
        )

    def test_rows_carry_no_label_axes(self):
        for c in _report()["candidates"]:
            assert not {"overlap", "grouping", "backend"} & set(c)

    def test_duplicate_configuration(self):
        report = _report()
        first, second = report["candidates"][:2]
        second.update({
            k: first[k]
            for k in ("strategy", "degree", "dp", "microbatch", "precision")
        })
        assert any("duplicate" in p for p in validate_plan_report(report))

    def test_missing_top_level_key(self):
        report = _report()
        del report["search"]
        assert any("search" in p for p in validate_plan_report(report))

    def test_bad_rank(self):
        report = _report()
        report["candidates"][0]["rank"] = 7
        assert any("rank" in p for p in validate_plan_report(report))

    def test_unsorted_candidates(self):
        report = _report()
        report["candidates"][0]["predicted"]["tokens_per_s_per_gpu"] = 1e-9
        assert any("sorted" in p for p in validate_plan_report(report))

    def test_nonpositive_throughput(self):
        report = _report()
        report["candidates"][-1]["predicted"]["tokens_per_s_per_gpu"] = 0.0
        assert any("must be > 0" in p for p in validate_plan_report(report))

    def test_ran_validation_needs_verdict_fields(self):
        report = _report()
        report["validation"] = {"ran": True}
        problems = validate_plan_report(report)
        for key in ("strategy", "world", "passed", "reconcile"):
            assert any(key in p for p in problems)

    def test_max_errors_caps_output(self):
        report = _report()
        for c in report["candidates"]:
            del c["predicted"]
        assert len(validate_plan_report(report, max_errors=5)) == 5

    def test_not_an_object(self):
        assert validate_plan_report([]) == ["report is not a JSON object"]


class TestFormat:
    def test_mentions_counts_and_top(self):
        report = _report()
        text = format_report(report, top=3)
        assert "feasible" in text
        assert f"in {report['search']['wall_s']:.2f} s" in text
        assert report["candidates"][0]["strategy"] in text
        assert "validation: not run" in text

    def test_renders_validation_verdict(self):
        report = _report()
        report["validation"] = {
            "ran": True, "strategy": "weipipe-hier", "world": 4,
            "passed": True,
            "reconcile": {"iteration_wall": {
                "predicted_s": 0.1, "measured_s": 0.05, "ratio": 0.5,
                "within_tolerance": True, "tolerance_factor": 3.0,
            }},
        }
        text = format_report(report)
        assert "PASS" in text and "weipipe-hier" in text
