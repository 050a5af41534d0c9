"""The priced-wire crossover's table and gates, without training.

``bench-crossover --quick`` (tests/test_cli.py) shows that a correct
runtime passes every structural check; these tests show that each check
fails when its invariant is broken, that the table races what it says it
races, and that the printed report names what failed.
"""

import pytest

from repro.experiments.crossover import (
    LINKS,
    POINTS,
    QUICK_POINTS,
    SWEEP,
    WORLD,
    Cell,
    _checks,
    cells,
    format_report,
)


def _ledger(losses=(1.0, 0.5), nbytes=100, messages=4, link_bytes=None, steady=0):
    return {
        "bytes": nbytes, "messages": messages,
        "link_bytes": link_bytes or {"intra": nbytes},
        "losses": list(losses), "steady_allocs_per_iter": steady,
    }


def _cell(name):
    return next(c for c in cells(quick=True) if c.name == name)


def _shape(side):
    spec = side.spec
    return spec.cfg, spec.microbatch_size, spec.n_microbatches, spec.iters


@pytest.mark.parametrize("quick, points", [(True, QUICK_POINTS), (False, POINTS)])
def test_table_is_the_sweep_then_three_comparisons(quick, points):
    table = cells(quick)
    sweep = [f"G={g} {link}" for link in LINKS for g in points]
    assert [c.name for c in table] == [
        *sweep, "posting slow", "ring 2x2", "backend fast",
    ]
    for cell in table[:len(sweep)]:
        assert tuple(s.strategy for s in cell.sides) == SWEEP
        assert {s.world for s in cell.sides} == {WORLD}
        assert {s.backend for s in cell.sides} == {"process"}
        assert {s.spec.microbatch_size for s in cell.sides} == {
            int(cell.name.split()[0][2:])
        }


def test_verdicts_sit_at_the_slow_links_ends():
    expect = {c.name: c.expect for c in cells()}
    lo, mid, hi = POINTS
    assert expect[f"G={lo} slow"] == "slower"
    assert expect[f"G={hi} slow"] == "faster"
    assert expect[f"G={mid} slow"] is None
    assert all(v is None for k, v in expect.items()
               if not k.endswith(" slow") or k == f"G={mid} slow")


def test_each_comparison_changes_one_axis():
    early, late = _cell("posting slow").sides
    assert (early.overlap, late.overlap) == (True, False)
    assert early.strategy == late.strategy and _shape(early) == _shape(late)
    assert early.topology is late.topology

    hier, flat = _cell("ring 2x2").sides
    assert (hier.strategy, flat.strategy) == ("weipipe-hier", "weipipe-interleave")
    assert _shape(hier) == _shape(flat)
    assert hier.topology is flat.topology and hier.topology.n_groups == 2
    assert hier.topology.link_class(0, 2) == "inter"

    proc, thread = _cell("backend fast").sides
    assert (proc.backend, thread.backend) == ("process", "thread")
    assert proc.strategy == thread.strategy and _shape(proc) == _shape(thread)
    assert proc.topology is thread.topology


def test_checks_pass_on_equal_ledgers():
    cell = Cell("c", (), checks=("losses", "bytes"))
    assert _checks(cell, [{"ledger": _ledger()}, {"ledger": _ledger()}]) == {
        "losses": True, "bytes": True, "pool-steady": True,
    }


def test_checks_catch_a_loss_or_byte_divergence():
    cell = Cell("c", (), checks=("losses", "bytes"))
    base = {"ledger": _ledger()}
    # one ulp in one loss is a divergence: the comparison is bitwise.
    drift = {"ledger": _ledger(losses=(1.0, 0.5000000000000001))}
    assert _checks(cell, [base, drift]) == {
        "losses": False, "bytes": True, "pool-steady": True,
    }
    extra_msg = {"ledger": _ledger(messages=5)}
    assert _checks(cell, [base, extra_msg])["bytes"] is False
    extra_byte = {"ledger": _ledger(nbytes=101)}
    assert _checks(cell, [base, extra_byte])["bytes"] is False


@pytest.mark.parametrize("hier, flat, ok", [
    ({"intra": 60, "inter": 10}, {"intra": 60, "inter": 40}, True),
    ({"intra": 60, "inter": 40}, {"intra": 60, "inter": 40}, False),
    ({"intra": 61, "inter": 10}, {"intra": 60, "inter": 40}, False),
    ({"intra": 60}, {"intra": 60}, False),
])
def test_cross_group_check_wants_fewer_inter_and_equal_intra_bytes(hier, flat, ok):
    cell = Cell("c", (), checks=("cross-group",))
    records = [{"ledger": _ledger(link_bytes=hier)},
               {"ledger": _ledger(link_bytes=flat)}]
    assert _checks(cell, records)["cross-group"] is ok


def test_pool_steady_fails_on_any_steady_allocation():
    cell = Cell("c", ())
    records = [{"ledger": _ledger()}, {"ledger": _ledger(steady=1)}]
    assert _checks(cell, records) == {"pool-steady": False}
    # a ledger without the field (a thread-backend side) does not count.
    thread = _ledger()
    del thread["steady_allocs_per_iter"]
    assert _checks(cell, [{"ledger": thread}]) == {"pool-steady": True}


def test_report_names_failed_checks_and_verdicts():
    def side(label, tps):
        return {"label": label, "tokens_per_s": tps, "ledger": {"bytes": 2e6},
                "sim": {"over_measured": 1.5}}

    report = {"ok": False, "cells": [{
        "name": "G=4 slow",
        "sides": [side("weipipe", [100.0, 90.0]), side("1f1b", [200.0, 80.0])],
        "ratios": {"weipipe/1f1b": [0.5, 1.125]},
        "checks": {"losses": False, "pool-steady": True},
        "verdict": {"expect": "weipipe slower than 1f1b", "held": 1, "of": 2,
                    "pass": False},
    }]}
    text = format_report(report)
    assert "FAILED checks: losses" in text
    assert "verdict: weipipe slower than 1f1b in 1/2 pairs: FAIL" in text
    assert "1/2" in text.splitlines()[2]  # pairs the first side won
    assert text.splitlines()[-1] == "ok: False"
