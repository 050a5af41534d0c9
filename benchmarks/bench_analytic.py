"""Regenerate the paper's §4.4 analytic comparison (bubble ratio / TBW).

Prints the closed-form bubble ratios and per-link bandwidth demands for
the strategy zoo across the evaluation grid, next to the DES-measured
values with communication priced in.
"""

from dataclasses import replace

from conftest import save_and_print

from repro.experiments.configs import exec_for, make_dims, table2_cluster
from repro.sim import run_cell
from repro.sim.analytic import (
    activation_pp_bandwidth,
    bubble_ratio_1f1b,
    bubble_ratio_weipipe_interleave,
    bubble_ratio_weipipe_naive,
    weipipe_turn_bandwidth,
    weipipe_turn_time,
)
from repro.sim.costmodel import CostModel


def _run():
    cluster = table2_cluster()
    lines = [
        "Analytic comparison (paper section 4.4)",
        f"{'H':>5} {'S':>6} | {'bub 1F1B':>9} {'bub WPi':>9} {'bub WPn':>9}"
        f" | {'BW act MB/s':>12} {'BW ring MB/s':>12}"
        f" | {'turn ovl ms':>11} {'turn ser ms':>11}",
    ]
    checks = []
    for h, s, g in [(1024, 4096, 16), (2048, 8192, 8), (4096, 16384, 4)]:
        dims = make_dims(h, s, g, cluster.world_size)
        exec_cfg = exec_for("weipipe-interleave")
        cm = CostModel(dims, cluster.gpu, exec_cfg)
        t_f, t_b = cm.op_means("weipipe-interleave", cluster.world_size)
        b_f1 = bubble_ratio_1f1b(cluster.world_size, dims.n_microbatches, t_f, t_b)
        b_wi = bubble_ratio_weipipe_interleave(cluster.world_size, dims.n_microbatches, t_f, t_b)
        b_wn = bubble_ratio_weipipe_naive(cluster.world_size, dims.n_microbatches, t_f, t_b)
        bw_a = activation_pp_bandwidth(dims, cluster) / 1e6
        bw_w = weipipe_turn_bandwidth(dims, cluster) / 1e6
        # the overlap term A/B: same turn priced with posted-early
        # transfers (max) vs blocking boundaries (sum)
        t_ovl = weipipe_turn_time(dims, cluster, replace(exec_cfg, overlap=True))
        t_ser = weipipe_turn_time(dims, cluster, replace(exec_cfg, overlap=False))
        lines.append(
            f"{h:>5} {s:>6} | {b_f1:>9.3f} {b_wi:>9.3f} {b_wn:>9.3f}"
            f" | {bw_a:>12.0f} {bw_w:>12.0f}"
            f" | {t_ovl * 1e3:>11.1f} {t_ser * 1e3:>11.1f}"
        )
        checks.append((b_f1, b_wi, b_wn, bw_a, bw_w, t_ovl, t_ser, t_f + t_b))
    return "\n".join(lines), checks


def test_analytic_comparison(benchmark, results_dir):
    text, checks = benchmark.pedantic(_run, rounds=1, iterations=1)
    save_and_print(results_dir, "analytic", text)
    for b_f1, b_wi, b_wn, bw_a, bw_w, t_ovl, t_ser, compute in checks:
        # paper: 1F1B ~= Interleave << Naive
        assert abs(b_f1 - b_wi) < 0.1
        assert b_wn > b_wi
        # overlap term: hiding a leg can only help, and the overlapped
        # turn can never beat its compute floor
        assert t_ovl <= t_ser
        assert t_ovl >= compute
    # raw-bandwidth crossover: the ring needs less bandwidth than
    # activations at H=1024 (G*S >> 36 H per 2-layer slot) but *more* at
    # H=4096 with G=4 — there WeiPipe's win comes from overlap, not
    # volume (see EXPERIMENTS.md).
    assert checks[0][4] < checks[0][3]
    assert checks[-1][4] > checks[-1][3]
