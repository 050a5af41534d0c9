"""Regenerate Figures 1-4: the four schedule diagrams as ASCII timelines.

The paper's circle diagrams unroll into per-worker Gantt rows.  Shapes
to eyeball (and asserted below):

* Fig. 1 (Naive): strictly sequential forward block then backward block
  per round, with inter-round bubbles;
* Fig. 2 (Interleave): after the fill ramp, every worker does combined
  forward+backward turns (``*``) until the drain;
* Fig. 3 (WZB1): uniform two-op turns, near-full occupancy;
* Fig. 4 (WZB2): one-op turns with no drain bubble (seamless handover).
"""

from conftest import save_and_print

from repro.sim import WorkloadDims, evaluate, nvlink_cluster, render_timeline, simulate
from repro.sim.costmodel import ExecConfig
from repro.sim.schedules import RING_FIGURES, build_ring_figure, build_schedule

DIMS = WorkloadDims(
    hidden=1024, n_layers=4, seq_len=4096, microbatch=4, n_microbatches=8
)
CLUSTER = nvlink_cluster(4, gpus_per_node=4)
NOREC = ExecConfig(recompute=False)


def _render_all():
    out = []
    reports = {}
    for title, built in [
        ("Figure 1: WeiPipe-Naive (P=4, two rounds)", build_schedule("weipipe-naive", DIMS, CLUSTER)),
        ("Figure 2: WeiPipe-Interleave (P=4, two rounds)", build_schedule("weipipe-interleave", DIMS, CLUSTER)),
        ("Figure 3: WeiPipe-zero-bubble 1 (WZB1)", build_ring_figure("wzb1", DIMS, CLUSTER, NOREC)),
        ("Figure 4: WeiPipe-zero-bubble 2 (WZB2)", build_ring_figure("wzb2", DIMS, CLUSTER, NOREC)),
    ]:
        sim = simulate(built.graph)
        out.append(render_timeline(built, width=96, sim=sim, title=title))
        out.append("")
        # Figures 3-4 are diagrams, not strategies: the ring that runs with
        # a split backward lends them its memory row.
        memory = "weipipe-zb" if built.name in RING_FIGURES else None
        reports[built.name] = evaluate(built, memory_strategy=memory, sim=sim)
    return "\n".join(out), reports


def test_figures_1_to_4(benchmark, results_dir):
    text, reports = benchmark.pedantic(_render_all, rounds=1, iterations=1)
    save_and_print(results_dir, "figures_1_4", text)

    bubbles = {k: round(v.bubble_ratio, 3) for k, v in reports.items()}
    benchmark.extra_info["bubble_ratios"] = bubbles
    # the ordering the paper's Figures 1-4 narrative implies
    assert bubbles["weipipe-naive"] > bubbles["weipipe-interleave"]
    assert bubbles["wzb2"] < bubbles["wzb1"]
    assert bubbles["wzb2"] < 0.12
