"""Render the paper's four schedule diagrams (Figures 1-4) as ASCII art.

Unrolls the circle diagrams into per-worker Gantt rows: WeiPipe-Naive's
sequential rounds, Interleave's combined forward+backward turns, and the
two conceptual zero-bubble variants.

    python examples/timelines.py
"""

from repro.sim import WorkloadDims, nvlink_cluster, render_timeline
from repro.sim.costmodel import ExecConfig
from repro.sim.schedules import build_ring_figure, build_schedule

DIMS = WorkloadDims(
    hidden=1024, n_layers=4, seq_len=4096, microbatch=4, n_microbatches=8
)
CLUSTER = nvlink_cluster(4, gpus_per_node=4)
NOREC = ExecConfig(recompute=False)


def main() -> None:
    schedules = [
        ("Figure 1 — WeiPipe-Naive", build_schedule("weipipe-naive", DIMS, CLUSTER)),
        ("Figure 2 — WeiPipe-Interleave", build_schedule("weipipe-interleave", DIMS, CLUSTER)),
        ("Figure 3 — WZB1 (conceptual)", build_ring_figure("wzb1", DIMS, CLUSTER, NOREC)),
        ("Figure 4 — WZB2 (conceptual)", build_ring_figure("wzb2", DIMS, CLUSTER, NOREC)),
        ("bonus — classical 1F1B for contrast", build_schedule("1f1b", DIMS, CLUSTER)),
        ("bonus — GPipe for contrast", build_schedule("gpipe", DIMS, CLUSTER)),
    ]
    for title, built in schedules:
        print(render_timeline(built, width=96, title=title))
        print()


if __name__ == "__main__":
    main()
