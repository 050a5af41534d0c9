"""The whole parallelism zoo priced on one long-context job (extra).

No direct paper analogue; this is the comparison the paper's related-
work section argues in prose: at long context on a commodity-network
cluster, weight-passing beats activation-passing pipelines, sharded data
parallelism, and especially the intra-layer schemes (TP's per-layer
activation all-reduces, gather-based SP's K/V collectives).
"""

from conftest import save_and_print

from repro.experiments.configs import exec_for
from repro.sim import WorkloadDims, pcie_ethernet_cluster, run_cell

STRATEGIES = [
    "weipipe-interleave", "weipipe-naive", "1f1b", "gpipe", "zb1",
    "fsdp", "dp", "tp", "sp",
]


def _run():
    cluster = pcie_ethernet_cluster(16, gpus_per_node=4)
    # H=4096 (the paper's 6B model): a full DP replica needs >100 GB of
    # model states, so every strategy here must actually shard something.
    dims = WorkloadDims(
        hidden=4096, n_layers=32, seq_len=16384, microbatch=4,
        n_microbatches=128,
    )
    rows, refused = [], {}
    for strat in STRATEGIES:
        try:
            rep = run_cell(strat, dims, cluster, exec_for(strat))
        except ValueError as e:  # a split the model's sizes do not divide
            refused[strat] = str(e)
            continue
        rows.append((strat, rep))
    lines = [
        "Parallelism zoo: 6B model, S=16384, 16 GPUs over PCIe+10GbE",
        f"{'strategy':>20} | {'tok/s/GPU':>10} {'mem GB':>7} {'bubble':>7}",
    ]
    for strat, rep in sorted(
        rows, key=lambda r: -r[1].tokens_per_second_per_gpu
    ):
        tput = "OOM" if rep.oom else f"{rep.tokens_per_second_per_gpu:.1f}"
        lines.append(
            f"{strat:>20} | {tput:>10} {rep.peak_memory_gb:>7.1f} "
            f"{rep.bubble_ratio:>7.3f}"
        )
    for strat, why in refused.items():
        lines.append(f"{strat:>20} | refused: {why}")
    return "\n".join(lines), dict(rows), refused


def test_parallelism_zoo(benchmark, results_dir):
    text, rows, refused = benchmark.pedantic(_run, rounds=1, iterations=1)
    save_and_print(results_dir, "parallelism_zoo", text)
    # TP splits the FFN width, 10 920 at H = 4096 (the runtime's
    # ``default_ffn``), which 16 ranks do not divide: the runtime refuses
    # that split, and so does the DES.
    assert refused == {"tp": "ffn per rank: 10920 not divisible by 16"}
    wp = rows["weipipe-interleave"].tokens_per_second_per_gpu
    for strat, rep in rows.items():
        if strat == "weipipe-interleave" or rep.oom:
            continue
        assert wp > rep.tokens_per_second_per_gpu, strat
    # intra-layer schemes are orders of magnitude off across Ethernet
    for strat in ("tp", "sp"):
        if strat in rows and not rows[strat].oom:
            assert rows[strat].tokens_per_second_per_gpu < 0.2 * wp
