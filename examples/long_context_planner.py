"""Pick a parallelism strategy for a long-context training job.

The paper's motivating scenario: you must train a multi-billion
parameter model with a long context on whatever cluster you have, and
the right parallelism strategy depends on where the communication
bottleneck sits.  This example drives the real planner (``repro.plan``,
the engine behind ``python -m repro plan``): it enumerates the full
strategy × degree × microbatch space for one workload on three cluster
types, prunes on the analytic memory model, ranks by the simulator's
tokens/s, and — for the slow-wire cluster, where the
answer is interesting — validates the top pick with a live traced run
gated by the cost-model reconciliation.

    python examples/long_context_planner.py
"""

from repro.plan import (
    ClusterSpec,
    ModelSpec,
    PlanSpec,
    SearchSpace,
    build_report,
    format_report,
    search,
    validate_candidate,
)

# ---- edit your job here -----------------------------------------------------
MODEL = ModelSpec(
    hidden=4096,     # ~3B parameters at 16 layers; at a 128K context the
    n_layers=16,     # activations, not the weights, dominate both memory
    seq_len=131072,  # and wire traffic -- the regime the paper targets
    n_heads=32,
    global_batch_sequences=128,  # sequences/iteration, equal for every config
)
WORLD = 16
BUDGET = 60 * 2**30  # per-GPU budget the pruner enforces
# -----------------------------------------------------------------------------

CLUSTERS = {
    "NVLink servers + fast inter-server": ClusterSpec(
        preset="nvlink", world=WORLD, gpus_per_node=8,
        memory_budget_bytes=BUDGET,
    ),
    "PCIe servers + 10GbE": ClusterSpec(
        preset="pcie-eth", world=WORLD, gpus_per_node=4,
        memory_budget_bytes=BUDGET,
    ),
    "4 nodes on a ~1Gb/s wire": ClusterSpec(
        preset="custom", world=WORLD, gpus_per_node=4,
        inter_bandwidth=1e8, memory_budget_bytes=BUDGET,
    ),
}

SPACE = SearchSpace(microbatch_sizes=(1, 2))


def main() -> None:
    print(f"model: H={MODEL.hidden} L={MODEL.n_layers} S={MODEL.seq_len} "
          f"({MODEL.hidden ** 2 * 12 * MODEL.n_layers / 1e9:.1f}B params) "
          f"on {WORLD} GPUs, {BUDGET / 2**30:.0f} GiB budget\n")

    for name, cluster in CLUSTERS.items():
        spec = PlanSpec(model=MODEL, cluster=cluster, space=SPACE)
        result = search(spec)
        print(f"=== {name} ===")
        print(format_report(build_report(spec, result), top=5))
        print()

    # the interesting cluster: a slow inter-node wire is where the weight
    # ring earns its keep.  Close the loop on its winner for real.
    spec = PlanSpec(model=MODEL, cluster=CLUSTERS["4 nodes on a ~1Gb/s wire"],
                    space=SPACE)
    result = search(spec)
    top = result.feasible[0]
    print(f"validating top pick ({top.candidate.strategy}) live ...")
    verdict = validate_candidate(top, spec)
    wall = verdict["reconcile"]["iteration_wall"]
    print(f"  gate={verdict['gate']} passed={verdict['passed']} "
          f"(predicted {wall['predicted_s'] * 1e3:.1f} ms, "
          f"measured {wall['measured_s'] * 1e3:.1f} ms, "
          f"tol {wall['tolerance_factor']:.0f}x)")


if __name__ == "__main__":
    main()
