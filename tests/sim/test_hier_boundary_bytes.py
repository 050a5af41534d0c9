"""The simulator's hierarchical ring moves the bytes the runtime moves.

On a 2x2 cluster at P = 4, the DES's group-boundary hops must carry,
per iteration, exactly the weight crossings the runtime counts — a full
slot while the tag's turn is within the first revolution, a
``WREF_NBYTES`` reference after — and one full D per boundary hop.  The
runtime's last hop brings every slot home before the update pass
(``t == total``), so the DES needs that homing hop too.
"""

from repro.core.weipipe import train_weipipe
from repro.runtime import WREF_NBYTES, Topology
from repro.sim import WorkloadDims, pcie_ethernet_cluster
from repro.sim.schedules import build_weipipe
from repro.testing import default_differential_spec

WORLD = 4


def test_des_boundary_bytes_equal_the_runtime_crossings():
    spec = default_differential_spec()
    run = train_weipipe(spec, WORLD, topology=Topology.grid(WORLD, "2x2"))
    cfg = spec.cfg
    dims = WorkloadDims(
        hidden=cfg.hidden, n_layers=cfg.n_layers, seq_len=cfg.seq_len,
        microbatch=spec.microbatch_size, n_microbatches=spec.n_microbatches,
        n_heads=cfg.n_heads, vocab=cfg.vocab,
    )
    cluster = pcie_ethernet_cluster(WORLD, gpus_per_node=2)
    built = build_weipipe("interleave", dims, cluster, hier=True)
    lps = dims.n_layers // WORLD
    w_bytes = built.cost.weight_chunk_bytes(lps)
    d_bytes = built.cost.wgrad_chunk_bytes(lps)

    boundary = {"AW": 0, "AD": 0}
    for task in built.graph.tasks.values():
        kind = task.id[0]
        src, dst = task.meta.get("src"), task.meta.get("dst")
        if kind in boundary and cluster.node_of(src) != cluster.node_of(dst):
            boundary[kind] += task.meta["nbytes"]

    full = run.extra["inter_full_sends"] / spec.iters
    refs = run.extra["inter_ref_sends"] / spec.iters
    assert full > 0 and refs > 0
    assert boundary["AW"] == full * w_bytes + refs * WREF_NBYTES
    # each boundary hop carries both weight flows and one D
    assert boundary["AD"] == (full + refs) / 2 * d_bytes
