"""``bench-topology``: flat vs hierarchical WeiPipe on an asymmetric wire.

Measures the flat weight ring against the two-level hierarchical ring
(:func:`repro.core.weipipe.train_weipipe` given a ``topology``) on the *same
seeded asymmetric wire* — a chaos :class:`~repro.runtime.Fabric` carrying
a :class:`~repro.runtime.Topology` whose inter-group links are orders of
magnitude slower than the intra-group ones (fast-intra / slow-inter,
the paper's PCIe+Ethernet shape).  Each message pays a deterministic
``latency + nbytes/bandwidth`` serialization for the link it rides plus
a small seeded jitter, so the 24-byte weight references the hierarchical
ring sends across boundaries genuinely cross faster than the full slots
the flat ring keeps re-sending.

One JSON artefact (``BENCH_topology.json``) with:

* tokens/s and wall clock for both rings and their ratio — the
  acceptance gate wants hierarchical >= 1.2x on the reference wire;
* per-link-class logical traffic from the fabric's topology ledger:
  cross-group bytes must be *strictly lower* for the hierarchical ring
  while intra-group bytes match the flat ring exactly (no silent
  duplication);
* a bit-exactness verdict: identical losses on both rings;
* the hierarchical ring's full-vs-reference boundary crossing counts.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, Optional

from ..nn import FP32, FP64, ModelConfig
from ..parallel.common import TrainSpec
from ..runtime import ChaosPolicy, Fabric, LinkSpec, Topology

__all__ = ["SCHEMA", "REFERENCE_CONFIG", "run_topology_comparison"]

#: artefact schema tag — bump on any shape change (CI checks it).
SCHEMA = "repro.bench_topology/v1"

#: the acceptance gate's reference configuration: a 4-worker interleave
#: ring in two groups of two, 16 tiny layers, 16 microbatches, fp64, on
#: a seeded wire whose boundary links are ~100x slower than intra links.
REFERENCE_CONFIG: Dict = dict(
    hidden=16,
    n_layers=16,
    n_heads=2,
    seq_len=16,
    vocab=16,
    world=4,
    groups="2x2",
    n_microbatches=16,
    microbatch_size=1,
    iters=3,
    seed=7,
    mode="interleave",
    precision="fp64",
    intra_bandwidth=2e9,
    intra_latency_s=2e-6,
    inter_bandwidth=2e7,
    inter_latency_s=2e-4,
    jitter_s=0.0005,
    chaos_seed=1,
)


def _measure(
    spec: TrainSpec,
    make_fabric: Callable[[], Fabric],
    runner: Callable[[TrainSpec, Fabric], object],
    reps: int,
) -> Dict:
    """Best-of-``reps`` wall clock for one ring on one wire."""
    best: Optional[Dict] = None
    for _ in range(reps):
        fabric = make_fabric()
        t0 = perf_counter()
        result = runner(spec, fabric)
        wall = perf_counter() - t0
        if best is None or wall < best["wall_s"]:
            tokens = (
                spec.iters
                * spec.n_microbatches
                * spec.microbatch_size
                * spec.cfg.seq_len
            )
            best = {
                "wall_s": wall,
                "tokens_per_s": tokens / wall,
                "bytes_moved": fabric.stats.bytes_total,
                "messages": fabric.stats.messages,
                "link_traffic": fabric.link_traffic(),
                "wire_wait_s": sum(result.extra["wire_wait_s"].values()),
                "compute_s": sum(result.extra["compute_s"].values()),
                "losses": list(result.losses),
                "extra": {
                    k: result.extra[k]
                    for k in ("inter_full_sends", "inter_ref_sends", "gateways")
                    if k in result.extra
                },
            }
    assert best is not None
    return best


def run_topology_comparison(
    hidden: int = 16,
    n_layers: int = 16,
    n_heads: int = 2,
    seq_len: int = 16,
    vocab: int = 16,
    world: int = 4,
    groups: str = "2x2",
    n_microbatches: int = 16,
    microbatch_size: int = 1,
    iters: int = 3,
    seed: int = 7,
    mode: str = "interleave",
    precision: str = "fp64",
    intra_bandwidth: float = 2e9,
    intra_latency_s: float = 2e-6,
    inter_bandwidth: float = 2e7,
    inter_latency_s: float = 2e-4,
    jitter_s: float = 0.0005,
    chaos_seed: int = 1,
    reps: int = 2,
    trace_path: Optional[str] = None,
    metrics_path: Optional[str] = None,
) -> Dict:
    """Run the flat-vs-hierarchical comparison; return the JSON report.

    Defaults are :data:`REFERENCE_CONFIG`.  ``trace_path`` /
    ``metrics_path`` record one *extra* traced run of the hierarchical
    ring after the timed measurements (with topology metadata, so
    ``repro.obs.analyze``/``reconcile`` can attribute wire waits and
    check cross-group traffic); the timed runs stay untraced.
    """
    from ..core.weipipe import train_weipipe

    cfg = ModelConfig(
        hidden=hidden, n_layers=n_layers, n_heads=n_heads,
        seq_len=seq_len, vocab=vocab,
    )
    spec = TrainSpec(
        cfg=cfg, n_microbatches=n_microbatches,
        microbatch_size=microbatch_size, iters=iters, seed=seed,
        precision={"fp32": FP32, "fp64": FP64}[precision],
    )
    intra = LinkSpec("intra-bench", bandwidth=intra_bandwidth,
                     latency=intra_latency_s)
    inter = LinkSpec("inter-bench", bandwidth=inter_bandwidth,
                     latency=inter_latency_s)
    topo = Topology.grid(world, groups, intra=intra, inter=inter)
    policy = ChaosPolicy(
        seed=chaos_seed, delay_prob=1.0, max_delay=jitter_s,
        drop_prob=0.0, duplicate_prob=0.0,
    )

    def wire(tracer=None) -> Fabric:
        return Fabric(world, policy=policy, timeout=120.0,
                      topology=topo, tracer=tracer)

    report: Dict = {
        "schema": SCHEMA,
        "config": {
            "hidden": hidden, "n_layers": n_layers, "n_heads": n_heads,
            "seq_len": seq_len, "vocab": vocab, "world": world,
            "groups": groups, "n_microbatches": n_microbatches,
            "microbatch_size": microbatch_size, "iters": iters,
            "seed": seed, "mode": mode, "precision": precision, "reps": reps,
        },
        "wire": {
            "kind": "seeded-asymmetric",
            "topology": topo.as_dict(),
            "jitter_s": jitter_s,
            "chaos_seed": chaos_seed,
        },
    }

    flat = _measure(
        spec, wire,
        lambda s, f: train_weipipe(s, world, mode=mode, fabric=f), reps,
    )
    hier = _measure(
        spec, wire,
        lambda s, f: train_weipipe(s, world, mode=mode, fabric=f, topology=topo),
        reps,
    )
    report["flat"] = flat
    report["hier"] = hier
    report["speedup_tokens_per_s"] = hier["tokens_per_s"] / flat["tokens_per_s"]
    report["losses_equal"] = flat["losses"] == hier["losses"]

    flat_lt, hier_lt = flat["link_traffic"], hier["link_traffic"]
    flat_inter = flat_lt.get("inter", {}).get("bytes", 0)
    hier_inter = hier_lt.get("inter", {}).get("bytes", 0)
    report["cross_group"] = {
        "flat_bytes": flat_inter,
        "hier_bytes": hier_inter,
        "hier_lt_flat": hier_inter < flat_inter,
        "reduction_factor": (flat_inter / hier_inter) if hier_inter else None,
    }
    report["intra_group"] = {
        "flat_bytes": flat_lt.get("intra", {}).get("bytes", 0),
        "hier_bytes": hier_lt.get("intra", {}).get("bytes", 0),
        "equal": (flat_lt.get("intra", {}).get("bytes", 0)
                  == hier_lt.get("intra", {}).get("bytes", 0)),
    }

    if trace_path is not None or metrics_path is not None:
        from ..obs import Tracer, trace_metadata

        tracer = Tracer(metadata=trace_metadata(
            "weipipe-hier", world, spec, mode=mode, topology=topo.as_dict(),
            wire={"kind": "seeded-asymmetric", "jitter_s": jitter_s,
                  "chaos_seed": chaos_seed},
        )) if trace_path is not None else None
        fabric = wire(tracer=tracer)
        train_weipipe(spec, world, mode=mode, fabric=fabric, topology=topo)
        if trace_path is not None:
            tracer.dump(trace_path)
            report["trace_path"] = trace_path
        if metrics_path is not None:
            fabric.metrics.dump(metrics_path)
            report["metrics_path"] = metrics_path
    return report
