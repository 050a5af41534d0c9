"""``bench-overlap``: the zero-copy ring's microbenchmark harness.

Measures the ring's early posting placement (``overlap=True``: receives
posted and W forwarded ahead of compute — DESIGN.md §10) against the
late one (``overlap=False``: receive, compute, send) on the *same
machine with the same seeds* — one turn loop, arena-backed weights and
pooled buffers on both sides — and emits one JSON artefact
(``BENCH_overlap.json``) with:

* tokens/s and wall-clock for both placements ("sync" / "overlap"
  rows), and their ratio;
* logical bytes moved and message counts (identical by construction —
  placement changes *when* traffic happens, never *what*);
* per-placement wire-wait vs compute seconds (summed over ranks) and
  the derived overlap efficiency;
* buffer-pool counters and the per-iteration allocation trace, whose
  steady-state growth must be **zero** (the allocation-regression gate);
* a bit-exactness verdict: both placements must produce identical losses.

Two wires are measured:

* the **reference wire** — a :class:`~repro.runtime.Fabric` with a
  seeded delay-only policy (no drops, no duplicates), emulating the
  communication-bound links the paper targets.  Here late posting
  exposes the full link delay plus the sender's compute on every hop of
  the serial gradient-ring chain, while early posting moves the W
  transfers a turn ahead so only ``delay + accumulate`` remains on it;
* a **zero-latency control** — the plain in-process fabric, where the
  host is compute-bound and both placements do the same work, so there
  is no structural headroom to claim.

The in-process fabric runs every rank as a thread of one interpreter,
so wall-clock on the control wire is pinned to total Python compute;
the reference wire is where overlap structurally matters, exactly as on
real clusters where WeiPipe's win grows with the comm/compute ratio.

Since v2 the artefact also carries a **backend comparison**: the overlap
engine on a P>=4 weak-scaling configuration under the thread transport
(GIL-shared ranks, structural CRC framing per hop) and the process
transport (one process per rank, shared-memory rings, arena-backed
buffers shipped as zero-copy descriptors).  Both must be bit-exact; the
process backend must be strictly faster on this configuration — its
per-hop cost is a ~hundred-byte descriptor frame, independent of the
model size the thread wire's integrity walk has to digest twice.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, Optional

from ..nn import FP32, FP64, ModelConfig
from ..nn.params import BufferPool
from ..parallel.common import TrainSpec
from ..runtime import ChaosPolicy, Fabric

__all__ = [
    "SCHEMA",
    "REFERENCE_CONFIG",
    "BACKEND_CONFIG",
    "run_overlap_comparison",
    "run_backend_comparison",
]

#: artefact schema tag — bump on any shape change (CI checks it).
SCHEMA = "repro.bench_overlap/v2"

#: the acceptance gate's reference configuration: a 2-worker interleave
#: ring, 16 tiny layers, 16 microbatches, fp64 end to end, on a seeded
#: 0-6 ms delay wire.
REFERENCE_CONFIG: Dict = dict(
    hidden=16,
    n_layers=16,
    n_heads=2,
    seq_len=16,
    vocab=16,
    world=2,
    n_microbatches=16,
    microbatch_size=1,
    iters=3,
    seed=7,
    mode="interleave",
    precision="fp64",
    link_delay_s=0.006,
    chaos_seed=1,
)

#: the backend comparison's weak-scaling configuration: a 4-worker
#: interleave ring with a payload-heavy model (hidden 64), fp64, on a
#: seeded 0-3 ms delay wire.  Four iterations: the process backend's
#: per-rank pools (and its shared arena) need the first circulation to
#: warm, so the steady-state allocation gate reads the last two.
BACKEND_CONFIG: Dict = dict(
    hidden=64,
    n_layers=16,
    n_heads=2,
    seq_len=16,
    vocab=16,
    world=4,
    n_microbatches=16,
    microbatch_size=1,
    iters=4,
    seed=7,
    mode="interleave",
    precision="fp64",
    link_delay_s=0.003,
    chaos_seed=1,
)


def _pool_dict(fabric) -> Optional[Dict]:
    """Pool counters of one run: thread fabrics expose the shared pool
    object, transports expose the merged per-rank dict after launch."""
    shared = getattr(fabric, "shared_pool", None)
    if callable(shared):
        return shared(BufferPool).as_dict()
    return getattr(fabric, "pool", None)


def _measure(
    spec: TrainSpec,
    world: int,
    mode: str,
    overlap: bool,
    make_fabric: Callable[[], Fabric],
    reps: int,
) -> Dict:
    """Best-of-``reps`` wall clock for one engine on one wire.

    ``make_fabric`` may return a :class:`~repro.runtime.Fabric` (thread
    backend) or a :class:`~repro.runtime.Transport` (process backend) —
    both expose ``stats`` after the run.
    """
    from ..core.weipipe import train_weipipe

    best: Optional[Dict] = None
    for _ in range(reps):
        fabric = make_fabric()
        t0 = perf_counter()
        result = train_weipipe(spec, world, mode=mode, fabric=fabric, overlap=overlap)
        wall = perf_counter() - t0
        if best is None or wall < best["wall_s"]:
            tokens = (
                spec.iters
                * spec.n_microbatches
                * spec.microbatch_size
                * spec.cfg.seq_len
            )
            pool = _pool_dict(fabric)
            allocs = result.extra["pool_allocs_by_iter"]
            wire_wait = sum(result.extra["wire_wait_s"].values())
            compute = sum(result.extra["compute_s"].values())
            best = {
                "wall_s": wall,
                "tokens_per_s": tokens / wall,
                "bytes_moved": fabric.stats.bytes_total,
                "messages": fabric.stats.messages,
                "wire_wait_s": wire_wait,
                "compute_s": compute,
                # rank-seconds stalled on the wire per rank-second of
                # compute: the harness's overlap-efficiency measure
                # (lower = the wire hides better under compute).
                "wire_wait_per_compute": (wire_wait / compute) if compute else 0.0,
                "pool": pool,
                "pool_allocs_by_iter": list(allocs),
                # fresh pool buffers acquired by the final iteration:
                # must be 0 once warm (the allocation-regression gate).
                "steady_state_allocs_per_iter": (
                    allocs[-1] - allocs[-2] if len(allocs) >= 2 else None
                ),
                "losses": list(result.losses),
            }
    assert best is not None
    return best


def run_backend_comparison(
    hidden: int = 64,
    n_layers: int = 16,
    n_heads: int = 2,
    seq_len: int = 16,
    vocab: int = 16,
    world: int = 4,
    n_microbatches: int = 16,
    microbatch_size: int = 1,
    iters: int = 4,
    seed: int = 7,
    mode: str = "interleave",
    precision: str = "fp64",
    link_delay_s: float = 0.003,
    chaos_seed: int = 1,
    reps: int = 2,
) -> Dict:
    """Overlap placement, thread transport vs process transport, same seeds.

    Defaults are :data:`BACKEND_CONFIG`.  Returns the per-backend section
    of the v2 artefact: tokens/s and pool counters per backend, the
    process/thread throughput ratio, and the bit-exactness and traffic
    verdicts (both must hold — the backend changes how frames move, never
    what is computed).
    """
    from ..runtime.transport import ProcessTransport

    cfg = ModelConfig(
        hidden=hidden, n_layers=n_layers, n_heads=n_heads,
        seq_len=seq_len, vocab=vocab,
    )
    spec = TrainSpec(
        cfg=cfg, n_microbatches=n_microbatches,
        microbatch_size=microbatch_size, iters=iters, seed=seed,
        precision={"fp32": FP32, "fp64": FP64}[precision],
    )
    policy = None
    if link_delay_s:
        policy = ChaosPolicy(
            seed=chaos_seed, delay_prob=1.0, max_delay=link_delay_s,
            drop_prob=0.0, duplicate_prob=0.0,
        )

    def thread_wire() -> Fabric:
        return Fabric(world, policy=policy, timeout=240.0)

    thread = _measure(spec, world, mode, True, thread_wire, reps)
    proc = _measure(
        spec, world, mode, True, lambda: ProcessTransport(policy=policy), reps
    )
    return {
        "config": {
            "hidden": hidden, "n_layers": n_layers, "n_heads": n_heads,
            "seq_len": seq_len, "vocab": vocab, "world": world,
            "n_microbatches": n_microbatches,
            "microbatch_size": microbatch_size, "iters": iters,
            "seed": seed, "mode": mode, "precision": precision,
            "link_delay_s": link_delay_s, "chaos_seed": chaos_seed,
            "reps": reps,
        },
        "thread": thread,
        "process": proc,
        "process_over_thread_tokens_per_s": (
            proc["tokens_per_s"] / thread["tokens_per_s"]
        ),
        "losses_equal": thread["losses"] == proc["losses"],
        "bytes_equal": thread["bytes_moved"] == proc["bytes_moved"],
    }


def run_overlap_comparison(
    hidden: int = 16,
    n_layers: int = 16,
    n_heads: int = 2,
    seq_len: int = 16,
    vocab: int = 16,
    world: int = 2,
    n_microbatches: int = 16,
    microbatch_size: int = 1,
    iters: int = 3,
    seed: int = 7,
    mode: str = "interleave",
    precision: str = "fp64",
    link_delay_s: float = 0.006,
    chaos_seed: int = 1,
    reps: int = 3,
    zero_latency_control: bool = True,
    backend: str = "thread",
    backend_config: Optional[Dict] = None,
    trace_path: Optional[str] = None,
    metrics_path: Optional[str] = None,
) -> Dict:
    """Run the sync-vs-overlap comparison; return the JSON-ready report.

    Defaults are :data:`REFERENCE_CONFIG`.  ``link_delay_s`` is the
    reference wire's maximum per-message hold-back (uniform in
    ``[0, link_delay_s]``, deterministic per message in ``chaos_seed``).

    ``backend="process"`` additionally runs the thread-vs-process backend
    comparison (on :data:`BACKEND_CONFIG`, or ``backend_config``
    overrides) and attaches it as the report's ``backends`` section.

    ``trace_path`` / ``metrics_path`` record one *extra* traced run of
    the overlap placement on the reference wire after the timed
    measurements — the timed runs themselves stay untraced so the
    benchmark numbers are never perturbed by the recorder.
    """
    if backend not in ("thread", "process"):
        raise ValueError(f"unknown backend {backend!r}")
    cfg = ModelConfig(
        hidden=hidden, n_layers=n_layers, n_heads=n_heads,
        seq_len=seq_len, vocab=vocab,
    )
    spec = TrainSpec(
        cfg=cfg, n_microbatches=n_microbatches,
        microbatch_size=microbatch_size, iters=iters, seed=seed,
        precision={"fp32": FP32, "fp64": FP64}[precision],
    )
    policy = ChaosPolicy(
        seed=chaos_seed, delay_prob=1.0, max_delay=link_delay_s,
        drop_prob=0.0, duplicate_prob=0.0,
    )

    def delay_wire() -> Fabric:
        return Fabric(world, policy=policy, timeout=120.0)

    report: Dict = {
        "schema": SCHEMA,
        "config": {
            "hidden": hidden, "n_layers": n_layers, "n_heads": n_heads,
            "seq_len": seq_len, "vocab": vocab, "world": world,
            "n_microbatches": n_microbatches,
            "microbatch_size": microbatch_size, "iters": iters,
            "seed": seed, "mode": mode, "precision": precision, "reps": reps,
        },
        "wire": {
            "kind": "seeded-delay",
            "link_delay_s": link_delay_s,
            "chaos_seed": chaos_seed,
        },
    }

    sync = _measure(spec, world, mode, False, delay_wire, reps)
    ovl = _measure(spec, world, mode, True, delay_wire, reps)
    report["sync"] = sync
    report["overlap"] = ovl
    report["speedup_tokens_per_s"] = ovl["tokens_per_s"] / sync["tokens_per_s"]
    report["losses_equal"] = sync["losses"] == ovl["losses"]
    report["bytes_equal"] = sync["bytes_moved"] == ovl["bytes_moved"]

    if zero_latency_control:
        z_sync = _measure(spec, world, mode, False, lambda: Fabric(world), reps)
        z_ovl = _measure(spec, world, mode, True, lambda: Fabric(world), reps)
        report["zero_latency"] = {
            "sync": z_sync,
            "overlap": z_ovl,
            "speedup_tokens_per_s": (
                z_ovl["tokens_per_s"] / z_sync["tokens_per_s"]
            ),
            "losses_equal": z_sync["losses"] == z_ovl["losses"],
        }

    if backend == "process":
        report["backends"] = run_backend_comparison(
            **{**BACKEND_CONFIG, "reps": min(reps, 2), **(backend_config or {})}
        )

    if trace_path is not None or metrics_path is not None:
        from ..core.weipipe import train_weipipe
        from ..obs import Tracer, trace_metadata

        tracer = Tracer(metadata=trace_metadata(
            f"weipipe-{mode}", world, spec, mode=mode, wire=report["wire"],
        )) if trace_path is not None else None
        fabric = Fabric(world, policy=policy, timeout=120.0, tracer=tracer)
        train_weipipe(spec, world, mode=mode, fabric=fabric, overlap=True)
        if trace_path is not None:
            tracer.dump(trace_path)
            report["trace_path"] = trace_path
        if metrics_path is not None:
            fabric.metrics.dump(metrics_path)
            report["metrics_path"] = metrics_path
    return report
