"""Analytic peak-memory model per strategy (Table 2's "Memory (GB)").

Each function returns per-worker peak bytes; the max decides OOM against
the GPU's 80 GB.  The decisive paper finding this model must reproduce
(§6.1): with Flash Attention removing the ``S^2`` attention matrices,
*FFN activations dominate*, so the zero-bubble baselines — which cannot
recompute and must keep both the full forward caches and the B-pass
gradient bundles alive until their deferred W passes — blow past 80 GB
at ``H >= 2048`` while 1F1B/FSDP/WeiPipe (recompute on, boundary-only
storage) stay under 20 GB.

Components (see :class:`~repro.sim.costmodel.CostModel` for sizes):

========================  ====================================================
weights + grad buffers    fp16 + fp16, for the layers resident on the worker
optimizer states          fp32 master + Adam moments, for the layers *owned*
embedding / head          on stage 0 / P-1 for pipelines; riding the ring
                          (plus owner's optimizer) for WeiPipe
activation storage        schedule-dependent liveness x per-layer size
transient working set     one layer's full cache + B-grad bundle + chunked
                          logits during loss
========================  ====================================================

Pipeline liveness is read from the schedule table the functional stage
worker executes (:data:`repro.parallel.pipeline.PIPELINE_SCHEDULES`),
not restated: fused schedules (GPipe, 1F1B) are charged the walked peak
in-flight count of their :func:`~repro.parallel.pipeline.stage_program`
(``N`` resp. ``min(N, P - rank)``), split schedules (ZB1, ZB2) their
table warmup depth in full caches plus a fixed two-microbatch B-to-W
window.  ``tests/parallel/test_pipeline_program.py`` asserts both
readings against the walked programs.  The ZB terms are *calibrated to
Table 2, not to the walk*: a walked ZB program holds more than they
charge (e.g. ZB2 rank 0 at P=4, N=8 peaks at 8 pending W passes, not
2) — the residual table is in DESIGN §18, owed to ROADMAP 5(b).
WeiPipe-Interleave holds a constant ``~(P+1)/P`` model's worth of
boundaries regardless of ``P``; the ring row that splits its backward
(``weipipe-zb``) is charged the peaks walked off its turn table
(:func:`repro.core.schedule.ring_liveness`).
"""

from __future__ import annotations

from typing import List

from ..core.api import RING_STRATEGIES
from ..core.schedule import ring_liveness, ring_splits_backward
from ..parallel.pipeline import PIPELINE_SCHEDULES, splits_backward
from .costmodel import CostModel, ExecConfig, WorkloadDims
from .hardware import Cluster

__all__ = [
    "peak_memory_per_worker",
    "peak_memory",
    "fits_memory",
    "MEMORY_MODELS",
]


def _act_per_layer(cost: CostModel) -> float:
    """Stored bytes per layer per in-flight microbatch."""
    if cost.cfg.recompute:
        return cost.act_boundary_bytes()
    return cost.act_full_cache_bytes()


def _working_set(cost: CostModel, with_logits: bool) -> float:
    """Transient bytes while backwarding one layer (cache rebuilt by
    recompute or already resident) plus its B-grad bundle."""
    w = cost.act_full_cache_bytes() + cost.bgrad_cache_bytes()
    if with_logits:
        w += cost.logits_transient_bytes()
    return w


def _embed_head_bytes(cost: CostModel) -> float:
    return cost.embedding_bytes() / 2.0  # one of {embedding, head}


def _pipeline_common(cost: CostModel, dims: WorkloadDims, world: int, rank: int) -> float:
    lps = dims.n_layers // world
    total = cost.weights_resident_bytes(lps) + cost.optimizer_bytes(lps)
    if rank == 0 or rank == world - 1:
        total += _embed_head_bytes(cost)
    return total


def _stored_microbatches(schedule: str, world: int, rank: int, n_mb: int) -> int:
    """Forward-activation sets charged to pipeline stage ``rank``.

    A split schedule is charged its warmup depth; a fused one peaks one
    higher, because the first steady-state forward lands before the
    first backward frees anything.
    """
    depth, _ = PIPELINE_SCHEDULES[schedule]
    warmup = min(n_mb, depth(world, rank, n_mb))
    return warmup if splits_backward(schedule) else min(n_mb, warmup + 1)


def _mem_pipeline(dims, cluster, cost, schedule: str) -> List[float]:
    """GPipe / 1F1B / ZB1 / ZB2: stage state + stored activations.

    Split schedules cannot recompute, so they store full caches, and
    between a B pass and its W pass both the forward cache and the
    B-grad bundle stay alive.  ZB2's extra memory is modelled as its
    ~2x-deeper warmup only; the B-to-W window is a fixed 2 microbatches
    for both (see the module docstring for the residual this leaves).
    """
    world = cluster.world_size
    lps = dims.n_layers // world
    n_mb = dims.n_microbatches
    split = splits_backward(schedule)
    act = cost.act_full_cache_bytes() if split else _act_per_layer(cost)
    out = []
    for r in range(world):
        m = _pipeline_common(cost, dims, world, r)
        m += _stored_microbatches(schedule, world, r, n_mb) * lps * act
        if split:
            m += min(2, n_mb) * lps * (act + cost.bgrad_cache_bytes()) * 0.5
        m += _working_set(cost, with_logits=(r == world - 1))
        out.append(m)
    return out


def _mem_fsdp(dims, cluster, cost) -> List[float]:
    world = cluster.world_size
    per_param = (
        cost.cfg.weight_bytes
        + cost.cfg.wgrad_bytes
        + cost.cfg.optimizer_bytes_per_param
    )
    shard = dims.model_params * per_param / world
    gathered = 2 * dims.layer_params * cost.cfg.weight_bytes  # prefetch depth 2
    grad_transient = dims.layer_params * cost.cfg.wgrad_bytes
    act = _act_per_layer(cost) * dims.n_layers  # one local microbatch
    m = shard + gathered + grad_transient + act + _working_set(cost, True)
    return [m] * world


def _mem_tp(dims, cluster, cost) -> List[float]:
    """TP: 1/P of the split matrices (the vast majority of params), full
    replicated norms/embeddings, plus one local microbatch's activations
    (queries are not sharded: activation memory is NOT divided by P,
    TP's well-known weakness at long context)."""
    world = cluster.world_size
    per_param = (
        cost.cfg.weight_bytes
        + cost.cfg.wgrad_bytes
        + cost.cfg.optimizer_bytes_per_param
    )
    split = dims.layer_params * dims.n_layers * per_param / world
    replicated = 2 * dims.vocab * dims.hidden * per_param
    act = _act_per_layer(cost) * dims.n_layers
    m = split + replicated + act + _working_set(cost, True)
    return [m] * world


def _mem_sp(dims, cluster, cost) -> List[float]:
    """SP: full model replica (DP-style states) but activations divided
    by P (the technique's purpose), plus the transient gathered K/V."""
    world = cluster.world_size
    per_param = (
        cost.cfg.weight_bytes
        + cost.cfg.wgrad_bytes
        + cost.cfg.optimizer_bytes_per_param
    )
    act = _act_per_layer(cost) * dims.n_layers / world
    kv_transient = 2 * cost.act_message_bytes()
    m = (
        dims.model_params * per_param
        + act
        + kv_transient
        + _working_set(cost, True) / world
    )
    return [m] * world


def _mem_dp(dims, cluster, cost) -> List[float]:
    per_param = (
        cost.cfg.weight_bytes
        + cost.cfg.wgrad_bytes
        + cost.cfg.optimizer_bytes_per_param
    )
    act = _act_per_layer(cost) * dims.n_layers
    m = dims.model_params * per_param + act + _working_set(cost, True)
    return [m] * cluster.world_size


def _mem_weipipe(dims, cluster, cost, mode: str) -> List[float]:
    """WeiPipe: three circulating slots (2 W + D), double-buffered, plus
    owner-local optimizer state, plus the steady-state activation load.

    Interleave keeps one forwarding and one backwarding microbatch whose
    combined boundary count is ``(P+1)/P`` models' worth; Naive keeps a
    single microbatch's.  Embedding and head weights ride the ring, so
    every worker transiently holds copies; their optimizer state sits on
    their owners.
    """
    world = cluster.world_size
    lps = dims.n_layers // world
    wire = cost.cfg.weight_bytes + cost.cfg.wgrad_bytes
    slots = 2 * cost.weights_resident_bytes(lps)  # 2 W flows (w+d wire pair)
    slots += cost.wgrad_chunk_bytes(lps)
    slots *= 2  # double buffering for the prefetched next turn
    opt = cost.optimizer_bytes(lps)
    embed_ride = 2 * dims.vocab * dims.hidden * cost.cfg.weight_bytes * 2
    embed_opt = cost.embedding_bytes() / world  # owners share the extras

    act = _act_per_layer(cost)
    if mode == "interleave":
        act_live = (world + 1) / world * dims.n_layers * act
    else:
        act_live = dims.n_layers * act
    m = slots + opt + embed_ride + embed_opt + act_live + _working_set(cost, True)
    return [m] * world


def _mem_weipipe_split(dims, cluster, cost, mode: str) -> List[float]:
    """A ring row that splits its backward: interleave's slots and state,
    every stored activation a full cache (the forward cache must outlive
    the B pass), charged at the liveness *walked* off the turn table —
    the runtime's own ``peak_inflight`` / ``peak_pending_w`` ledgers.
    In-flight microbatches pair up as interleave's do (one forwarding,
    one backwarding: ``(P+1)/P`` models of caches per pair); a slot pass
    pending its W holds the cache and the B-grad bundle of its layers."""
    world = cluster.world_size
    lps = dims.n_layers // world
    # the worst worker's peaks decide OOM
    inflight, pending = map(max, zip(*ring_liveness(mode, world, dims.n_microbatches)))
    base = _mem_weipipe(dims, cluster, cost, "interleave")[0]
    full = cost.act_full_cache_bytes()
    # replace the (possibly boundary-only) interleave activation term.
    boundary_term = (world + 1) / world * dims.n_layers * _act_per_layer(cost)
    act_live = inflight / 2 * (world + 1) / world * dims.n_layers * full
    act_live += pending * lps * (full + cost.bgrad_cache_bytes())
    m = base - boundary_term + act_live
    return [m] * world


def _mem_ring(dims, cluster, cost, mode: str, hier: bool) -> List[float]:
    """One :data:`~repro.core.api.RING_STRATEGIES` row.  The two-level
    ring adds the gateway weight caches that resolve 24-byte references
    back into full slots: a gateway pins one cached copy per weight flow
    (2) of a slot's layers; non-gateway ranks carry nothing extra, but
    the *peak* worker is a gateway, which is what decides OOM."""
    model = _mem_weipipe_split if ring_splits_backward(mode) else _mem_weipipe
    base = model(dims, cluster, cost, mode)
    if not hier:
        return base
    lps = dims.n_layers // cluster.world_size
    gateway_cache = 2 * dims.layer_params * lps * cost.cfg.weight_bytes
    return [m + gateway_cache for m in base]


MEMORY_MODELS = {
    "gpipe": lambda d, c, m: _mem_pipeline(d, c, m, "gpipe"),
    "1f1b": lambda d, c, m: _mem_pipeline(d, c, m, "1f1b"),
    "zb1": lambda d, c, m: _mem_pipeline(d, c, m, "zb1"),
    "zb2": lambda d, c, m: _mem_pipeline(d, c, m, "zb2"),
    "fsdp": lambda d, c, m: _mem_fsdp(d, c, m),
    "dp": lambda d, c, m: _mem_dp(d, c, m),
    "tp": lambda d, c, m: _mem_tp(d, c, m),
    "sp": lambda d, c, m: _mem_sp(d, c, m),
    **{
        name: lambda d, c, m, row=row: _mem_ring(d, c, m, *row)
        for name, row in RING_STRATEGIES.items()
    },
}


def peak_memory_per_worker(
    strategy: str,
    dims: WorkloadDims,
    cluster: Cluster,
    exec_cfg: ExecConfig = ExecConfig(),
) -> List[float]:
    """Peak bytes per worker for ``strategy`` on this workload."""
    try:
        fn = MEMORY_MODELS[strategy]
    except KeyError:
        raise ValueError(f"no memory model for strategy {strategy!r}") from None
    cost = CostModel(dims, cluster.gpu, exec_cfg)
    return fn(dims, cluster, cost)


def peak_memory(
    strategy: str,
    dims: WorkloadDims,
    cluster: Cluster,
    exec_cfg: ExecConfig = ExecConfig(),
) -> float:
    """Worst worker's peak bytes (what decides OOM)."""
    return max(peak_memory_per_worker(strategy, dims, cluster, exec_cfg))


def fits_memory(
    strategy: str,
    dims: WorkloadDims,
    cluster: Cluster,
    exec_cfg: ExecConfig = ExecConfig(),
    budget_bytes: float = None,
) -> bool:
    """Does ``strategy`` fit a per-worker memory budget?

    This is the planner's pruning predicate and it is *exact at the
    boundary*: a config whose predicted peak equals the budget survives,
    one byte over is rejected (``peak <= budget``).  ``budget_bytes``
    defaults to the cluster GPU's HBM — the same OOM line the table
    benches draw.
    """
    if budget_bytes is None:
        budget_bytes = cluster.gpu.memory
    return peak_memory(strategy, dims, cluster, exec_cfg) <= budget_bytes
