"""Analytic peak-memory model per strategy (Table 2's "Memory (GB)").

Each function returns per-worker peak bytes; the max decides OOM against
the GPU's 80 GB.  The decisive paper finding this model must reproduce
(§6.1): with Flash Attention removing the ``S^2`` attention matrices,
*FFN activations dominate*, so the zero-bubble baselines — which run
without recomputation (``exec_for``) and keep both the full forward
caches and the B-pass gradient bundles alive until their deferred W
passes — blow past 80 GB at ``H >= 2048`` while 1F1B/FSDP/WeiPipe
(recompute on, checkpoint-only storage) stay well under it.

Components (see :class:`~repro.sim.costmodel.CostModel` for sizes):

========================  ====================================================
weights + grad buffers    fp16 + fp16, for the layers resident on the worker
optimizer states          fp32 master + Adam moments, for the layers *owned*
embedding / head          on stage 0 / P-1 for pipelines; riding the ring
                          (plus owner's optimizer) for WeiPipe
activation storage        the walked liveness of the worker's program
transient working set     one layer's full cache + B-grad bundle + chunked
                          logits during loss
========================  ====================================================

Pipelines and rings store activations exactly as their programs say:
each rank's :func:`~repro.parallel.pipeline.stage_program` or
:func:`~repro.core.schedule.ring_program` — the op lists the runtime
executes — is walked by :func:`~repro.core.schedule.liveness`, and the
rank is charged the maximum over the walk of ``held`` units of stored
activations plus ``pending`` units of full cache + B-grad bundle (a unit
is a stage's or a slot's ``L / P`` layers).  No schedule has a liveness
formula of its own (DESIGN §18, §19).  A stored activation is a full
cache, or under recomputation what the runtime's checkpoint keeps
(:meth:`~repro.sim.costmodel.CostModel.checkpoint_bytes`, read off
:mod:`repro.nn.checkpoint`) — on a split program too, whose B pass
rebuilds the cache it parks for W.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, FrozenSet, List, Tuple

from ..core.api import ZOO
from ..core.schedule import liveness, ring_program
from ..core.weipipe import RingLoop
from ..parallel.fsdp import FSDPLoop
from ..parallel.pipeline import stage_program
from ..parallel.sequence_parallel import SPLoop
from .costmodel import CostModel, ExecConfig, WorkloadDims
from .hardware import Cluster

__all__ = [
    "peak_memory_per_worker",
    "peak_memory",
    "fits_memory",
]


def _act_per_layer(cost: CostModel) -> float:
    """Stored bytes per layer per in-flight microbatch."""
    return cost.checkpoint_bytes() if cost.cfg.recompute else cost.act_full_cache_bytes()


@lru_cache(maxsize=1024)
def _walks(program: Callable, name: str, world: int, n_mb: int) -> Tuple[FrozenSet, ...]:
    """Per rank, the distinct ``(held, pending)`` states the liveness walk
    of ``program(name, world, rank, n_mb)`` passes through.  Cached: the
    planner charges every candidate."""
    return tuple(
        frozenset(liveness(program(name, world, r, n_mb))) for r in range(world)
    )


def _act_live(cost: CostModel, walks: Tuple[FrozenSet, ...], lps: int) -> List[float]:
    """Per rank, the byte-weighted peak of its program's liveness walk.

    A held unit is ``lps`` layers of stored activations.  A pending unit
    keeps its full cache and adds the B-grad bundle.
    """
    act = _act_per_layer(cost)
    pend = cost.act_full_cache_bytes() + cost.bgrad_cache_bytes()
    return [
        max((h * lps * act + p * lps * pend for h, p in states), default=0.0)
        for states in walks
    ]


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


def _mem_pipeline(dims, cluster, cost, schedule: str) -> List[float]:
    """GPipe / 1F1B / ZB1 / ZB2: stage state + the walked activations of
    each stage's program + the working set."""
    world = cluster.world_size
    lps = dims.n_layers // world
    walks = _walks(stage_program, schedule, world, dims.n_microbatches)
    acts = _act_live(cost, walks, lps)
    return [
        _pipeline_common(cost, dims, world, r)
        + act
        + _working_set(cost, with_logits=(r == world - 1))
        for r, act in enumerate(acts)
    ]


def _mem_fsdp(dims, cluster, cost) -> List[float]:
    """FSDP: the rank's shard of the model's states, plus two adjacent
    gathered chunks (prefetch depth 2) and one chunk's gradient before its
    reduce-scatter, each sized from its ``FSDPLoop.POSTS`` row: chunk 0
    also carries the embedding, chunk ``L-1`` the final norm and head."""
    world = cluster.world_size
    shard = dims.model_params * cost.state_bytes_per_param() / world
    sizes, rows = cost.sizes(world), {post.kind: post for post in FSDPLoop.POSTS}
    chunk = [sizes.nbytes(rows["fsdp-agf"], i) for i in range(dims.n_layers)]
    gathered = max(sum(chunk[i:i + 2]) for i in range(dims.n_layers))
    grad_transient = max(sizes.nbytes(rows["fsdp-rs"], i) for i in range(dims.n_layers))
    act = _act_per_layer(cost) * dims.n_layers  # one local microbatch
    m = shard + gathered + grad_transient + act + _working_set(cost, True)
    return [m] * world


def _mem_tp(dims, cluster, cost) -> List[float]:
    """TP: 1/P of the split matrices (the vast majority of params), full
    replicated norms/embeddings, plus one local microbatch's activations
    (queries are not sharded: activation memory is NOT divided by P,
    TP's well-known weakness at long context)."""
    world = cluster.world_size
    per_param = cost.state_bytes_per_param()
    split = dims.layer_params * dims.n_layers * per_param / world
    replicated = 2 * dims.vocab * dims.hidden * per_param
    act = _act_per_layer(cost) * dims.n_layers
    m = split + replicated + act + _working_set(cost, True)
    return [m] * world


def _mem_sp(dims, cluster, cost) -> List[float]:
    """SP: full model replica (DP-style states) but activations divided
    by P (the technique's purpose), plus the transient gathered K/V."""
    world = cluster.world_size
    act = _act_per_layer(cost) * dims.n_layers / world
    sizes = cost.sizes(world)  # the gathered K and V
    kv_transient = sum(post.count * sizes.nbytes(post) for post in SPLoop.POSTS
                       if post.when == "F")
    m = (
        dims.model_params * cost.state_bytes_per_param()
        + act
        + kv_transient
        + _working_set(cost, True) / world
    )
    return [m] * world


def _mem_dp(dims, cluster, cost) -> List[float]:
    act = _act_per_layer(cost) * dims.n_layers
    m = dims.model_params * cost.state_bytes_per_param() + act + _working_set(cost, True)
    return [m] * cluster.world_size


def _mem_ring(dims, cluster, cost, mode: str, hier: bool) -> List[float]:
    """One weight ring (a ``ring`` family record): three circulating
    slots (2 W + D), double-buffered — the D of a slot's dense chunks,
    and below the regime boundary the owner's factor bundles and the
    sender's staged ones in its place — plus owner-local optimizer state,
    plus the walked activations of each worker's turn program.  Embedding
    and head weights ride the ring, so every worker transiently holds
    copies; their optimizer state sits on their owners.

    The two-level ring adds the gateway weight caches that resolve
    24-byte references back into full slots: a gateway pins one cached
    copy per weight flow (2) of a slot's layers; non-gateway ranks carry
    nothing extra, but the *peak* worker is a gateway, which is what
    decides OOM."""
    world = cluster.world_size
    lps = dims.n_layers // world
    slots = 2 * cost.weights_resident_bytes(lps)  # 2 W flows (w+d wire pair)
    sizes = cost.sizes(world)  # the largest D that rides the ring
    slots += max(sizes.nbytes(post, slot) for post in RingLoop.POSTS
                 if post.when == "turn" and post.width == "wgrad" for slot in range(world))
    slots *= 2  # double buffering for the prefetched next turn
    # below the regime boundary the owner holds every microbatch's factor
    # bundle of its slot until it forms the gradient, and every sender the
    # bundles it staged for the other slots, (P - 1) N / P of them, until
    # the loss gather
    held = dims.n_microbatches + (world - 1) * dims.n_microbatches // world
    slots += held * max(sizes.nbytes(post, slot) for post in RingLoop.POSTS
                        if post.peer == "owner" for slot in range(world))
    opt = cost.optimizer_bytes(lps)
    embed_ride = 2 * dims.vocab * dims.hidden * cost.cfg.weight_bytes * 2
    embed_opt = cost.embedding_bytes() / world  # owners share the extras
    gateway_cache = 2 * dims.layer_params * lps * cost.cfg.weight_bytes if hier else 0
    walks = _walks(ring_program, mode, world, dims.n_microbatches)
    acts = _act_live(cost, walks, lps)
    return [
        slots + opt + embed_ride + embed_opt + act + _working_set(cost, True)
        + gateway_cache
        for act in acts
    ]


#: family -> per-worker peak bytes of a :class:`~repro.core.api.Strategy`.
_MODELS = {
    "pipeline": lambda s, d, c, m: _mem_pipeline(d, c, m, s.schedule),
    "ring": lambda s, d, c, m: _mem_ring(d, c, m, s.schedule, s.hier),
    "fsdp": lambda s, d, c, m: _mem_fsdp(d, c, m),
    "dp": lambda s, d, c, m: _mem_dp(d, c, m),
    "tp": lambda s, d, c, m: _mem_tp(d, c, m),
    "sp": lambda s, d, c, m: _mem_sp(d, c, m),
}


def peak_memory_per_worker(
    strategy: str,
    dims: WorkloadDims,
    cluster: Cluster,
    exec_cfg: ExecConfig = ExecConfig(),
) -> List[float]:
    """Peak bytes per worker for ``strategy`` on this workload."""
    s = ZOO.get(strategy)
    if s is None or not s.simulated:
        raise ValueError(f"no memory model for strategy {strategy!r}")
    return _MODELS[s.family](s, dims, cluster, CostModel(dims, cluster.gpu, exec_cfg))


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
