"""Analytic per-candidate time model: predicted tokens/s per GPU.

Everything here is closed-form on top of :mod:`repro.sim.costmodel` and
:mod:`repro.sim.analytic` — no discrete-event simulation — so the
enumerator can price hundreds of configurations in milliseconds.  The
formulas are the planner's *ranking* model (DESIGN.md §15): per-strategy
iteration times built from the calibrated per-layer compute times and
the topology wire model (slowest ring link / boundary link); the weight
rings are priced by walking the turn table they execute
(:data:`repro.core.schedule.RING_SCHEDULES`).
Data-parallel replicas add a ring all-reduce of the gradient volume on
the slowest cluster link.

The same :class:`CostModel` that the trace reconciliation gate
(``repro.obs.analyze.reconcile``) calibrates against measured runs
prices every term, which is what makes the prediction trustworthy
enough to rank on — and the top pick is still validated live.
"""

from __future__ import annotations

from typing import Dict

from ..core.api import RING_STRATEGIES
from ..core.schedule import ring_schedule, ring_splits_backward, turn_ops
from ..sim.analytic import HIER_REF_BYTES
from ..sim.costmodel import CostModel, ExecConfig, WorkloadDims
from ..sim.hardware import Cluster

__all__ = ["predict_iteration_s", "predict_tokens_per_s_per_gpu"]


def _slowest_link(cluster: Cluster):
    return cluster.inter if cluster.nodes > 1 else cluster.intra


def _dp_allreduce_s(
    dims: WorkloadDims, cluster: Cluster, cost: CostModel, dp: int
) -> float:
    """Ring all-reduce of the full gradient across ``dp`` replicas on the
    slowest cluster link: ``2 (dp-1)`` steps of a ``1/dp`` shard each,
    i.e. ``2 (dp-1)/dp`` of the model's wire bytes end to end."""
    if dp <= 1:
        return 0.0
    grad_bytes = dims.model_params * cost.cfg.wgrad_bytes
    link = _slowest_link(cluster)
    return 2 * (dp - 1) * link.time(grad_bytes / dp)


def _pipeline_iteration_s(
    dims: WorkloadDims, cluster: Cluster, cost: CostModel, zero_bubble: bool
) -> float:
    """1F1B/GPipe (and their ZB variants): per-microbatch stage step
    paced by the slower of stage compute and the activation+grad hop on
    the slowest pipeline link, with the classic ``P - 1`` ramp."""
    p = cluster.world_size
    lps = dims.n_layers // p
    compute = lps * (cost.t_fwd_layer() + cost.t_bwd_layer())
    hop_bytes = cost.act_message_bytes() + cost.bgrad_message_bytes()
    wire = max(link.time(hop_bytes) for link in cluster.ring_links())
    step = cost.overlapped(compute, wire)
    if zero_bubble:
        # near-zero bubble: only the forward ramp into the last stage.
        return dims.n_microbatches * step + (p - 1) * lps * cost.t_fwd_layer()
    return (dims.n_microbatches + p - 1) * step


def _weipipe_iteration_s(
    dims: WorkloadDims,
    cluster: Cluster,
    cost: CostModel,
    mode: str,
    hier: bool,
) -> float:
    """WeiPipe rings: a walk of the turn table the runtime executes.  The
    ring moves in lock step, so a turn costs its slowest worker's ops
    (priced as the DES prices them) overlapped with its slowest hop's
    ``2 W + 1 D`` — on the hierarchical ring a boundary hop carries
    ``1 D + 2 ref`` once the first revolution is over."""
    p = cluster.world_size
    lps = dims.n_layers // p
    total, task_fn = ring_schedule(mode, p, dims.n_microbatches)
    op_time = cost.op_times(lps, ring_splits_backward(mode))
    full = cost.weipipe_turn_bytes(lps)
    refs = cost.hier_boundary_turn_bytes(lps, HIER_REF_BYTES) if hier else full
    hops = [(i, (i + 1) % p) for i in range(p)]

    def wire(boundary_bytes: int) -> float:
        return max(
            cluster.link(a, b).time(
                full if cluster.node_of(a) == cluster.node_of(b) else boundary_bytes
            )
            for a, b in hops
        )

    first, steady = wire(full), wire(refs)
    return sum(
        cost.overlapped(
            max(
                sum(op_time[kind] for kind, _ in turn_ops(task_fn(w, t)))
                for w in range(p)
            ),
            first if t < p else steady,
        )
        for t in range(total)
    )


def _fsdp_iteration_s(
    dims: WorkloadDims, cluster: Cluster, cost: CostModel
) -> float:
    """FSDP: microbatches split across the shard group; every layer's
    forward+backward overlaps with its all-gather + reduce-scatter
    (``2 (P-1)/P`` of the layer's wire bytes on the slowest link)."""
    p = cluster.world_size
    per_layer_compute = cost.t_fwd_layer() + cost.t_bwd_layer()
    layer_bytes = (
        dims.layer_params * (cost.cfg.weight_bytes + cost.cfg.wgrad_bytes)
    )
    wire = _slowest_link(cluster).time(2.0 * (p - 1) / p * layer_bytes)
    per_mb = dims.n_layers * cost.overlapped(per_layer_compute, wire)
    local_mb = max(dims.n_microbatches // p, 1)
    return local_mb * per_mb


def _dp_iteration_s(
    dims: WorkloadDims, cluster: Cluster, cost: CostModel
) -> float:
    """Pure DP: each replica computes its share, then all-reduces."""
    p = cluster.world_size
    local_mb = max(dims.n_microbatches // p, 1)
    compute = local_mb * dims.n_layers * (
        cost.t_fwd_layer() + cost.t_bwd_layer()
    )
    return compute + _dp_allreduce_s(dims, cluster, cost, p)


def _tp_iteration_s(
    dims: WorkloadDims, cluster: Cluster, cost: CostModel
) -> float:
    """TP: GEMMs split ``1/P`` but two activation all-reduces per layer
    per microbatch — the well-known long-context wire tax."""
    p = cluster.world_size
    per_layer_compute = (cost.t_fwd_layer() + cost.t_bwd_layer()) / p
    ar_bytes = 2.0 * (p - 1) / p * cost.act_message_bytes()
    wire = 2.0 * _slowest_link(cluster).time(ar_bytes)  # fwd pair; bwd mirrors
    per_layer = cost.overlapped(per_layer_compute, wire) + wire
    return dims.n_microbatches * dims.n_layers * per_layer


def _sp_iteration_s(
    dims: WorkloadDims, cluster: Cluster, cost: CostModel
) -> float:
    """SP: activations (and attention) split ``1/P``; each layer ring-
    exchanges its K/V shards — ``(P-1)`` hops of a ``1/P`` activation."""
    p = cluster.world_size
    per_layer_compute = (cost.t_fwd_layer() + cost.t_bwd_layer()) / p
    hop = _slowest_link(cluster).time(2.0 * cost.act_message_bytes() / p)
    wire = (p - 1) * hop
    per_layer = cost.overlapped(per_layer_compute, wire)
    return dims.n_microbatches * dims.n_layers * per_layer


def predict_iteration_s(
    strategy: str,
    dims: WorkloadDims,
    cluster: Cluster,
    exec_cfg: ExecConfig,
    dp: int = 1,
    outer_cluster: Cluster = None,
) -> float:
    """Predicted seconds per iteration for one replica of ``strategy`` on
    ``cluster`` (the inner parallel group), plus the dp all-reduce across
    replicas priced on ``outer_cluster`` (default: the inner cluster)."""
    cost = CostModel(dims, cluster.gpu, exec_cfg)
    if strategy in ("gpipe", "1f1b"):
        t = _pipeline_iteration_s(dims, cluster, cost, zero_bubble=False)
    elif strategy in ("zb1", "zb2"):
        t = _pipeline_iteration_s(dims, cluster, cost, zero_bubble=True)
    elif strategy in RING_STRATEGIES:
        t = _weipipe_iteration_s(dims, cluster, cost, *RING_STRATEGIES[strategy])
    elif strategy == "fsdp":
        t = _fsdp_iteration_s(dims, cluster, cost)
    elif strategy == "dp":
        t = _dp_iteration_s(dims, cluster, cost)
    elif strategy == "tp":
        t = _tp_iteration_s(dims, cluster, cost)
    elif strategy == "sp":
        t = _sp_iteration_s(dims, cluster, cost)
    else:
        raise ValueError(f"no analytic time model for strategy {strategy!r}")
    cost_outer = CostModel(dims, (outer_cluster or cluster).gpu, exec_cfg)
    t += _dp_allreduce_s(dims, outer_cluster or cluster, cost_outer, dp)
    return t


def predict_tokens_per_s_per_gpu(
    strategy: str,
    dims: WorkloadDims,
    cluster: Cluster,
    exec_cfg: ExecConfig,
    dp: int = 1,
    outer_cluster: Cluster = None,
) -> Dict[str, float]:
    """The planner's ranking metric plus its components.

    ``dims`` is one replica's workload; the job's global tokens per
    iteration are ``dp`` replicas' worth, and the GPU count is the full
    ``dp * inner`` world.
    """
    it_s = predict_iteration_s(
        strategy, dims, cluster, exec_cfg, dp=dp, outer_cluster=outer_cluster
    )
    world = dp * cluster.world_size
    tokens = dp * dims.tokens_per_iteration
    return {
        "iteration_s": it_s,
        "tokens_per_s": tokens / it_s if it_s > 0 else float("inf"),
        "tokens_per_s_per_gpu": (
            tokens / it_s / world if it_s > 0 else float("inf")
        ),
    }
