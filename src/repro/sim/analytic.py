"""Closed-form bubble-ratio / bandwidth formulas (paper §4.4, Table 1).

Used to cross-check the discrete-event simulator: with communication
made free (infinite bandwidth, zero latency) the DES makespans must
match these pencil-and-paper values — a strong property test on both
the schedule builders and the engine (``tests/sim/test_analytic.py``).

Notation: ``P`` workers, ``N`` microbatches, ``T_F``/``T_B`` the
per-stage (or per-slot) forward/backward times, with ``T_B ~= 2 T_F``
(+``T_F`` when recomputing).
"""

from __future__ import annotations

from ..runtime.topology import WREF_NBYTES
from .costmodel import CostModel, ExecConfig, WorkloadDims
from .hardware import Cluster

__all__ = [
    "bubble_ratio_1f1b",
    "bubble_ratio_gpipe",
    "bubble_ratio_weipipe_interleave",
    "bubble_ratio_weipipe_naive",
    "ideal_iteration_time",
    "weipipe_turn_bandwidth",
    "weipipe_turn_time",
    "weipipe_hier_turn_time",
    "weipipe_hier_cross_bytes",
    "weipipe_cross_bytes",
    "activation_pp_bandwidth",
]


def ideal_iteration_time(t_f: float, t_b: float, n_mb: int) -> float:
    """Perfect pipelining: every worker busy for all N microbatches."""
    return n_mb * (t_f + t_b)


def bubble_ratio_gpipe(world: int, n_mb: int, t_f: float, t_b: float) -> float:
    """GPipe: ``(P-1)(T_F + T_B)`` of ramp per iteration."""
    bubble = (world - 1) * (t_f + t_b)
    return bubble / (bubble + ideal_iteration_time(t_f, t_b, n_mb))


def bubble_ratio_1f1b(world: int, n_mb: int, t_f: float, t_b: float) -> float:
    """1F1B has the same fill/drain ramp as GPipe (it wins on memory)."""
    return bubble_ratio_gpipe(world, n_mb, t_f, t_b)


def bubble_ratio_weipipe_interleave(
    world: int, n_mb: int, t_f: float, t_b: float
) -> float:
    """WeiPipe-Interleave (Fig. 2): in steady state every turn does one
    forward and one backward; the fill round lacks backwards and the
    drain round lacks forwards.  ``t_f``/``t_b`` are *per-slot* times.

    Per worker: ``R`` rounds of ``P`` turns each run at ``t_f + t_b``
    per turn in steady state; round 0's turns cost only ``t_f`` (idle
    ``t_b`` each) and the drain round's only ``t_b`` (idle ``t_f``).

    This is a (tight for large ``P``, ``R``) *upper bound*: it assumes
    every fill/drain turn is stretched to the steady pace, but the
    ring's first and last few turns — before any worker reaches steady
    state — run unstretched."""
    rounds = n_mb // world
    steady = rounds * world * (t_f + t_b)
    fill = world * t_b  # missing backwards in round 0
    drain = world * t_f  # missing forwards in the drain round
    return (fill + drain) / (steady + fill + drain)


def bubble_ratio_weipipe_naive(
    world: int, n_mb: int, t_f: float, t_b: float
) -> float:
    """WeiPipe-Naive (Fig. 1): rounds are strictly sequential; each of
    the ``R`` rounds costs ``(3P - 2)`` turn-slots on the critical path
    while a worker computes only ``2P`` of them.  With turn duration
    paced by the op being executed, the critical path per round is
    ``P*t_f + P*t_b + (P-1)*max(t_f, t_b)`` (the ramp into the last
    worker) and the useful work per worker is ``P*(t_f + t_b)``."""
    per_round_path = world * (t_f + t_b) + (world - 1) * max(t_f, t_b)
    useful = world * (t_f + t_b)
    rounds = n_mb // world
    total = rounds * per_round_path
    return (total - rounds * useful) / total


def weipipe_turn_bandwidth(
    dims: WorkloadDims, cluster: Cluster, exec_cfg: ExecConfig = ExecConfig()
) -> float:
    """Steady-state bytes/second per link for WeiPipe-Interleave: the
    paper's ``36 H^2`` (2 W + 1 D chunks) every ``(T_F + T_B)/P`` —
    i.e. per turn."""
    cost = CostModel(dims, cluster.gpu, exec_cfg)
    lps = dims.n_layers // cluster.world_size
    per_turn_bytes = 2 * cost.weight_chunk_bytes(lps) + cost.wgrad_chunk_bytes(lps)
    turn_time = lps * (cost.t_fwd_layer() + cost.t_bwd_layer())
    return per_turn_bytes / turn_time


def weipipe_turn_time(
    dims: WorkloadDims, cluster: Cluster, exec_cfg: ExecConfig = ExecConfig()
) -> float:
    """Steady-state WeiPipe-Interleave turn time under the exec config's
    overlap mode.

    A turn computes one forward and one backward slot (``L/P`` layers
    each) while the ring moves ``2 W + 1 D`` chunks over every link; the
    slowest ring link paces the wire leg.  With ``overlap=True`` the
    transfers are posted before the compute and the turn costs
    ``max(compute, wire)`` (:meth:`CostModel.overlapped`); with
    ``overlap=False`` (blocking send/recv at each turn boundary) the
    legs serialise."""
    cost = CostModel(dims, cluster.gpu, exec_cfg)
    lps = dims.n_layers // cluster.world_size
    compute = lps * (cost.t_fwd_layer() + cost.t_bwd_layer())
    per_turn_bytes = 2 * cost.weight_chunk_bytes(lps) + cost.wgrad_chunk_bytes(lps)
    wire = max(link.time(per_turn_bytes) for link in cluster.ring_links())
    return cost.overlapped(compute, wire)


def weipipe_hier_turn_time(
    dims: WorkloadDims,
    cluster: Cluster,
    exec_cfg: ExecConfig = ExecConfig(),
    steady: bool = True,
) -> float:
    """Steady-state turn time of the *hierarchical* (two-level) ring.

    Intra-group hops still move the full ``2 W + 1 D``; a boundary hop
    moves only ``1 D + 2 ref`` once the first revolution has carried
    every weight slot across (``steady=True``).  The wire leg is paced by
    the slower of the two hop classes — on an asymmetric fabric that is
    the boundary hop, whose volume the hierarchy just cut ~3x, which is
    the whole win.  ``steady=False`` gives the first-revolution turn
    (full weights still crossing): identical to the flat ring.

    A single-node cluster has no boundary hops and reduces to
    :func:`weipipe_turn_time` exactly; so does ``steady=False``.
    """
    cost = CostModel(dims, cluster.gpu, exec_cfg)
    lps = dims.n_layers // cluster.world_size
    compute = lps * (cost.t_fwd_layer() + cost.t_bwd_layer())
    full = cost.weipipe_turn_bytes(lps)
    legs = [cluster.intra.time(full)] if cluster.gpus_per_node > 1 else []
    if cluster.nodes > 1:
        boundary = cost.hier_boundary_turn_bytes(lps) if steady else full
        legs.append(cluster.inter.time(boundary))
    wire = max(legs) if legs else 0.0
    return cost.overlapped(compute, wire)


def weipipe_cross_bytes(
    dims: WorkloadDims,
    cluster: Cluster,
    total_turns: int,
    exec_cfg: ExecConfig = ExecConfig(),
) -> int:
    """Flat-ring bytes crossing *one* node boundary per iteration: the
    full ``2 W + 1 D`` every turn, plus the final homing hop."""
    cost = CostModel(dims, cluster.gpu, exec_cfg)
    lps = dims.n_layers // cluster.world_size
    return (total_turns + 1) * cost.weipipe_turn_bytes(lps)


def weipipe_hier_cross_bytes(
    dims: WorkloadDims,
    cluster: Cluster,
    total_turns: int,
    exec_cfg: ExecConfig = ExecConfig(),
) -> int:
    """Hierarchical-ring bytes crossing one node boundary per iteration:
    each of the ``P`` slots crosses once in full per weight flow, the D
    accumulator crosses every turn (and the final homing hop), and every
    later weight crossing is a reference token."""
    cost = CostModel(dims, cluster.gpu, exec_cfg)
    p = cluster.world_size
    lps = dims.n_layers // p
    hops = total_turns + 1  # ring turns + the final homing hop
    full_w = 2 * p * cost.weight_chunk_bytes(lps)
    refs = 2 * (hops - p) * WREF_NBYTES
    d = hops * cost.wgrad_chunk_bytes(lps)
    return full_w + refs + d


def activation_pp_bandwidth(
    dims: WorkloadDims, cluster: Cluster, exec_cfg: ExecConfig = ExecConfig()
) -> float:
    """Steady-state bytes/second per link for 1F1B: one activation down
    and one gradient up per microbatch per steady period ``T_F + T_B``
    of a stage."""
    cost = CostModel(dims, cluster.gpu, exec_cfg)
    lps = dims.n_layers // cluster.world_size
    per_mb_bytes = cost.act_message_bytes() + cost.bgrad_message_bytes()
    period = lps * (cost.t_fwd_layer() + cost.t_bwd_layer())
    return per_mb_bytes / period
