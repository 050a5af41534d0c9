"""Closed-form bubble-ratio / bandwidth formulas (paper §4.4, Table 1).

Used to cross-check the discrete-event simulator: with communication
made free (infinite bandwidth, zero latency) the DES makespans must
match these pencil-and-paper values — a strong property test on both
the schedule builders and the engine (``tests/sim/test_analytic.py``).

Notation: ``P`` workers, ``N`` microbatches, ``T_F``/``T_B`` the
per-stage (or per-slot) forward/backward times, with ``T_B ~= 2 T_F``
plus, when recomputing, the replays the checkpoint rule counts
(:meth:`~repro.sim.costmodel.CostModel.op_means`).  The volumes are the
message table's (DESIGN §23): the rows the ring posts each turn and the
hops a stage posts per microbatch.
"""

from __future__ import annotations

from ..core.weipipe import RingLoop
from ..parallel.pipeline import StageLoop
from .costmodel import CostModel, ExecConfig, WorkloadDims
from .hardware import Cluster

__all__ = [
    "bubble_ratio_1f1b",
    "bubble_ratio_weipipe_interleave",
    "bubble_ratio_weipipe_naive",
    "weipipe_turn_bandwidth",
    "weipipe_turn_time",
    "activation_pp_bandwidth",
]


def bubble_ratio_1f1b(world: int, n_mb: int, t_f: float, t_b: float) -> float:
    """1F1B and GPipe: ``(P-1)(T_F + T_B)`` of fill/drain ramp against
    ``N (T_F + T_B)`` of work (1F1B wins on memory, not on bubbles)."""
    bubble = (world - 1) * (t_f + t_b)
    return bubble / (bubble + n_mb * (t_f + t_b))


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


def _turn_bytes(cost: CostModel, world: int) -> float:
    """Bytes a ring link carries per turn, over a revolution: the ring's
    turn rows (2 W + 1 D), each slot once."""
    sizes = cost.sizes(world)
    rows = [post for post in RingLoop.POSTS if post.when == "turn"]
    return sum(sizes.nbytes(post, slot) for post in rows for slot in range(world)) / world


def weipipe_turn_bandwidth(
    dims: WorkloadDims, cluster: Cluster, exec_cfg: ExecConfig = ExecConfig()
) -> float:
    """Steady-state bytes/second per link for WeiPipe-Interleave: the
    paper's ``36 H^2`` (2 W + 1 D chunks) every ``(T_F + T_B)/P`` —
    i.e. per turn."""
    cost = CostModel(dims, cluster.gpu, exec_cfg)
    world = cluster.world_size
    return _turn_bytes(cost, world) / sum(cost.op_means("weipipe-interleave", world))


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
    compute = sum(cost.op_means("weipipe-interleave", cluster.world_size))
    per_turn_bytes = _turn_bytes(cost, cluster.world_size)
    wire = max(link.time(per_turn_bytes) for link in cluster.ring_links())
    return cost.overlapped(compute, wire)


def activation_pp_bandwidth(
    dims: WorkloadDims, cluster: Cluster, exec_cfg: ExecConfig = ExecConfig()
) -> float:
    """Steady-state bytes/second per link for 1F1B: one activation down
    and one gradient up per microbatch per steady period ``T_F + T_B``
    of a stage."""
    cost = CostModel(dims, cluster.gpu, exec_cfg)
    sizes = cost.sizes(cluster.world_size)
    per_mb_bytes = sum(sizes.nbytes(post) for post in StageLoop.POSTS if post.what == "hop")
    return per_mb_bytes / sum(cost.op_means("1f1b", cluster.world_size))
