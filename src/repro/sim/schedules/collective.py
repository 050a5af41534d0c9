"""Ring collectives: what a ``POSTS`` row's all-gather, reduce-scatter or
all-reduce costs on the cluster.

The rank-symmetric families (dp / fsdp / tp / sp) put theirs on one
shared ``("net",)`` resource beside rank 0's stream, which carries the
job's bytes; every family's ``end`` rows are collectives too
(:mod:`.walk`).

A ring collective over ``P`` ranks of a ``b``-byte buffer costs
``(P-1) * (latency + b / (P * bw_min))`` a pass — paced by the *slowest*
link in the ring, which is how 10 GbE between servers poisons FSDP in
Table 3 while WeiPipe only pays Ethernet prices on the hops that
actually cross it — and puts ``(P-1) * b`` a pass on the wire, all
ranks together (:func:`collective_task`).
"""

from __future__ import annotations

from ...parallel.common import PASSES, Post, Sizes
from ..engine import TaskGraph
from ..hardware import Cluster

__all__ = ["collective_task", "ring_collective_time"]


#: ring collectives lose to lockstep straggling: every step waits for the
#: slowest of P simultaneous transfers, so realised bandwidth is well
#: below the point-to-point figure (NCCL over TCP measures ~60-70%).
COLLECTIVE_EFFICIENCY = 0.60


def ring_collective_time(cluster: Cluster, nbytes: float) -> float:
    """Time for one ring all-gather or reduce-scatter of ``nbytes``."""
    p = cluster.world_size
    if p == 1:
        return 0.0
    slow = cluster.slowest_ring_link()
    bw = slow.bandwidth * COLLECTIVE_EFFICIENCY
    return (p - 1) * (slow.latency + nbytes / (p * bw))


def collective_task(g: TaskGraph, tid, post: Post, sizes: Sizes, cluster: Cluster,
                    resource, deps, i: int = 0):
    """One instance of a ring collective ``post`` (for chunk ``i``) on a
    ``b``-byte buffer: each of its ``count * PASSES`` ring passes is
    :func:`ring_collective_time` and puts ``(P-1) * b`` on the wire, all
    ranks together."""
    b, passes = sizes.nbytes(post, i), PASSES[post.what]
    return g.add(tid, resource, post.count * (passes * ring_collective_time(cluster, b)),
                 deps=deps, kind="comm", collective=post.what,
                 nbytes=post.count * passes * (cluster.world_size - 1) * b)
