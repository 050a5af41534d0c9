"""Topology-aware hierarchical WeiPipe: a two-level weight ring.

The flat WeiPipe ring ships ``2 W + 1 D`` chunks over *every* hop every
turn, so a ring hop that crosses a slow inter-group link (server
boundary) pays the full weight volume ``T`` times per iteration even
though the weights never change mid-iteration — the same ``W`` slot
crosses the same boundary ``T/P`` times carrying identical bytes.
TawPipe's observation (PAPERS.md) is that weights only need to cross
each boundary *once*; after that the fast intra-group links can share
them.  Topology-awareness is *what a hop carries*, not a different
ring: the engine is :func:`repro.core.weipipe.train_weipipe`, whose
weight-flow hooks become boundary-aware when given a ``topology``, and
this module only resolves the group layout.  What the hooks do, while
staying **bit-exact** with the flat ring:

* The ring order, schedule, tags and the circulating gradient
  accumulator ``D`` are untouched.  ``D`` is a running sum whose value
  depends on the order contributions are added, so it must keep visiting
  every rank in flat-ring order — re-routing it gateway-to-gateway would
  change accumulation order and break bit-exactness.  ``D`` is also the
  *small* flow (one chunk per turn vs two), so the win lives in ``W``.
* Weight slots are constant within an iteration (owners step them only
  in the update pass), so on a ring hop that crosses a group boundary
  the full payload is sent only while the tag's turn is within the first
  ring revolution (``turn <= P`` — each of the ``P`` slots crosses each
  boundary exactly once per flow).  Every later crossing sends a
  24-byte *weight reference* instead.
* The **gateway** — the lowest rank of each group, the rank through
  which the ring enters the group — keeps a per-iteration cache of the
  full slots it received during the first revolution and resolves
  references against it.  Because the in-process fabric circulates slot
  objects (arena-backed :class:`~repro.nn.params.ParamStruct` views),
  the cached slot *is* the object the flat ring would have delivered:
  results are not just bit-equal but object-identical.
* Inside a group nothing changes: intra-group hops carry the same full
  payloads as the flat ring, which is the "share weights on fast
  intra-group links" half of the two-level design and is what the
  intra-bytes-conserved test pins.

Cross-group volume per boundary per iteration drops from
``T * (2 W + 1 D)`` to ``P * 2 W + T * (1 D + 2 ref)`` — for the
paper-style ``T ~= 2 N >> P`` that is nearly the 3x -> 1x chunk
reduction per turn that makes a slow boundary link stop pacing the
ring.  Degenerate layouts reduce exactly: one group (``1xP``) has no
boundaries, so no hop crosses and every rank executes the flat ring's
statements; all-singleton groups (``Px1``, built with
``allow_singleton=True``) make every rank a gateway and every hop a
cached boundary — still bit-exact, with the whole model cached
everywhere.
"""

from __future__ import annotations

from typing import Optional

from ..core.weipipe import WREF_MARK, train_weipipe
from ..parallel.common import TrainResult, TrainSpec
from ..runtime import Fabric, Topology

__all__ = [
    "train_weipipe_hier",
    "default_groups",
    "WREF_MARK",
]


def default_groups(world_size: int) -> str:
    """The default ``GxR`` layout: two equal groups when the world splits
    evenly into non-singleton halves, otherwise one flat group."""
    if world_size >= 4 and world_size % 2 == 0:
        return f"2x{world_size // 2}"
    return f"1x{world_size}"


def _resolve_topology(
    world_size: int,
    topology: Optional[Topology],
    groups: Optional[str],
    fabric: Optional[Fabric],
) -> Topology:
    if topology is not None and groups is not None:
        raise ValueError("pass either topology or groups, not both")
    if topology is None:
        if groups is not None:
            topology = Topology.grid(world_size, groups)
        elif fabric is not None and getattr(fabric, "topology", None) is not None:
            topology = fabric.topology
        else:
            topology = Topology.grid(world_size, default_groups(world_size))
    if topology.world_size != world_size:
        raise ValueError(
            f"topology is for world_size {topology.world_size}, "
            f"training uses {world_size}"
        )
    return topology


def train_weipipe_hier(
    spec: TrainSpec,
    world_size: int,
    topology: Optional[Topology] = None,
    groups: Optional[str] = None,
    mode: str = "interleave",
    fabric: Optional[Fabric] = None,
    overlap: bool = True,
) -> TrainResult:
    """Train with the two-level (topology-aware) WeiPipe ring.

    The group layout comes from, in order of precedence: an explicit
    ``topology``, a ``groups`` shape string (``"2x2"``), the ``fabric``'s
    own topology, or :func:`default_groups`.  Results are bit-identical
    to :func:`repro.core.weipipe.train_weipipe` with the same ``spec`` /
    ``mode`` / ``overlap`` on any wire — the hierarchy changes what
    crosses slow links, not what is computed (enforced by
    ``tests/integration/test_weipipe_hier.py``).
    """
    topo = _resolve_topology(world_size, topology, groups, fabric)
    result = train_weipipe(
        spec, world_size, mode=mode, fabric=fabric, overlap=overlap, topology=topo
    )
    result.extra["groups"] = [list(g) for g in topo.groups]
    result.extra["gateways"] = list(topo.gateways())
    return result
