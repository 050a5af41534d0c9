"""Per-link fabric topology: group membership plus link speeds.

Real long-context clusters are *asymmetric*: ranks inside one server
talk over NVLink/PCIe while ring hops that cross a server boundary ride
commodity Ethernet, one to two orders of magnitude slower (the paper's
Table 2/3 environments; TawPipe builds its whole schedule around the
distinction).  The flat in-process :class:`~repro.runtime.Fabric` knows
nothing about this — every hop is equal — so neither the chaos wire nor
the traffic ledger can express "the two inter-server hops are the ones
that hurt".

:class:`Topology` closes that gap.  It partitions the ``P`` ranks into
equal, contiguous *groups* (one group ~= one server) and assigns every
ordered pair of distinct ranks a :class:`LinkSpec`:

* pairs inside one group use the ``intra`` link,
* pairs in different groups use the ``inter`` link,
* individual pairs may be overridden via ``links`` — overrides must be
  given for *both* directions with the same spec (an override present
  one way only would silently model an asymmetric-in-direction wire,
  which nothing downstream supports, so it is rejected loudly).

Consumers:

* :class:`~repro.runtime.Fabric` — per-link-class traffic counters
  (``fabric_link_bytes_total{link=intra|inter}``) on top of the
  per-kind ledger, the measurement the hierarchical ring's
  cross-group-traffic claim is tested against;
* :class:`~repro.runtime.chaos.ChaosLayer` — a deterministic
  serialization delay ``latency + nbytes/bandwidth`` per message on top
  of the seeded jitter, so a slow inter-group link actually *is* slow
  in wall-clock terms and a bench can measure the win;
* :func:`repro.core.weipipe.train_weipipe` (``topology=``; the
  ``weipipe-hier`` strategy passes the fabric's, else
  :func:`default_groups`) — group membership decides which ring hops are boundary hops, where the ring worker's
  weight-flow hooks ship references instead of slots, and which rank
  fronts each group (the *gateway*, lowest rank by convention).

The group layout doubles as the schedule contract: groups must exactly
partition ``0..P-1``, be equal-sized, and be contiguous runs of ranks
(so the rank ring crosses each group boundary exactly once per
revolution).  Single-rank groups are rejected by default — a group of
one has no intra-group links to share weights over, so "hierarchical"
degenerates silently; pass ``allow_singleton=True`` for the explicit
``Px1`` degenerate used by the differential tests.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "LinkSpec",
    "Topology",
    "TopologyError",
    "parse_group_shape",
    "default_groups",
    "WREF_NBYTES",
    "DEFAULT_INTRA",
    "DEFAULT_INTER",
]

#: wire size of a hierarchical weight-reference token (see
#: ``repro.core.weipipe``): a (marker, flow, slot) triple —
#: metadata, not parameters.  Shared here so the cost model and the
#: engine cannot drift apart.
WREF_NBYTES = 24


class TopologyError(ValueError):
    """An invalid topology description (bad groups or links)."""


@dataclass(frozen=True)
class LinkSpec:
    """One directed point-to-point link: effective bandwidth + latency.

    The one link type: the runtime's priced wire and the simulator's
    :class:`~repro.sim.hardware.Cluster` both read it.  It lives here so
    ``repro.runtime`` keeps zero dependencies on the simulator package.
    """

    name: str
    bandwidth: float  # effective bytes/s
    latency: float = 0.0  # seconds per message

    def __post_init__(self):
        if not (self.bandwidth > 0.0):
            raise TopologyError(
                f"link {self.name!r}: bandwidth must be > 0, got {self.bandwidth}"
            )
        if self.latency < 0.0:
            raise TopologyError(
                f"link {self.name!r}: latency must be >= 0, got {self.latency}"
            )

    def time(self, nbytes: float) -> float:
        """Serialization time of one message of ``nbytes``."""
        return self.latency + nbytes / self.bandwidth

    def as_dict(self) -> Dict[str, float]:
        return {"name": self.name, "bandwidth": self.bandwidth,
                "latency": self.latency}


#: defaults loosely shaped like PCIe-within-a-box vs 10GbE-between-boxes,
#: scaled so test-sized messages see the asymmetry without slowing the
#: suite: ~100 KB crosses intra in ~15 us and inter in ~1.3 ms.
DEFAULT_INTRA = LinkSpec("intra-default", bandwidth=8e9, latency=2e-6)
DEFAULT_INTER = LinkSpec("inter-default", bandwidth=80e6, latency=5e-5)

_SHAPE_RE = re.compile(r"^(\d+)x(\d+)$")


def parse_group_shape(shape: str) -> Tuple[int, int]:
    """Parse a ``"GxR"`` group shape — ``G`` groups of ``R`` ranks each
    (``"2x2"``: two groups of two).  Returns ``(groups, ranks_per_group)``."""
    m = _SHAPE_RE.match(shape.strip())
    if not m:
        raise TopologyError(
            f"group shape {shape!r} is not of the form 'GxR' (e.g. '2x2')"
        )
    g, r = int(m.group(1)), int(m.group(2))
    if g < 1 or r < 1:
        raise TopologyError(f"group shape {shape!r} must have positive factors")
    return g, r


def default_groups(world_size: int) -> str:
    """The default ``GxR`` layout: two equal groups when the world splits
    evenly into non-singleton halves, otherwise one flat group."""
    if world_size >= 4 and world_size % 2 == 0:
        return f"2x{world_size // 2}"
    return f"1x{world_size}"


class Topology:
    """Group membership + per-pair link speeds for ``world_size`` ranks."""

    def __init__(
        self,
        world_size: int,
        groups: Sequence[Sequence[int]],
        intra: LinkSpec = DEFAULT_INTRA,
        inter: LinkSpec = DEFAULT_INTER,
        links: Optional[Dict[Tuple[int, int], LinkSpec]] = None,
        allow_singleton: bool = False,
    ):
        if world_size < 1:
            raise TopologyError("world_size must be >= 1")
        self.world_size = world_size
        self.intra = intra
        self.inter = inter
        self.groups: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(int(r) for r in g) for g in groups
        )
        self._validate_groups(allow_singleton)
        self._group_of: Dict[int, int] = {
            rank: gi for gi, g in enumerate(self.groups) for rank in g
        }
        self._links: Dict[Tuple[int, int], LinkSpec] = dict(links or {})
        self._validate_links()

    # -- validation -----------------------------------------------------------

    def _validate_groups(self, allow_singleton: bool) -> None:
        if not self.groups:
            raise TopologyError("at least one group is required")
        flat: List[int] = [r for g in self.groups for r in g]
        seen = set(flat)
        if len(seen) != len(flat):
            dupes = sorted({r for r in flat if flat.count(r) > 1})
            raise TopologyError(
                f"groups must partition ranks 0..{self.world_size - 1}: "
                f"rank(s) {dupes} appear in more than one group"
            )
        expected = set(range(self.world_size))
        if seen != expected:
            missing = sorted(expected - seen)
            extra = sorted(seen - expected)
            detail = []
            if missing:
                detail.append(f"missing ranks {missing}")
            if extra:
                detail.append(f"unknown ranks {extra}")
            raise TopologyError(
                f"groups must partition ranks 0..{self.world_size - 1}: "
                + ", ".join(detail)
            )
        sizes = {len(g) for g in self.groups}
        if len(sizes) != 1:
            raise TopologyError(
                f"groups must be equal-sized, got sizes "
                f"{sorted(len(g) for g in self.groups)}"
            )
        if min(sizes) == 1 and len(self.groups) > 1 and not allow_singleton:
            raise TopologyError(
                "single-rank groups have no intra-group links to share "
                "weights over; pass allow_singleton=True if the degenerate "
                "per-rank-group layout is intended"
            )
        for g in self.groups:
            if list(g) != list(range(g[0], g[0] + len(g))):
                raise TopologyError(
                    f"group {list(g)} is not a contiguous run of ranks; the "
                    f"rank ring must cross each group boundary exactly once"
                )

    def _validate_links(self) -> None:
        for (src, dst), spec in sorted(self._links.items()):
            if not (0 <= src < self.world_size and 0 <= dst < self.world_size):
                raise TopologyError(
                    f"link override ({src}, {dst}) names a rank outside "
                    f"0..{self.world_size - 1}"
                )
            if src == dst:
                raise TopologyError(f"link override ({src}, {dst}) is a self-link")
            rev = self._links.get((dst, src))
            if rev is None:
                raise TopologyError(
                    f"link override ({src}, {dst}) is missing its reverse "
                    f"({dst}, {src}); per-pair links must be given for both "
                    f"directions"
                )
            if rev != spec:
                raise TopologyError(
                    f"asymmetric link override: ({src}, {dst}) is {spec.name!r} "
                    f"but ({dst}, {src}) is {rev.name!r}; both directions must "
                    f"use the same spec"
                )

    # -- constructors ---------------------------------------------------------

    @classmethod
    def grid(
        cls,
        world_size: int,
        shape: str,
        intra: LinkSpec = DEFAULT_INTRA,
        inter: LinkSpec = DEFAULT_INTER,
        links: Optional[Dict[Tuple[int, int], LinkSpec]] = None,
        allow_singleton: bool = False,
    ) -> "Topology":
        """A ``"GxR"`` layout: group ``g`` holds ranks ``[g*R, (g+1)*R)``."""
        n_groups, per = parse_group_shape(shape)
        if n_groups * per != world_size:
            raise TopologyError(
                f"group shape {shape!r} covers {n_groups * per} ranks but "
                f"world_size is {world_size}"
            )
        groups = [
            list(range(g * per, (g + 1) * per)) for g in range(n_groups)
        ]
        return cls(world_size, groups, intra=intra, inter=inter, links=links,
                   allow_singleton=allow_singleton)

    @classmethod
    def flat(cls, world_size: int, link: LinkSpec = DEFAULT_INTRA) -> "Topology":
        """All ranks in one group over one uniform link (no boundaries)."""
        return cls(world_size, [list(range(world_size))], intra=link, inter=link)

    # -- queries --------------------------------------------------------------

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def group_size(self) -> int:
        return len(self.groups[0])

    def group_of(self, rank: int) -> int:
        try:
            return self._group_of[rank]
        except KeyError:
            raise TopologyError(
                f"rank {rank} out of range 0..{self.world_size - 1}"
            ) from None

    def link_class(self, src: int, dst: int) -> str:
        """``"intra"`` | ``"inter"`` | ``"local"`` (self-delivery)."""
        if src == dst:
            return "local"
        return "intra" if self.group_of(src) == self.group_of(dst) else "inter"

    def link(self, src: int, dst: int) -> Optional[LinkSpec]:
        """The link a ``src -> dst`` message rides (None for self-delivery)."""
        if src == dst:
            return None
        override = self._links.get((src, dst))
        if override is not None:
            return override
        return self.intra if self.link_class(src, dst) == "intra" else self.inter

    def wire_time(self, src: int, dst: int, nbytes: float) -> float:
        """Deterministic serialization delay of one message (0 for self)."""
        link = self.link(src, dst)
        return 0.0 if link is None else link.time(nbytes)

    def gateway(self, group: int) -> int:
        """The rank fronting ``group`` on the inter-group ring (its lowest
        rank — with contiguous groups, the one the ring enters through)."""
        return min(self.groups[group])

    def gateways(self) -> Tuple[int, ...]:
        return tuple(self.gateway(g) for g in range(self.n_groups))

    def is_gateway(self, rank: int) -> bool:
        return rank == self.gateway(self.group_of(rank))

    def ring_boundaries(self) -> Tuple[Tuple[int, int], ...]:
        """The ``(src, dst)`` ring hops that cross a group boundary."""
        p = self.world_size
        return tuple(
            (i, (i + 1) % p)
            for i in range(p)
            if self.link_class(i, (i + 1) % p) == "inter"
        )

    def as_dict(self) -> Dict:
        """JSON-safe description (trace metadata, bench reports)."""
        return {
            "world_size": self.world_size,
            "groups": [list(g) for g in self.groups],
            "intra": self.intra.as_dict(),
            "inter": self.inter.as_dict(),
            "overrides": [
                {"src": s, "dst": d, **spec.as_dict()}
                for (s, d), spec in sorted(self._links.items())
            ],
        }

    def __repr__(self) -> str:
        shape = f"{self.n_groups}x{self.group_size}"
        return (f"Topology({shape}, world={self.world_size}, "
                f"intra={self.intra.name}, inter={self.inter.name})")
