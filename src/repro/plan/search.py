"""Config-space enumeration, memory pruning, and ranking.

The search walks the cross product

    strategy x inner degree x dp x microbatch x precision x overlap
             x (flat | hier) grouping x backend,

rejects shapes the runtime could not even build (layer/hidden/sequence
divisibility, ring round counts), prunes every buildable candidate whose
analytic peak memory (:func:`repro.sim.memory.peak_memory`) exceeds the
budget — the pruning predicate is exact at the boundary, see
:func:`repro.sim.memory.fits_memory` — and ranks the survivors by the
predicted tokens/s of :mod:`repro.plan.predict`.

Shape rules (DESIGN.md §15):

* ``degree`` divides the world; ``dp = world // degree`` replicas.
* ``degree == 1`` collapses every strategy to pure DP, so only the
  ``dp`` strategy enumerates it (no duplicate candidates); conversely
  ``dp``'s only shape *is* ``degree == 1``.
* pipelines and rings need ``n_layers % degree == 0``; rings also need
  the per-replica microbatch count divisible by the ring size; ``tp``
  needs ``hidden % degree``, ``sp`` needs ``seq_len % degree``, and
  ``fsdp`` needs ``n_microbatches % degree`` (it splits them).
* the inner group must tile the node structure: ``degree`` is either a
  divisor of ``gpus_per_node`` or a multiple of it.
* ``hier`` grouping applies to ``weipipe-interleave`` only, needs the
  inner ring to span >1 node, and takes the whole world (``dp == 1``);
  it is reported as the ``weipipe-hier`` strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..core.api import RING_STRATEGIES
from ..parallel.pipeline import PIPELINE_SCHEDULES
from ..sim.costmodel import ExecConfig, WorkloadDims
from ..sim.hardware import Cluster
from ..sim.memory import MEMORY_MODELS, peak_memory
from ..sim.runner import NO_RECOMPUTE_STRATEGIES
from .predict import predict_tokens_per_s_per_gpu
from .spec import PlanSpec

__all__ = ["Candidate", "Evaluated", "SearchResult", "enumerate_candidates",
           "search"]

#: ring strategies need N divisible by the ring size.
_RING = frozenset(RING_STRATEGIES)
#: strategies whose inner dimension is a pipeline/ring over layers.
_LAYER_PARALLEL = _RING | frozenset(PIPELINE_SCHEDULES)


@dataclass(frozen=True)
class Candidate:
    """One point of the config space (per-replica workload attached)."""

    strategy: str  # reported name (weipipe-hier for the hier grouping)
    world: int  # total GPUs = dp * degree
    degree: int  # inner parallel width (ring/pipeline/shard)
    dp: int  # data-parallel replicas
    microbatch: int  # G
    n_microbatches: int  # N per replica per iteration
    precision: str
    overlap: bool
    recompute: bool
    grouping: str  # flat | hier
    backend: str

    @property
    def mem_key(self) -> str:
        """The :data:`repro.sim.memory.MEMORY_MODELS` key."""
        return self.strategy

    def exec_cfg(self) -> ExecConfig:
        return ExecConfig.for_precision(
            self.precision, recompute=self.recompute, overlap=self.overlap
        )

    def as_dict(self) -> Dict:
        return {
            "strategy": self.strategy, "world": self.world,
            "degree": self.degree, "dp": self.dp,
            "microbatch": self.microbatch,
            "n_microbatches": self.n_microbatches,
            "precision": self.precision, "overlap": self.overlap,
            "recompute": self.recompute, "grouping": self.grouping,
            "backend": self.backend,
        }


@dataclass(frozen=True)
class Evaluated:
    """A candidate with its memory verdict and (if it fits) prediction."""

    candidate: Candidate
    peak_memory_bytes: float
    fits: bool
    iteration_s: Optional[float] = None
    tokens_per_s: Optional[float] = None
    tokens_per_s_per_gpu: Optional[float] = None


@dataclass
class SearchResult:
    """Ranked survivors plus the pruning ledger."""

    feasible: List[Evaluated]  # sorted by tokens_per_s_per_gpu, desc
    memory_rejected: List[Evaluated]
    shape_rejected: int  # configs that could not even be built
    budget_bytes: float

    @property
    def total(self) -> int:
        return len(self.feasible) + len(self.memory_rejected) + self.shape_rejected


def _sub_cluster(cluster: Cluster, degree: int) -> Optional[Cluster]:
    """The inner group's cluster: ``degree`` ranks tiling whole nodes (or
    an even share of one node).  None when the degree cannot tile."""
    if degree == cluster.world_size:
        return cluster
    gpn = cluster.gpus_per_node
    if degree <= gpn:
        if gpn % degree != 0:
            return None
        return replace(cluster, nodes=1, gpus_per_node=degree)
    if degree % gpn != 0:
        return None
    return replace(cluster, nodes=degree // gpn)


def _degrees(spec: PlanSpec) -> Tuple[int, ...]:
    if spec.space.degrees is not None:
        return tuple(
            d for d in spec.space.degrees if spec.cluster.world % d == 0
        )
    world = spec.cluster.world
    return tuple(d for d in range(1, world + 1) if world % d == 0)


def _replica_microbatches(spec: PlanSpec, g: int, dp: int, ring: int) -> int:
    """Per-replica N for microbatch size ``g``: the global batch divided
    across ``dp`` replicas, floored to a multiple of ``ring``."""
    n = spec.model.global_batch_sequences // (g * dp)
    if ring > 1:
        n -= n % ring
    return n


def enumerate_candidates(spec: PlanSpec) -> Tuple[List[Candidate], int]:
    """All buildable candidates plus the count of shape-rejected configs."""
    model = spec.model
    world = spec.cluster.world
    cluster = spec.cluster.build()
    out: List[Candidate] = []
    shape_rejected = 0
    for strategy in spec.space.strategies:
        if strategy not in MEMORY_MODELS:
            raise ValueError(
                f"space.strategies: no memory model for {strategy!r}; "
                f"choose from {sorted(MEMORY_MODELS)}"
            )
        for degree in _degrees(spec):
            dp = world // degree
            for g in spec.space.microbatch_sizes:
                for precision in spec.space.precisions:
                    for overlap in spec.space.overlap:
                        for grouping in spec.space.groupings:
                            for backend in spec.space.backends:
                                cand, ok = _build(
                                    spec, cluster, strategy, degree, dp, g,
                                    precision, overlap, grouping, backend,
                                )
                                if cand is not None:
                                    out.append(cand)
                                elif not ok:
                                    shape_rejected += 1
    return out, shape_rejected


def _build(
    spec, cluster, strategy, degree, dp, g, precision, overlap, grouping,
    backend,
) -> Tuple[Optional[Candidate], bool]:
    """One cell -> (Candidate, True) when buildable, (None, True) when the
    cell is a *duplicate* of another enumeration (skip silently), or
    (None, False) when its shape cannot be built (counts as rejected)."""
    model = spec.model
    world = spec.cluster.world
    # degree 1 is pure DP however you spell it: only "dp" enumerates it.
    if strategy == "dp":
        if degree != 1:
            return None, True
    elif degree == 1:
        return None, True
    # hier is a grouping of the interleave ring across >1 node, whole
    # world only; everything else enumerates the flat grouping once.
    if grouping == "hier":
        if strategy != "weipipe-interleave" or dp != 1:
            return None, True
    sub = _sub_cluster(cluster, degree)
    if sub is None:
        return None, False
    if grouping == "hier" and sub.nodes < 2:
        return None, True
    if strategy in _LAYER_PARALLEL and model.n_layers % degree != 0:
        return None, False
    if strategy == "tp" and model.hidden % degree != 0:
        return None, False
    if strategy == "sp" and model.seq_len % degree != 0:
        return None, False
    ring = degree if strategy in _RING or grouping == "hier" else 1
    n = _replica_microbatches(spec, g, dp, ring)
    if n < max(ring, 1) or (strategy == "fsdp" and n % degree != 0) or (
        strategy == "dp" and n < dp
    ):
        return None, False
    name = "weipipe-hier" if grouping == "hier" else strategy
    recompute = strategy not in NO_RECOMPUTE_STRATEGIES
    return Candidate(
        strategy=name, world=world, degree=degree, dp=dp, microbatch=g,
        n_microbatches=n, precision=precision, overlap=overlap,
        recompute=recompute, grouping=grouping, backend=backend,
    ), True


def evaluate_candidate(
    cand: Candidate, spec: PlanSpec, budget_bytes: float,
    cluster: Optional[Cluster] = None,
) -> Evaluated:
    """Memory verdict (exact at the budget edge) and, when the candidate
    fits, the predicted throughput."""
    cluster = cluster if cluster is not None else spec.cluster.build()
    sub = _sub_cluster(cluster, cand.degree)
    dims = spec.model.dims(cand.microbatch, cand.n_microbatches)
    cfg = cand.exec_cfg()
    peak = peak_memory(cand.mem_key, dims, sub, cfg)
    if peak > budget_bytes:
        return Evaluated(candidate=cand, peak_memory_bytes=peak, fits=False)
    pred = predict_tokens_per_s_per_gpu(
        cand.strategy, dims, sub, cfg, dp=cand.dp, outer_cluster=cluster
    )
    return Evaluated(
        candidate=cand, peak_memory_bytes=peak, fits=True,
        iteration_s=pred["iteration_s"],
        tokens_per_s=pred["tokens_per_s"],
        tokens_per_s_per_gpu=pred["tokens_per_s_per_gpu"],
    )


def search(spec: PlanSpec) -> SearchResult:
    """Enumerate, prune on memory, rank by predicted tokens/s/GPU."""
    cluster = spec.cluster.build()
    budget = spec.cluster.budget_bytes(cluster)
    candidates, shape_rejected = enumerate_candidates(spec)
    feasible: List[Evaluated] = []
    rejected: List[Evaluated] = []
    for cand in candidates:
        ev = evaluate_candidate(cand, spec, budget, cluster=cluster)
        (feasible if ev.fits else rejected).append(ev)
    # deterministic total order: throughput, then thread-first (the
    # validation runner uses the thread transport; results are bit-exact
    # across transports anyway), then the config repr.
    feasible.sort(
        key=lambda e: (
            -e.tokens_per_s_per_gpu,
            e.candidate.backend != "thread",
            repr(e.candidate.as_dict()),
        )
    )
    return SearchResult(
        feasible=feasible, memory_rejected=rejected,
        shape_rejected=shape_rejected, budget_bytes=budget,
    )
