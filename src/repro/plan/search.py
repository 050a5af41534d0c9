"""Config-space enumeration, memory pruning, and ranking.

The search walks the cross product

    strategy x inner degree (dp fills the world) x microbatch x precision,

rejects shapes the runtime could not even build (layer/head/sequence
divisibility, ring round counts), prunes every buildable candidate whose
analytic peak memory (:func:`repro.sim.memory.peak_memory`) exceeds the
budget — the pruning predicate is exact at the boundary, see
:func:`repro.sim.memory.fits_memory` — and ranks the survivors on the
one time model the repository has: the inner group is simulated by
:func:`repro.sim.runner.run_cell`, the discrete-event builder behind the
tables, the figures and ``repro simulate``, under the tables' execution
rule (:func:`repro.sim.runner.exec_for`), so a plan at ``degree = world,
dp = 1`` *is* a Table 2 / 3 cell.  The only term added on top is the one
the simulator has no graph for: the ``dp`` replicas' gradient
all-reduce.  Pruning comes first because a graph is ``O(P N L)`` tasks —
the large-``N`` cells that take seconds to simulate die on memory.

Shape rules (DESIGN.md §15):

* ``degree`` divides the world; ``dp = world // degree`` replicas.
* ``degree == 1`` collapses every strategy to pure DP, so only the
  ``dp`` strategy enumerates it (no duplicate candidates); conversely
  ``dp``'s only shape *is* ``degree == 1``.
* ``degree`` divides every size the strategy's record ``divides``
  (:class:`repro.core.api.Strategy`): layers for pipelines and rings,
  heads and the runtime's ffn width (``default_ffn(hidden)``) for
  ``tp``, the sequence for ``sp``, and the per-replica microbatch count
  for ``fsdp`` and the rings (a ring floors it to a multiple of its
  size) — what the simulator's builders and the runtime refuse.
* the inner group must tile the node structure: ``degree`` is either a
  divisor of ``gpus_per_node`` or a multiple of it.
* the two-level ring (``hier``) needs its ring to span >1 node (on one
  node it *is* ``weipipe-interleave``) and takes the whole world
  (``dp == 1``).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..core.api import ZOO, strategy_names
from ..nn.model import default_ffn
from ..sim.costmodel import ExecConfig, WorkloadDims
from ..sim.hardware import Cluster
from ..sim.memory import peak_memory
from ..sim.runner import exec_for, run_cell
from ..sim.schedules import ring_collective_time
from .spec import PlanSpec

__all__ = ["Candidate", "Evaluated", "SearchResult", "enumerate_candidates",
           "evaluate_candidate", "search"]

@dataclass(frozen=True, order=True)
class Candidate:
    """One point of the config space (per-replica workload attached)."""

    strategy: str  # a simulated ``repro.core.ZOO`` name
    world: int  # total GPUs = dp * degree
    degree: int  # inner parallel width (ring/pipeline/shard)
    dp: int  # data-parallel replicas
    microbatch: int  # G
    n_microbatches: int  # N per replica per iteration
    precision: str

    def exec_cfg(self) -> ExecConfig:
        return exec_for(self.strategy, self.precision)

    def as_dict(self) -> Dict:
        return {**asdict(self), "recompute": self.exec_cfg().recompute}


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
    wall_s: float = 0.0  # what enumerating, pruning and pricing took

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
    cluster = spec.cluster.build()
    out: List[Candidate] = []
    shape_rejected = 0
    for strategy in spec.space.strategies:
        if strategy not in strategy_names(simulated=True):
            raise ValueError(
                f"space.strategies: no memory model for {strategy!r}; "
                f"choose from {strategy_names(simulated=True)}"
            )
        for degree in _degrees(spec):
            for g in spec.space.microbatch_sizes:
                for precision in spec.space.precisions:
                    cand, ok = _build(spec, cluster, strategy, degree, g, precision)
                    if cand is not None:
                        out.append(cand)
                    elif not ok:
                        shape_rejected += 1
    return out, shape_rejected


def _build(
    spec, cluster, strategy, degree, g, precision
) -> Tuple[Optional[Candidate], bool]:
    """One cell -> (Candidate, True) when buildable, (None, True) when the
    cell is a *duplicate* of another enumeration (skip silently), or
    (None, False) when its shape cannot be built (counts as rejected)."""
    model = spec.model
    world = spec.cluster.world
    dp = world // degree
    s = ZOO[strategy]
    # degree 1 is pure DP however you spell it: only "dp" enumerates it.
    if (s.family == "dp") != (degree == 1):
        return None, True
    sub = _sub_cluster(cluster, degree)
    # the two-level ring takes the whole world, and on one node it is
    # its one-level twin.
    if s.hier and (dp != 1 or sub.nodes < 2):
        return None, True
    if sub is None:
        return None, False
    ring = degree if s.family == "ring" else 1
    n = _replica_microbatches(spec, g, dp, ring)
    if n < ring or (s.family == "dp" and n < dp) or not s.divisible(
        degree, layers=model.n_layers, heads=model.n_heads,
        ffn=default_ffn(model.hidden), seq=model.seq_len, microbatches=n,
    ):
        return None, False
    return Candidate(
        strategy=strategy, world=world, degree=degree, dp=dp, microbatch=g,
        n_microbatches=n, precision=precision,
    ), True


def _replica_allreduce_s(
    dims: WorkloadDims, cluster: Cluster, cfg: ExecConfig, dp: int
) -> float:
    """Ring all-reduce (reduce-scatter + all-gather) of the full gradient
    over one rank per replica, on the slowest link of ``cluster`` — priced
    by the collective formula the simulator's own dp / fsdp graphs use."""
    ring = (
        replace(cluster, nodes=dp, gpus_per_node=1) if cluster.nodes > 1
        else replace(cluster, gpus_per_node=dp)
    )
    return 2.0 * ring_collective_time(ring, dims.model_params * cfg.wgrad_bytes)


def evaluate_candidate(
    cand: Candidate, spec: PlanSpec, budget_bytes: float,
    cluster: Optional[Cluster] = None,
) -> Evaluated:
    """Memory verdict (exact at the budget edge) and, when the candidate
    fits, its simulated throughput.  ``dims`` is one replica's workload;
    the job's tokens per iteration are ``dp`` replicas' worth and the GPU
    count is the full ``dp * degree`` world."""
    cluster = cluster if cluster is not None else spec.cluster.build()
    sub = _sub_cluster(cluster, cand.degree)
    dims = spec.model.dims(cand.microbatch, cand.n_microbatches)
    cfg = cand.exec_cfg()
    peak = peak_memory(cand.strategy, dims, sub, cfg)
    if peak > budget_bytes:
        return Evaluated(candidate=cand, peak_memory_bytes=peak, fits=False)
    it_s = run_cell(cand.strategy, dims, sub, cfg).makespan
    it_s += _replica_allreduce_s(dims, cluster, cfg, cand.dp)
    tokens_per_s = cand.dp * dims.tokens_per_iteration / it_s
    return Evaluated(
        candidate=cand, peak_memory_bytes=peak, fits=True, iteration_s=it_s,
        tokens_per_s=tokens_per_s,
        tokens_per_s_per_gpu=tokens_per_s / cand.world,
    )


def search(spec: PlanSpec) -> SearchResult:
    """Enumerate, prune on memory, rank by simulated tokens/s/GPU."""
    t0 = time.perf_counter()
    cluster = spec.cluster.build()
    budget = spec.cluster.budget_bytes(cluster)
    candidates, shape_rejected = enumerate_candidates(spec)
    feasible: List[Evaluated] = []
    rejected: List[Evaluated] = []
    for cand in candidates:
        ev = evaluate_candidate(cand, spec, budget, cluster=cluster)
        (feasible if ev.fits else rejected).append(ev)
    # deterministic total order: throughput, then the config itself.
    feasible.sort(key=lambda e: (-e.tokens_per_s_per_gpu, e.candidate))
    return SearchResult(
        feasible=feasible, memory_rejected=rejected,
        shape_rejected=shape_rejected, budget_bytes=budget,
        wall_s=time.perf_counter() - t0,
    )
