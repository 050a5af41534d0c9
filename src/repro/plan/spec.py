"""Planner input: model / context / cluster spec and the search space.

A :class:`PlanSpec` is everything ``python -m repro plan`` needs:

* **model** — the transformer to train (hidden, layers, heads, seq_len,
  vocab) and the global batch in *sequences per iteration* (held
  constant across every candidate, the paper's equal-global-batch
  discipline);
* **cluster** — a hardware preset (``nvlink`` / ``pcie-eth`` /
  ``single-node``) or a fully custom GPU+link description, plus the
  per-worker memory budget the pruner enforces;
* **space** — which dimensions to enumerate: strategies, inner parallel
  degrees (ring / pipeline / shard width; data-parallel replicas fill
  the rest of the world), microbatch sizes, precisions;
* **validation** — the scaled-down dims of the live predict-then-validate
  run of the top pick (the functional runtime is threaded NumPy, so the
  validation preserves the pick's *shape* — strategy, schedule, relative
  degree — at toy dims and gates it with ``repro.obs.analyze.reconcile``).

Specs round-trip through JSON (``load_spec`` / ``PlanSpec.to_dict``);
unknown keys are rejected loudly so a typo'd spec cannot silently search
the wrong space.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, Optional, Tuple

from ..sim.costmodel import PRECISION_WIDTHS, WorkloadDims
from ..sim.hardware import (
    A800,
    Cluster,
    GPU,
    nvlink_cluster,
    pcie_ethernet_cluster,
)
from ..runtime.topology import LinkSpec
from ..core.api import ZOO

__all__ = [
    "ModelSpec",
    "ClusterSpec",
    "SearchSpace",
    "ValidationSpec",
    "PlanSpec",
    "PlanSpecError",
    "load_spec",
]


class PlanSpecError(ValueError):
    """A malformed planner spec (bad JSON, unknown keys, bad values)."""


def _from_dict(cls, data: Dict, where: str):
    if not isinstance(data, dict):
        raise PlanSpecError(f"{where}: expected an object, got {type(data).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise PlanSpecError(
            f"{where}: unknown keys {unknown}; known keys are {sorted(known)}"
        )
    listy = {
        f.name for f in fields(cls)
        if "Tuple" in str(f.type) or "tuple" in str(f.type)
    }
    coerced = {
        k: tuple(v) if k in listy and isinstance(v, list) else v
        for k, v in data.items()
    }
    return cls(**coerced)


@dataclass(frozen=True)
class ModelSpec:
    """The transformer and its global batch."""

    hidden: int = 4096
    n_layers: int = 32
    seq_len: int = 16384
    n_heads: int = 32
    vocab: int = 32000
    #: sequences per iteration, identical for every candidate; each
    #: candidate factors it into (dp replicas) x (N microbatches) x G.
    global_batch_sequences: int = 512

    def __post_init__(self):
        for name in ("hidden", "n_layers", "seq_len", "n_heads", "vocab",
                     "global_batch_sequences"):
            if getattr(self, name) < 1:
                raise PlanSpecError(f"model.{name} must be positive")

    def dims(self, microbatch: int, n_microbatches: int) -> WorkloadDims:
        return WorkloadDims(
            hidden=self.hidden, n_layers=self.n_layers, seq_len=self.seq_len,
            microbatch=microbatch, n_microbatches=n_microbatches,
            n_heads=self.n_heads, vocab=self.vocab,
        )


@dataclass(frozen=True)
class ClusterSpec:
    """The hardware: a preset or a custom GPU + link description."""

    preset: str = "nvlink"  # nvlink | pcie-eth | single-node | custom
    world: int = 16
    gpus_per_node: Optional[int] = None
    #: per-worker bytes the pruner enforces; None = the GPU's HBM.
    memory_budget_bytes: Optional[float] = None
    # custom-preset fields (ignored otherwise):
    gpu_flops: float = A800.flops
    gpu_memory_bytes: float = A800.memory
    intra_bandwidth: float = 320e9
    intra_latency_s: float = 8e-6
    inter_bandwidth: float = 1.6e9
    inter_latency_s: float = 3e-5

    def __post_init__(self):
        if self.world < 1:
            raise PlanSpecError("cluster.world must be positive")
        if self.preset not in ("nvlink", "pcie-eth", "single-node", "custom"):
            raise PlanSpecError(
                f"cluster.preset {self.preset!r} is not one of "
                "nvlink, pcie-eth, single-node, custom"
            )

    def build(self) -> Cluster:
        if self.preset == "nvlink":
            return nvlink_cluster(self.world, gpus_per_node=self.gpus_per_node or 8)
        if self.preset == "pcie-eth":
            return pcie_ethernet_cluster(
                self.world, gpus_per_node=self.gpus_per_node or 4
            )
        if self.preset == "single-node":
            return nvlink_cluster(self.world, gpus_per_node=self.world)
        gpn = self.gpus_per_node or self.world
        if self.world % gpn != 0:
            raise PlanSpecError("cluster.world must be a multiple of gpus_per_node")
        return Cluster(
            gpu=GPU(name="custom", flops=self.gpu_flops,
                    memory=self.gpu_memory_bytes),
            nodes=self.world // gpn,
            gpus_per_node=gpn,
            intra=LinkSpec("custom-intra", bandwidth=self.intra_bandwidth,
                           latency=self.intra_latency_s),
            inter=LinkSpec("custom-inter", bandwidth=self.inter_bandwidth,
                           latency=self.inter_latency_s),
        )

    def budget_bytes(self, cluster: Optional[Cluster] = None) -> float:
        if self.memory_budget_bytes is not None:
            return float(self.memory_budget_bytes)
        return (cluster or self.build()).gpu.memory


@dataclass(frozen=True)
class SearchSpace:
    """Which dimensions the enumerator sweeps."""

    #: default: every strategy the simulator prices, in zoo order.
    strategies: Tuple[str, ...] = field(default_factory=lambda: tuple(
        s.name for s in ZOO.values() if s.simulated
    ))
    #: inner parallel degrees (ring size / pipeline depth / shard width);
    #: None = every divisor of the world size.  Data-parallel replicas
    #: make up the difference: ``dp = world // degree``.
    degrees: Optional[Tuple[int, ...]] = None
    microbatch_sizes: Tuple[int, ...] = (1, 4, 16)
    precisions: Tuple[str, ...] = ("fp16",)

    def __post_init__(self):
        for p in self.precisions:
            if p not in PRECISION_WIDTHS:
                raise PlanSpecError(
                    f"space.precisions: unknown precision {p!r}; choose "
                    f"from {sorted(PRECISION_WIDTHS)}"
                )
        if not self.strategies:
            raise PlanSpecError("space.strategies must not be empty")
        if not self.microbatch_sizes or any(
            g < 1 for g in self.microbatch_sizes
        ):
            raise PlanSpecError("space.microbatch_sizes must be positive")


@dataclass(frozen=True)
class ValidationSpec:
    """Dims of the live validation run (functional runtime, threads).

    The validation run keeps the pick's strategy and schedule shape but
    scales the tensors down to laptop size; ``world_cap`` bounds how
    many threads the run forks (the pick's degree is clamped to it).
    """

    world_cap: int = 4
    hidden: int = 32
    n_layers: int = 4
    n_heads: int = 4
    seq_len: int = 32
    vocab: int = 64
    microbatch_size: int = 2
    n_microbatches: int = 8
    iters: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.world_cap < 1:
            raise PlanSpecError("validation.world_cap must be positive")
        if self.n_microbatches < 1 or self.iters < 1:
            raise PlanSpecError(
                "validation.n_microbatches and validation.iters must be "
                "positive"
            )


@dataclass(frozen=True)
class PlanSpec:
    """The complete planner input."""

    model: ModelSpec = field(default_factory=ModelSpec)
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    space: SearchSpace = field(default_factory=SearchSpace)
    validation: ValidationSpec = field(default_factory=ValidationSpec)

    @classmethod
    def from_dict(cls, data: Dict) -> "PlanSpec":
        if not isinstance(data, dict):
            raise PlanSpecError("spec: expected a JSON object")
        unknown = sorted(
            set(data) - {"model", "cluster", "space", "validation"}
        )
        if unknown:
            raise PlanSpecError(
                f"spec: unknown sections {unknown}; known sections are "
                "['cluster', 'model', 'space', 'validation']"
            )
        return cls(
            model=_from_dict(ModelSpec, data.get("model", {}), "model"),
            cluster=_from_dict(ClusterSpec, data.get("cluster", {}), "cluster"),
            space=_from_dict(SearchSpace, data.get("space", {}), "space"),
            validation=_from_dict(
                ValidationSpec, data.get("validation", {}), "validation"
            ),
        )

    def to_dict(self) -> Dict:
        return asdict(self)


def load_spec(path: str) -> PlanSpec:
    """Parse a planner spec from a JSON file."""
    try:
        with open(path) as f:
            data = json.load(f)
    except json.JSONDecodeError as e:
        raise PlanSpecError(f"{path}: not valid JSON ({e})") from None
    return PlanSpec.from_dict(data)
