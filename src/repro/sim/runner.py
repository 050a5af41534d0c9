"""One-call simulation of a strategy on a workload and cluster.

``run_cell`` is the unit of every table/figure bench and of the planner's
ranking: it builds the schedule, simulates it, and returns a
:class:`SimReport`.  ``exec_for`` is the paper's per-strategy execution
rule (Section 5 + observed baseline behaviour) that all of them apply:

* recomputation ON for 1F1B/GPipe/FSDP/DP/WeiPipe, OFF for every
  schedule that splits B from W (paper §5: the zero-bubble variants keep
  caches for their W passes, so it buys them little — a policy: their
  runtimes can recompute) and for TP / SP, whose runtimes keep full
  caches;
* communication/compute overlap ON for the WeiPipe rings (the
  contribution: W/D prefetch via ``batch_isend_irecv`` — the ring engine
  posts early) and OFF for the baselines, whose stock implementations
  issue synchronous P2P (Megatron 1F1B/ZB) or per-layer blocking gathers
  (the authors' DeepSpeed ZeRO-3 config).
"""

from __future__ import annotations

from typing import Callable, Dict

from ..core.api import FULL_CACHE_STRATEGIES, RING_STRATEGIES
from ..core.schedule import ring_splits_backward
from ..parallel.pipeline import PIPELINE_SCHEDULES, splits_backward
from .costmodel import ExecConfig, WorkloadDims
from .hardware import Cluster
from .metrics import SimReport, evaluate
from .schedules.base import BuiltSchedule
from .schedules.fsdp import build_dp, build_fsdp
from .schedules.pipeline import build_pipeline
from .schedules.seqpar import build_sp
from .schedules.tensor import build_tp
from .schedules.weipipe import build_weipipe

__all__ = ["run_cell", "exec_for", "SIM_STRATEGIES"]

SIM_STRATEGIES: Dict[str, Callable[[WorkloadDims, Cluster, ExecConfig], BuiltSchedule]] = {
    "gpipe": lambda d, c, e: build_pipeline("gpipe", d, c, e),
    "1f1b": lambda d, c, e: build_pipeline("1f1b", d, c, e),
    "zb1": lambda d, c, e: build_pipeline("zb1", d, c, e),
    "zb2": lambda d, c, e: build_pipeline("zb2", d, c, e),
    "fsdp": lambda d, c, e: build_fsdp(d, c, e),
    "dp": lambda d, c, e: build_dp(d, c, e),
    "tp": lambda d, c, e: build_tp(d, c, e),
    "sp": lambda d, c, e: build_sp(d, c, e),
    # every runnable ring, by the runtime's name
    **{
        name: lambda d, c, e, name=name, mode=mode, hier=hier: build_weipipe(
            mode, d, c, e, hier=hier, name=name
        )
        for name, (mode, hier) in RING_STRATEGIES.items()
    },
}

def exec_for(strategy: str, precision: str = "fp16") -> ExecConfig:
    """Per-strategy execution config (see module docstring)."""
    if strategy in RING_STRATEGIES:
        split = ring_splits_backward(RING_STRATEGIES[strategy][0])
    else:
        split = strategy in PIPELINE_SCHEDULES and splits_backward(strategy)
    return ExecConfig.for_precision(
        precision,
        recompute=not split and strategy not in FULL_CACHE_STRATEGIES,
        overlap=strategy in RING_STRATEGIES,
    )


def run_cell(
    strategy: str,
    dims: WorkloadDims,
    cluster: Cluster,
    exec_cfg: ExecConfig = ExecConfig(),
) -> SimReport:
    """Simulate ``strategy`` for one evaluation cell."""
    try:
        builder = SIM_STRATEGIES[strategy]
    except KeyError:
        raise ValueError(
            f"unknown simulated strategy {strategy!r}; "
            f"choose from {sorted(SIM_STRATEGIES)}"
        ) from None
    return evaluate(builder(dims, cluster, exec_cfg))
