"""One-call simulation of a strategy on a workload and cluster.

``run_cell`` is the unit of every table/figure bench and of the planner's
ranking: it builds the schedule (``build_schedule``, the one walk of the
strategy's rank programs and its message table,
:mod:`.schedules.walk`), simulates it, and returns a
:class:`SimReport`.
``exec_for`` is the paper's per-strategy execution rule (Section 5 +
observed baseline behaviour), read off the record's ``recompute`` /
``overlap``, that all of them apply:

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

``predict_run`` is the one wall model of a run measured on the runtime:
``run_cell`` on a GPU fitted to the run's measured layer forward, over
the links the run's wire charged.  ``repro.obs.reconcile`` prices a
traced run with it and ``bench-crossover`` each of its sides.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, Tuple

from ..core.api import ZOO
from ..runtime.topology import LinkSpec
from .costmodel import CostModel, ExecConfig, WorkloadDims
from .hardware import Cluster
from .metrics import SimReport, evaluate
from .schedules.walk import build_schedule

__all__ = ["run_cell", "build_schedule", "exec_for", "predict_run", "FREE_LINK"]

#: the link of a wire no ``ChaosPolicy`` prices: a message arrives the
#: moment it is sent (``Fabric.topology`` is then accounting-only).
FREE_LINK = LinkSpec("free", bandwidth=math.inf)


def exec_for(strategy: str, precision: str = "fp16") -> ExecConfig:
    """Per-strategy execution config (see module docstring)."""
    s = ZOO[strategy]
    return ExecConfig.for_precision(precision, recompute=s.recompute, overlap=s.overlap)


def run_cell(
    strategy: str,
    dims: WorkloadDims,
    cluster: Cluster,
    exec_cfg: ExecConfig = ExecConfig(),
) -> SimReport:
    """Simulate ``strategy`` for one evaluation cell."""
    return evaluate(build_schedule(strategy, dims, cluster, exec_cfg))


def predict_run(run: Dict, t_fwd_layer: float) -> Tuple[CostModel, Cluster, SimReport]:
    """The DES of a run measured on the runtime; the report's
    ``makespan`` is the predicted iteration.

    ``run`` describes the run as :func:`repro.obs.trace_metadata`
    records it: ``strategy``, ``world``, ``dims``, ``recompute``; the
    wire ``widths`` (else ``precision``'s, fp32 when absent),
    ``flash_attention`` / ``overlap`` (on when absent), the ``topology``
    groups and the ``links`` its wire charged when present.  The
    strategy's own schedule runs on a GPU fitted to the run's measured
    layer forward of ``t_fwd_layer`` seconds (:meth:`CostModel.calibrated`,
    no per-op overhead), over the charged links — :data:`FREE_LINK` where
    no ``ChaosPolicy`` priced them.  The exec config is :func:`exec_for`'s
    with the run's settings; it overlaps the wire where both the strategy
    and the run (``overlap=False``: the ring's late posting) do.
    """
    strategy, world = str(run.get("strategy")), int(run.get("world", 1))
    dims = WorkloadDims(**{k: int(v) for k, v in run["dims"].items()})
    base = exec_for(strategy, run.get("precision", "fp32"))
    exec_cfg = replace(
        base, **run.get("widths", {}), recompute=bool(run.get("recompute", False)),
        flash_attention=bool(run.get("flash_attention", True)),
        overlap=base.overlap and bool(run.get("overlap", True)),
    )
    links = {k: LinkSpec(**v) for k, v in (run.get("links") or {}).items()}
    groups = len((run.get("topology") or {}).get("groups") or [()])
    model = CostModel.calibrated(dims, t_fwd_layer, exec_cfg)
    cluster = Cluster(gpu=model.gpu, nodes=groups, gpus_per_node=world // groups,
                      intra=links.get("intra", FREE_LINK),
                      inter=links.get("inter", FREE_LINK))
    return model, cluster, run_cell(strategy, dims, cluster, exec_cfg)
