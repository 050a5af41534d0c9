"""Discrete-event performance simulator (DESIGN.md §2: the cluster
substitute).  Answers the paper's throughput/memory/scaling questions
with calibrated A800/NVLink/PCIe/Ethernet cost models."""

from .analytic import (
    activation_pp_bandwidth,
    bubble_ratio_1f1b,
    bubble_ratio_weipipe_interleave,
    bubble_ratio_weipipe_naive,
    weipipe_turn_bandwidth,
    weipipe_turn_time,
)
from .costmodel import CostModel, ExecConfig, WorkloadDims
from .engine import SimResult, Task, TaskGraph, simulate
from .hardware import (
    A800,
    ETHERNET_10G,
    NVLINK,
    PCIE,
    Cluster,
    GPU,
    nvlink_cluster,
    pcie_ethernet_cluster,
)
from .memory import fits_memory, peak_memory, peak_memory_per_worker
from .metrics import SimReport, evaluate
from .runner import build_schedule, exec_for, predict_run, run_cell
from .timeline import render_timeline

__all__ = [
    "A800",
    "Cluster",
    "CostModel",
    "ETHERNET_10G",
    "ExecConfig",
    "GPU",
    "NVLINK",
    "PCIE",
    "SimReport",
    "SimResult",
    "Task",
    "TaskGraph",
    "WorkloadDims",
    "activation_pp_bandwidth",
    "bubble_ratio_1f1b",
    "bubble_ratio_weipipe_interleave",
    "bubble_ratio_weipipe_naive",
    "build_schedule",
    "evaluate",
    "exec_for",
    "fits_memory",
    "nvlink_cluster",
    "pcie_ethernet_cluster",
    "peak_memory",
    "peak_memory_per_worker",
    "predict_run",
    "render_timeline",
    "run_cell",
    "simulate",
    "weipipe_turn_bandwidth",
    "weipipe_turn_time",
]
