"""Schedule builders: strategy -> task graph."""

from .base import BuiltSchedule
from .fsdp import build_dp, build_fsdp, ring_collective_time
from .pipeline import build_pipeline
from .seqpar import build_sp
from .tensor import build_tp
from .weipipe import RING_FIGURES, build_ring_figure, build_weipipe

__all__ = [
    "BuiltSchedule",
    "RING_FIGURES",
    "build_dp",
    "build_fsdp",
    "build_pipeline",
    "build_ring_figure",
    "build_sp",
    "build_tp",
    "build_weipipe",
    "ring_collective_time",
]
