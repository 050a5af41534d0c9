"""Schedule builders: strategy -> task graph."""

from .base import BuiltSchedule
from .collective import build_collective, ring_collective_time
from .pipeline import build_pipeline
from .weipipe import RING_FIGURES, build_ring_figure, build_weipipe

__all__ = [
    "BuiltSchedule",
    "RING_FIGURES",
    "build_collective",
    "build_pipeline",
    "build_ring_figure",
    "build_weipipe",
    "ring_collective_time",
]
