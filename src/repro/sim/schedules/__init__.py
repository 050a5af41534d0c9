"""Schedule builders: strategy -> task graph (:func:`.walk.build_schedule`)."""

from .base import BuiltSchedule
from .collective import ring_collective_time
from .walk import build_schedule
from .weipipe import RING_FIGURES, build_ring_figure

__all__ = [
    "BuiltSchedule",
    "RING_FIGURES",
    "build_ring_figure",
    "build_schedule",
    "ring_collective_time",
]
