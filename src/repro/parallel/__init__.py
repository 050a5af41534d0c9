"""Baseline training strategies on the functional runtime: the loop one
rank of each runs (``core.api.launch`` builds and launches them)."""

from .common import TrainResult, TrainSpec, microbatch
from .elastic import ElasticState, step_engine_for, train_elastic
from .pipeline import stage_program

__all__ = [
    "ElasticState",
    "TrainResult",
    "TrainSpec",
    "microbatch",
    "stage_program",
    "step_engine_for",
    "train_elastic",
]
