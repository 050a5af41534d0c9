"""Baseline training strategies on the functional runtime."""

from .common import TrainResult, TrainSpec, microbatch
from .data_parallel import train_data_parallel
from .elastic import ElasticState, step_engine_for, train_elastic
from .fsdp import train_fsdp
from .pipeline import stage_program, train_pipeline
from .sequence_parallel import train_sequence_parallel
from .serial import train_serial
from .tensor_parallel import train_tensor_parallel

__all__ = [
    "ElasticState",
    "TrainResult",
    "TrainSpec",
    "microbatch",
    "stage_program",
    "step_engine_for",
    "train_data_parallel",
    "train_elastic",
    "train_fsdp",
    "train_pipeline",
    "train_sequence_parallel",
    "train_serial",
    "train_tensor_parallel",
]
