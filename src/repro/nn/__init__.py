"""NumPy transformer substrate: the model every strategy trains.

Public surface:

* :class:`~repro.nn.model.ModelConfig` — model hyper-parameters,
* :func:`~repro.nn.model.init_model` — deterministic chunked weights, the
  list of :func:`~repro.nn.model.init_chunk` over every index: chunk ``i``
  has its own stream ``(seed, i)``, so a worker draws only what it holds,
* chunk-level fwd/bwd (joint and decoupled B/W) in :mod:`repro.nn.model`,
* :class:`~repro.nn.checkpoint.CheckpointedChunk` — recomputation,
* :class:`~repro.nn.params.ParamStruct` — named tensors + flat packing,
* :class:`~repro.nn.precision.PrecisionPolicy` — fp16/bf16 emulation.
"""

from .checkpoint import CheckpointedChunk
from .model import (
    ModelConfig,
    chunk_bwd,
    chunk_bwd_input,
    chunk_bwd_weight,
    chunk_fwd,
    default_ffn,
    init_chunk,
    init_model,
    model_fwd,
    model_loss_and_grads,
    model_param_count,
    perplexity,
    rope_tables,
    sequence_logprobs,
)
from .params import BufferPool, ParamStruct
from .precision import FP32, FP64, MIXED, PrecisionPolicy

__all__ = [
    "BufferPool",
    "CheckpointedChunk",
    "ModelConfig",
    "ParamStruct",
    "PrecisionPolicy",
    "FP32",
    "FP64",
    "MIXED",
    "chunk_bwd",
    "chunk_bwd_input",
    "chunk_bwd_weight",
    "chunk_fwd",
    "default_ffn",
    "init_chunk",
    "init_model",
    "model_fwd",
    "model_loss_and_grads",
    "model_param_count",
    "perplexity",
    "rope_tables",
    "sequence_logprobs",
]
