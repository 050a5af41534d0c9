"""WeiPipe reproduction: weight pipeline parallelism (PPoPP'25).

Top-level convenience exports; see README.md for the tour.
"""

from .core import ZOO, Strategy, strategy_names, train, train_weipipe, train_weipipe_dp
from .data import MarkovCorpus, UniformCorpus
from .io import (
    Checkpoint,
    CheckpointError,
    CorruptCheckpointError,
    load_checkpoint,
    load_checkpoint_state,
    save_checkpoint,
)
from .nn import FP32, FP64, MIXED, ModelConfig, ParamStruct, PrecisionPolicy
from .nn.model import perplexity
from .obs import MetricsRegistry, Tracer, analyze_trace, load_trace
from .optim import SGD, Adam, AdamW, MasterWeightOptimizer
from .parallel import TrainResult, TrainSpec, train_elastic
from .runtime import ChaosPolicy, LinkSpec, PeerFailed, Topology
from .testing import run_crash_recovery, run_differential

__version__ = "1.0.0"

__all__ = [
    "Adam",
    "AdamW",
    "ChaosPolicy",
    "Checkpoint",
    "CheckpointError",
    "CorruptCheckpointError",
    "PeerFailed",
    "FP32",
    "FP64",
    "LinkSpec",
    "Topology",
    "MarkovCorpus",
    "UniformCorpus",
    "load_checkpoint",
    "load_checkpoint_state",
    "perplexity",
    "save_checkpoint",
    "MIXED",
    "MasterWeightOptimizer",
    "MetricsRegistry",
    "ModelConfig",
    "ParamStruct",
    "PrecisionPolicy",
    "SGD",
    "Strategy",
    "TrainResult",
    "TrainSpec",
    "Tracer",
    "analyze_trace",
    "load_trace",
    "run_crash_recovery",
    "run_differential",
    "strategy_names",
    "train",
    "train_elastic",
    "train_weipipe",
    "train_weipipe_dp",
    "ZOO",
    "__version__",
]
