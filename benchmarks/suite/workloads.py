"""The four workloads: shapes, strategy x backend, and how one call is made.

A *call* is one public ``repro.train(...)`` of ``iters`` iterations; the
load is a closed loop of such calls (one at a time) on ``P = 2`` ranks.
Names and reasons live in the root ``BENCHMARK.json``; this file owns
the shapes.

Shapes.  The issue fixed H=128, L=4, S=2048, N=4 for the long-context
model (24 s per serial call on the sizing box).  The driver's time cap
(92 runs in 3420 s, so ~30 s per run including warm-up and the serial
oracle) and the box's timing noise (single calls scatter by ~13 %, so a
steady median needs ~10 calls per run) leave ~2 s per call.  What was
kept is what the workload is *for*: the regime ratio
``G*S / 12H = 1.33``, two microbatches per rank (so WeiPipe-Interleave
really interleaves F and B turns and 1F1B has a steady phase), two
iterations (so the second loss depends on the first update and the
buffer pool reaches steady state), flash attention and recomputation.
What was cut is size: H 128->64, S 2048->1024, L 4->2.  The wide model
keeps H=512 and cuts L 4->2, N 8->4: its point is a slot that overflows
the arena and is copied through the rings, and the 12.6 MB one-layer
slot still does (10 pool allocations per steady iteration, 1.3 GB on
the wire per call, engine overhead 70 % of the wall).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro import FP32, Adam, ModelConfig, TrainSpec, train
from repro.runtime import Fabric, ProcessTransport

__all__ = ["Workload", "WORKLOADS", "TOY_SHAPES"]

VOCAB = 256
WORLD = 2


def _adam():
    return Adam(lr=1e-3)


@dataclass(frozen=True)
class Shape:
    hidden: int
    layers: int
    heads: int
    seq: int
    microbatches: int
    flash: bool
    recompute: bool
    iters: int = 2


@dataclass(frozen=True)
class Workload:
    name: str
    strategy: str
    backend: Optional[str]  # None: serial, no runtime at all
    shape: Shape

    @property
    def world(self) -> int:
        return 1 if self.backend is None else WORLD

    def tokens_per_call(self) -> int:
        s = self.shape
        return s.iters * s.microbatches * s.seq  # G = 1

    def make_spec(self, seed: int) -> TrainSpec:
        s = self.shape
        cfg = ModelConfig(
            hidden=s.hidden, n_layers=s.layers, n_heads=s.heads,
            seq_len=s.seq, vocab=VOCAB, flash_attention=s.flash,
            dtype=np.float32,
        )
        return TrainSpec(
            cfg=cfg, n_microbatches=s.microbatches, microbatch_size=1,
            iters=s.iters, seed=seed, data_seed=seed, recompute=s.recompute,
            precision=FP32, make_optimizer=_adam,
        )

    def make_wire(self, tracer: Any = None) -> Any:
        """What ``train(..., backend=self.backend)`` would build, kept so
        its traffic ledger can be read after the call."""
        if self.backend is None:
            return None
        if self.backend == "process":
            return ProcessTransport(tracer=tracer)
        return Fabric(WORLD, tracer=tracer)

    def call(self, spec: TrainSpec, wire: Any):
        return train(spec, self.strategy, self.world, fabric=wire)

    def serial_oracle(self, spec: TrainSpec):
        return train(spec, "serial", 1)


LONG_CTX = Shape(hidden=64, layers=2, heads=2, seq=1024, microbatches=4,
                 flash=True, recompute=True)
WIDE_SHORT = Shape(hidden=512, layers=2, heads=8, seq=32, microbatches=4,
                   flash=False, recompute=False)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("serial-long-ctx", "serial", None, LONG_CTX),
        Workload("ring-long-ctx", "weipipe-interleave", "process", LONG_CTX),
        Workload("pipe-long-ctx", "1f1b", "thread", LONG_CTX),
        Workload("ring-wide-short", "weipipe-interleave", "process", WIDE_SHORT),
    )
}

#: ``--quick`` shapes: same code paths, milliseconds per call.
TOY_SHAPES = {
    LONG_CTX: Shape(hidden=16, layers=2, heads=2, seq=256, microbatches=4,
                    flash=True, recompute=True),
    WIDE_SHORT: Shape(hidden=64, layers=2, heads=8, seq=8, microbatches=4,
                      flash=False, recompute=False),
}
