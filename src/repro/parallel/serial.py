"""Single-worker baseline: the numerical ground truth.

Every distributed strategy in this repository must reproduce this
function's losses and final weights (exactly in fp32/fp64 policies, up
to accumulation-order noise).  It is also the semantic spec: loss is the
mean over the iteration's microbatches, the loss gradient is seeded at
``1/N`` so the microbatches' gradients simply add, one optimizer step
per iteration.

Its loop is :class:`~repro.parallel.common.RankLoop`'s base, from which
the other strategies depart only where they must; the elastic driver
(:mod:`repro.parallel.elastic`) runs it one iteration at a time.
"""

from __future__ import annotations

from .common import RankLoop, TrainResult, TrainSpec, recompute_ledger

__all__ = ["train_serial"]


def train_serial(spec: TrainSpec, fabric=None) -> TrainResult:
    """Train on one worker; returns per-iteration losses and final chunks.

    The loop runs in this thread on no wire; a ``fabric`` (a ``Fabric``
    or a transport) lends it only its tracer, which records the loop's
    spans as rank 0's."""
    loop = RankLoop(spec)
    tracer = getattr(fabric, "tracer", None)
    if tracer is not None:
        loop.trace = tracer.rank(0)
    losses, chunks, states = loop.train()
    return TrainResult(
        losses=losses, chunks=chunks,
        extra={"opt_state": states, "recompute": recompute_ledger(loop.ck)},
    )
