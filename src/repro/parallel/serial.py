"""Single-worker baseline: the numerical ground truth.

Every distributed strategy in this repository must reproduce this
function's losses and final weights (exactly in fp32/fp64 policies, up
to accumulation-order noise).  It is also the semantic spec: loss is the
mean over the iteration's microbatches, gradients accumulate scaled by
``1/N``, one optimizer step per iteration.

:func:`serial_step` exposes exactly one iteration as a pure function of
``(weights, optimizer state)`` — the step-boundary granularity the
elastic runtime (:mod:`repro.parallel.elastic`) snapshots and rolls back
to, and the unit checkpoint/resume must reproduce bit-for-bit.  Its loop
is :class:`~repro.parallel.common.RankLoop`'s base, from which the other
rank-symmetric strategies depart only where they must.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..nn.params import ParamStruct
from .common import RankLoop, TrainResult, TrainSpec, recompute_ledger

__all__ = ["train_serial", "serial_step"]


def serial_step(
    spec: TrainSpec,
    iteration: int,
    chunks: List[ParamStruct],
    opt_states: List[Dict],
) -> Tuple[float, List[ParamStruct], List[Dict]]:
    """One full training iteration from explicit state.

    Pure with respect to its inputs: ``chunks`` and ``opt_states`` are
    cloned, updated copies are returned alongside the iteration's mean
    loss.  ``iteration`` is relative to ``spec.start_iteration`` (the
    data/LR offset is applied inside ``microbatch``/``pre_update``).
    """
    return RankLoop(spec).pure_step(iteration, chunks, opt_states)


def train_serial(spec: TrainSpec, fabric=None) -> TrainResult:
    """Train on one worker; returns per-iteration losses and final chunks.

    The loop runs in this thread on no wire; a ``fabric`` (a ``Fabric``
    or a transport) lends it only its tracer, which records the loop's
    spans as rank 0's."""
    chunks = spec.init_chunks()
    loop = RankLoop(spec)
    tracer = getattr(fabric, "tracer", None)
    if tracer is not None:
        loop.trace = tracer.rank(0)
    losses, states = loop.train(chunks)
    return TrainResult(
        losses=losses, chunks=chunks,
        extra={"opt_state": states, "recompute": recompute_ledger(loop.ck)},
    )
