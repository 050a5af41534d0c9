"""Elastic fault-tolerant training: one step engine for every strategy.

Glue between the strategy zoo and the generic ring-shrink recovery loop
(:mod:`repro.runtime.recovery`).  Every strategy runs one training
iteration as the same *step engine* — a pure function

    ``(subgroup, global_step, ElasticState) -> (loss, ElasticState)``

over the canonical full state (all weight chunks + all per-chunk
optimizer states, replicated on every rank at step boundaries).  The
engine builds the loop one rank of the strategy's plain call runs
(its record's ``loop.build``, as :func:`repro.core.api.launch` does) on
the compute subgroup, from a
one-iteration spec seeded with the state, so each loop's own init
shards it (:meth:`~repro.parallel.common.RankLoop.init_state`).  After
the iteration the loop's ``unshard`` hands every compute rank the whole
state again: as it stands where it is replicated (serial, DP, SP), by
FSDP's gathers, by an all-gather of TP's split tensors, and by the
owners' all-gather for a pipeline stage or a ring slot.  That
granularity is what makes recovery simple and exact:

* a snapshot is just the engine's input — keeping the last two committed
  ones (see the recovery module for the skew argument) costs memory, not
  communication;
* after a crash, survivors roll back to an agreed snapshot and re-run
  the *same* engine on a smaller group; because the engine is a pure
  function of ``(state, global step)``, the post-recovery loss curve is
  bit-identical to a from-scratch run on the shrunken world seeded from
  that snapshot — the differential property
  :func:`repro.testing.run_crash_recovery` asserts;
* the sizes a strategy splits (its record's ``divides``: layers, heads,
  ffn, sequence, microbatches) survive arbitrary shrinks: each step
  computes on the **largest usable sub-group** of the available ranks;
  ranks left outside it idle for that step and receive the committed
  state from rank 0 (so they remain valid recovery donors).

This trades per-step state replication for protocol simplicity — the
honest cost of step-boundary snapshots, acceptable in the functional
runtime where semantics, not wall-clock, are under test (DESIGN.md §9).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..nn.params import ParamStruct
from ..runtime import Fabric, SubCommunicator, run_workers_elastic
from ..runtime.communicator import Communicator
from ..runtime.recovery import ElasticResult, elastic_worker
from .common import TrainResult, TrainSpec, init_opt_states, recompute_ledger, sum_recompute

__all__ = [
    "ElasticState",
    "compute_world",
    "step_engine_for",
    "train_elastic",
]


@dataclass(frozen=True)
class ElasticState:
    """Canonical full training state at a step boundary.

    ``chunks`` are the per-layer weights and ``opt_state`` the matching
    per-layer optimizer states in the canonical (unsharded) layout.
    Treated as immutable: each loop's init clones or shards what it
    updates, so snapshots shared between ranks of the in-process fabric
    stay intact.
    """

    chunks: List[ParamStruct]
    opt_state: List[Dict]


def compute_world(strategy: str, spec: TrainSpec, available: int) -> int:
    """How many of ``available`` ranks ``strategy`` computes on: the
    largest world dividing every size its record ``divides`` (serial: 1)."""
    from ..core.api import record, sizes  # core.api imports this package

    s = record(strategy)
    if not s.loop.POSTS:
        return 1
    for w in range(available, 1, -1):
        if s.divisible(w, **sizes(spec)):
            return w
    return 1


def step_engine_for(strategy: str, spec: TrainSpec, ledgers: Dict[int, Dict[str, int]]):
    """Build the ``(sub, global_step, state) -> (loss, state)`` engine.

    Every surviving rank calls the engine each step.  The engine forms a
    per-step tag namespace (so a step's traffic can never cross-match
    another step's, even across rollbacks: a receive a failed step left
    posted never matches its retry), shrinks to the largest sub-group
    the strategy's divisibility constraints allow, runs the strategy's
    loop for one iteration from ``state``, and forwards the committed
    ``(loss, state)`` to any idle ranks.  It keeps in ``ledgers`` each
    step this rank computed, mapped to its loop's recompute ledger; a
    retried step replaces its entry.
    """
    from ..core.api import record

    s = record(strategy)

    def run_step(
        sub: Communicator, global_step: int, state: ElasticState
    ) -> Tuple[float, ElasticState]:
        available = sub.world_size
        w = compute_world(strategy, spec, available)
        if sub.rank < w:
            csub = SubCommunicator(sub, list(range(w)), ("compute", global_step))
            loop = s.loop.build(s, replace(
                spec, iters=1, start_iteration=spec.start_iteration + global_step,
                initial_chunks=state.chunks, initial_opt_state=state.opt_state,
            ), csub)
            (loss,), chunks, states = loop.train()
            new_state = ElasticState(*loop.unshard(chunks, states))
            ledgers[global_step] = recompute_ledger(loop.ck)
            if sub.rank == 0:
                for r in range(w, available):
                    sub.send((loss, new_state), r, ("elastic-idle", global_step))
        else:
            loss, new_state = sub.recv(0, ("elastic-idle", global_step))
            ledgers.pop(global_step, None)
        return loss, new_state

    return run_step


def train_elastic(
    spec: TrainSpec,
    strategy: str = "weipipe-interleave",
    world_size: int = 4,
    fabric: Optional[Fabric] = None,
    timeout: float = 120.0,
    max_recoveries: Optional[int] = None,
    on_commit=None,
    detector=None,
    rejoin_timeout: Optional[float] = None,
) -> TrainResult:
    """Train with ring-shrink recovery: worker deaths shrink the group.

    Same contract as :func:`repro.core.api.train` when nothing fails —
    identical losses and final weights for every registered strategy —
    plus fault tolerance: a crashing rank is detected at the survivors'
    next fabric operation, the group rolls back to the last jointly
    committed step snapshot and continues on ``P - 1`` ranks (then
    ``P - 2`` on a further failure, and so on, down to 1).

    ``on_commit(completed_steps, ElasticState, losses)`` fires on the
    lowest surviving rank after each committed step — the hook the CLI
    uses for periodic durable checkpoints.

    The returned :class:`TrainResult` carries, in ``extra``:
    ``opt_state`` (canonical final optimizer state), ``recovery_events``
    (list of :class:`~repro.runtime.recovery.RecoveryEvent`),
    ``rollback_states`` (the snapshots recoveries restarted from),
    ``rejoin_events`` (list of
    :class:`~repro.runtime.recovery.RejoinEvent` — ring re-growths),
    ``survivors``, ``worker_errors`` (per launch rank; ``None`` for
    survivors), ``next_iteration`` (resume cursor) and ``recompute``
    (the survivors' recompute ledgers, summed over steps and ranks).

    Pass a :class:`~repro.runtime.detector.FailureDetector` as
    ``detector`` to arm suspicion-based failure handling: a transiently
    silent rank (stall, NIC flap) is confirmed dead only after the
    adaptive phi threshold, and once it recovers it rejoins at a step
    boundary — the ring re-grows toward the full world
    (:mod:`repro.runtime.recovery`).
    """
    from ..core.api import record

    # the plain call's validation, at the world it starts computing on
    record(strategy).check(spec, compute_world(strategy, spec, world_size))
    chunks = spec.init_chunks()
    opt = spec.make_optimizer()
    initial = ElasticState(
        chunks=chunks, opt_state=init_opt_states(spec, opt, chunks)
    )

    def worker(comm: Communicator) -> Tuple[ElasticResult, Dict]:
        ledgers: Dict[int, Dict[str, int]] = {}  # step -> its ledger
        return elastic_worker(
            comm,
            iters=spec.iters,
            initial_state=initial,
            run_step=step_engine_for(strategy, spec, ledgers),
            on_commit=on_commit,
            max_recoveries=max_recoveries,
            rejoin_timeout=rejoin_timeout,
        ), ledgers

    results, errors = run_workers_elastic(
        world_size, worker, timeout=timeout, fabric=fabric, detector=detector
    )
    survivors = [r for r in range(world_size) if errors[r] is None]
    if not survivors:
        raise errors[0]
    res: ElasticResult = results[survivors[0]][0]
    for r in survivors[1:]:
        other: ElasticResult = results[r][0]
        if other.losses != res.losses:  # pragma: no cover - invariant
            raise AssertionError(
                f"survivors disagree on the loss curve: rank {survivors[0]} "
                f"{res.losses} vs rank {r} {other.losses}"
            )
    return TrainResult(
        losses=list(res.losses),
        chunks=res.state.chunks,
        extra={
            "opt_state": res.state.opt_state,
            "recovery_events": list(res.events),
            "rejoin_events": list(res.rejoins),
            "rollback_states": list(res.rollback_states),
            "survivors": list(res.survivors),
            "worker_errors": list(errors),
            "next_iteration": spec.start_iteration + spec.iters,
            # summed over steps and the surviving compute ranks
            "recompute": sum_recompute(
                led for r in survivors for led in results[r][1].values()),
        },
    )
