"""Elastic fault-tolerant training: strategy step engines + driver.

Glue between the strategy zoo and the generic ring-shrink recovery loop
(:mod:`repro.runtime.recovery`).  Each supported strategy exposes one
training iteration as a *step engine* — a pure function

    ``(subgroup, global_step, ElasticState) -> (loss, ElasticState)``

over the canonical full state (all weight chunks + all per-chunk
optimizer states, replicated on every rank at step boundaries).  That
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
* WeiPipe's divisibility requirements (``L % P == 0``, ``N % P == 0``)
  survive arbitrary shrinks: each step computes on the **largest usable
  sub-ring** of the available ranks; ranks left outside the ring idle
  for that step and receive the committed state from the ring's first
  rank (so they remain valid recovery donors).

This trades per-step state replication for protocol simplicity — the
honest cost of step-boundary snapshots, acceptable in the functional
runtime where semantics, not wall-clock, are under test (DESIGN.md §9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..nn.params import ParamStruct
from ..runtime import (
    Fabric,
    SubCommunicator,
    Topology,
    default_groups,
    run_workers_elastic,
)
from ..runtime.communicator import Communicator
from ..runtime.recovery import ElasticResult, elastic_worker
from .common import TrainResult, TrainSpec, init_opt_states
from .data_parallel import dp_step
from .fsdp import fsdp_step
from .serial import serial_step

__all__ = [
    "ElasticState",
    "step_engine_for",
    "train_elastic",
]


@dataclass(frozen=True)
class ElasticState:
    """Canonical full training state at a step boundary.

    ``chunks`` are the per-layer weights and ``opt_state`` the matching
    per-layer optimizer states in the canonical (unsharded) layout.
    Treated as immutable: engines clone what they update, so snapshots
    shared between ranks of the in-process fabric stay intact.
    """

    chunks: List[ParamStruct]
    opt_state: List[Dict]


#: a strategy's core compute: one iteration on a compute subgroup.
_ComputeFn = Callable[
    [Communicator, int, ElasticState], Tuple[float, List[ParamStruct], List[Dict]]
]


def _record(strategy: str):
    """The record of ``strategy`` when its family has a step engine
    (imported late: ``core.api`` imports this package)."""
    from ..core.api import ZOO, strategy_names

    s = ZOO.get(strategy)
    if s is None or s.family not in _STEPS:
        raise ValueError(
            f"strategy {strategy!r} has no elastic step engine; "
            f"choose from {strategy_names(elastic=True)}"
        )
    return s


def _largest_world(available: int, usable: Callable[[int], bool]) -> int:
    for w in range(available, 0, -1):
        if usable(w):
            return w
    raise AssertionError("world size 1 must always be usable")  # pragma: no cover


def _compute_world_fn(s, spec: TrainSpec) -> Callable[[int], int]:
    """How many of the available ranks a strategy can actually use: the
    largest world dividing every size its record ``divides``."""
    if s.family == "serial":
        return lambda available: 1
    cfg = spec.cfg
    return lambda available: _largest_world(available, lambda w: s.divisible(
        w, layers=cfg.n_layers, heads=cfg.n_heads, ffn=cfg.ffn,
        seq=cfg.seq_len, microbatches=spec.n_microbatches,
    ))


def _ring_step(s, spec: TrainSpec) -> _ComputeFn:
    from ..core.weipipe import weipipe_step

    # the overlap placement (double-buffered nonblocking ring, pooled
    # arenas) is bit-identical to the late one, so elastic recovery
    # gets the fast path too: abandoned posted receives from a failed
    # step can never cross-match a retry because every step runs in
    # its own ("compute", global_step) tag namespace inside the
    # recovery epoch's namespace.
    def ring_step(csub, it, st):
        # a fresh worker per step re-derives the group layout from the
        # *current* compute world and starts with empty gateway caches
        # — every shrink or rejoin therefore invalidates all cached
        # weight slots by construction.
        w = csub.world_size
        topo = Topology.grid(w, default_groups(w)) if s.hier else None
        return weipipe_step(
            csub, spec, it, st.chunks, st.opt_state, mode=s.schedule, topology=topo
        )

    return ring_step


#: family -> the step engine's core compute for an elastic record.
_STEPS: Dict[str, Callable[..., _ComputeFn]] = {
    "serial": lambda s, spec: lambda csub, it, st: serial_step(
        spec, it, st.chunks, st.opt_state),
    "dp": lambda s, spec: lambda csub, it, st: dp_step(
        csub, spec, it, st.chunks, st.opt_state),
    "fsdp": lambda s, spec: lambda csub, it, st: fsdp_step(
        csub, spec, it, st.chunks, st.opt_state),
    "ring": _ring_step,
}


def step_engine_for(strategy: str, spec: TrainSpec):
    """Build the ``(sub, global_step, state) -> (loss, state)`` engine.

    Every surviving rank calls the engine each step.  The engine forms a
    per-step tag namespace (so a step's traffic can never cross-match
    another step's, even across rollbacks), shrinks to the largest
    sub-ring the strategy's divisibility constraints allow, computes,
    and forwards the committed ``(loss, state)`` to any idle ranks.
    """
    s = _record(strategy)
    compute = _STEPS[s.family](s, spec)
    compute_world = _compute_world_fn(s, spec)

    def run_step(
        sub: Communicator, global_step: int, state: ElasticState
    ) -> Tuple[float, ElasticState]:
        available = sub.world_size
        w = compute_world(available)
        if sub.rank < w:
            csub = SubCommunicator(sub, list(range(w)), ("compute", global_step))
            loss, chunks, opt_state = compute(csub, global_step, state)
            new_state = ElasticState(chunks=chunks, opt_state=opt_state)
            if sub.rank == 0:
                for r in range(w, available):
                    sub.send((loss, new_state), r, ("elastic-idle", global_step))
        else:
            loss, new_state = sub.recv(0, ("elastic-idle", global_step))
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
    survivors) and ``next_iteration`` (resume cursor).

    Pass a :class:`~repro.runtime.detector.FailureDetector` as
    ``detector`` to arm suspicion-based failure handling: a transiently
    silent rank (stall, NIC flap) is confirmed dead only after the
    adaptive phi threshold, and once it recovers it rejoins at a step
    boundary — the ring re-grows toward the full world
    (:mod:`repro.runtime.recovery`).
    """
    engine = step_engine_for(strategy, spec)
    chunks = spec.init_chunks()
    opt = spec.make_optimizer()
    initial = ElasticState(
        chunks=chunks, opt_state=init_opt_states(spec, opt, chunks)
    )

    def worker(comm: Communicator) -> ElasticResult:
        return elastic_worker(
            comm,
            iters=spec.iters,
            initial_state=initial,
            run_step=engine,
            on_commit=on_commit,
            max_recoveries=max_recoveries,
            rejoin_timeout=rejoin_timeout,
        )

    results, errors = run_workers_elastic(
        world_size, worker, timeout=timeout, fabric=fabric, detector=detector
    )
    survivors = [r for r in range(world_size) if errors[r] is None]
    if not survivors:
        raise errors[0]
    res: ElasticResult = results[survivors[0]]
    for r in survivors[1:]:
        other: ElasticResult = results[r]
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
        },
    )
