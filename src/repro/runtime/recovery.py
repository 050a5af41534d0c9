"""Elastic ring-shrink recovery: survive a rank's death mid-training.

WeiPipe's defining property — the full weight flow circulates past every
rank each ring turn — means the *model* is never lost when one worker
dies; only the dead rank's share of the schedule is.  This module turns
that redundancy into a recovery protocol on top of the fail-stop
detection in :mod:`repro.runtime.communicator`:

1. **Detect** — a dead worker is recorded with
   :meth:`~repro.runtime.communicator.Fabric.fail_rank`; every survivor
   is interrupted with :class:`~repro.runtime.communicator.PeerFailed`
   at its next fabric operation (blocked receivers wake immediately).
2. **Agree** — survivors acknowledge the failure, form a recovery
   subgroup over the remaining ranks and all-gather their last
   *committed* step; the rollback target is the minimum.  Commit skew
   across ranks is at most one step: the per-step commit fence is an
   all-*gather* (not the cheaper two-rotation ring barrier, which only
   synchronises a rank with its two left neighbours), so any rank that
   completed the fence for step ``k`` proves every rank entered it —
   i.e. everyone had already committed ``k``.  Keeping the last two
   snapshots therefore guarantees every survivor holds the minimum.
3. **Roll back & shrink** — each survivor restores the agreed
   step-boundary snapshot, discards losses beyond it, and continues the
   step loop on the shrunken group; each step runs on a freshly
   namespaced subgroup so pre-crash traffic can never cross-match.

Shrink has an inverse (DESIGN.md §13).  A rank that was *confirmed* dead
by the failure detector but is in fact still running (it stalled, or its
NIC flapped) observes :class:`~repro.runtime.communicator.DeclaredDead`
at its next fabric operation and enters the **rejoin** protocol:

4. **Request** — the revived rank calls ``request_rejoin()`` and blocks
   in ``await_readmission()``.
5. **Agree** — the per-step commit fence all-gathers each survivor's
   view of the pending rejoin requests; the union is the agreed
   admission set, so every survivor extends ``alive`` identically at the
   same step boundary (no second consensus round needed).
6. **Re-grow** — the survivor leader admits the rank on the fabric
   (clearing its failure record *without* a new failure epoch) and sends
   it a state snapshot ``{step, state, losses, alive, epoch}``; the
   rejoiner resumes the loop from that boundary.  Every post-rejoin step
   runs under a fresh recovery-epoch tag namespace, so traffic from
   before the failure can never cross-match — which also means
   membership-sensitive caches (the weipipe-hier gateway cache) can
   never serve a stale entry across the membership change.

The loop is strategy-agnostic: a *step function* (see
:mod:`repro.parallel.elastic` for the one every strategy runs) runs
exactly one training iteration on a given subgroup from a given snapshot and returns
the next snapshot.  Snapshots are opaque here; the step function must
treat its input state as immutable.

The protocol assumes fail-stop failures arriving one at a time
(DESIGN.md §9): a second failure *during* recovery itself is
unrecoverable and unwinds the group through the abort path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from .collectives import all_gather
from .communicator import Communicator, DeclaredDead, PeerFailed
from .subgroup import SubCommunicator

__all__ = ["RecoveryEvent", "RejoinEvent", "ElasticResult", "elastic_worker"]


#: one training iteration: ``(subgroup, global_step, state) -> (loss, new_state)``.
#: Must be deterministic in its arguments and must not mutate ``state``.
StepFn = Callable[[Communicator, int, Any], Tuple[float, Any]]

#: commit hook: ``(completed_steps, state, losses)`` — called on the
#: lowest surviving rank after each step commits (checkpointing).
CommitHook = Callable[[int, Any, List[float]], None]


@dataclass(frozen=True)
class RecoveryEvent:
    """One successful ring-shrink recovery."""

    #: rollback target: number of completed steps the group agreed on.
    step: int
    #: the step this survivor was computing when it was notified.
    detected_at_step: int
    failed_ranks: Tuple[int, ...]
    survivors: Tuple[int, ...]

    def describe(self) -> str:
        return (
            f"rank(s) {list(self.failed_ranks)} failed during step "
            f"{self.detected_at_step}; rolled back to step {self.step} "
            f"and continued on {len(self.survivors)} rank(s) "
            f"{list(self.survivors)}"
        )


@dataclass(frozen=True)
class RejoinEvent:
    """One successful ring re-grow (the inverse of a shrink)."""

    #: step boundary at which the ring re-grew.
    step: int
    rejoined: Tuple[int, ...]
    #: alive set *after* the re-grow.
    world: Tuple[int, ...]
    #: recovery epoch the re-grown group runs under.
    epoch: int

    def describe(self) -> str:
        return (
            f"rank(s) {list(self.rejoined)} rejoined at step {self.step}; "
            f"ring re-grew to {len(self.world)} rank(s) {list(self.world)} "
            f"(epoch {self.epoch})"
        )


@dataclass
class ElasticResult:
    """Per-rank outcome of :func:`elastic_worker` (identical on every
    survivor by construction — asserted by the driver)."""

    losses: List[float]
    state: Any
    events: List[RecoveryEvent] = field(default_factory=list)
    #: the snapshot each recovery rolled back to (for differential tests:
    #: a clean run seeded from it must match the post-recovery curve).
    rollback_states: List[Any] = field(default_factory=list)
    survivors: List[int] = field(default_factory=list)
    #: ring re-grows, in order (empty unless a confirmed-dead rank came back).
    rejoins: List[RejoinEvent] = field(default_factory=list)


def elastic_worker(
    comm: Communicator,
    iters: int,
    initial_state: Any,
    run_step: StepFn,
    on_commit: Optional[CommitHook] = None,
    max_recoveries: Optional[int] = None,
    rejoin_timeout: Optional[float] = None,
) -> ElasticResult:
    """Drive ``iters`` steps of ``run_step`` with ring-shrink recovery.

    Every rank of the launching world runs this function (use
    :func:`repro.runtime.launcher.run_workers_elastic`).  Each step:
    compute on the current survivor subgroup, pass the all-gather commit
    fence, *then* commit the snapshot — so a crash anywhere leaves every
    survivor holding the last fence-confirmed state (or the one before
    it; the rollback consensus below absorbs the one-step skew the
    fence allows — see the module docstring).

    The fence doubles as the rejoin agreement point: each survivor
    gathers every peer's view of the fabric's pending rejoin requests
    and the union is admitted at this step boundary (see module
    docstring, steps 4-6).  ``max_recoveries`` bounds how many failures
    are absorbed before the worker gives up and re-raises (``None`` =
    unlimited); rejoins are unbounded (a rejoiner that is never admitted
    times out after ``rejoin_timeout``, default the fabric timeout).
    """
    alive = list(range(comm.world_size))
    # (completed_steps, state), newest last; two entries bound the skew.
    committed: List[Tuple[int, Any]] = [(0, initial_state)]
    losses: List[float] = []
    events: List[RecoveryEvent] = []
    rollback_states: List[Any] = []
    rejoins: List[RejoinEvent] = []
    epoch = 0
    step = 0

    trace = comm.trace

    while step < iters:
        comm.report_progress(step)
        try:
            # epoch > 0 keeps the tag namespace fresh even back at full
            # world: after a rejoin, plain-comm tags would cross-match
            # leftover pre-failure traffic still sitting in mailboxes.
            sub: Communicator = (
                comm
                if len(alive) == comm.world_size and epoch == 0
                else SubCommunicator(comm, alive, ("elastic", epoch))
            )
            loss, new_state = run_step(sub, step, committed[-1][1])
            # strong commit fence: completing an all-gather proves every
            # rank entered it (each rank needs a token from all others),
            # which bounds commit skew between survivors to one step.
            # The token is this rank's view of the pending rejoin
            # requests, so the fence is also the admission consensus.
            views = all_gather(
                sub, comm.pending_rejoins(), tag=("elastic-commit", epoch, step)
            )
            losses.append(loss)
            with trace.span("snapshot", "recovery", {"step": step + 1}):
                committed.append((step + 1, new_state))
                if len(committed) > 2:
                    committed.pop(0)
            step += 1
            if on_commit is not None and comm.rank == min(alive):
                on_commit(step, new_state, list(losses))
            # ring re-grow: admit every rank some survivor saw asking to
            # rejoin.  All survivors compute the same union from the same
            # gathered views, so alive/epoch advance identically without
            # another round.
            joiners = sorted(
                set().union(*(set(v or ()) for v in views)) - set(alive)
            )
            if joiners:
                leader = min(alive)
                epoch += 1
                new_alive = sorted(set(alive) | set(joiners))
                if comm.rank == leader:
                    for r in joiners:
                        comm.fabric.admit_rejoin(r, epoch, leader)
                        comm.send(
                            {
                                "step": step,
                                "state": committed[-1][1],
                                "losses": list(losses),
                                "alive": list(new_alive),
                                "epoch": epoch,
                            },
                            r,
                            ("rejoin-state", epoch, r),
                        )
                trace.instant(
                    "rejoin", "recovery",
                    {"rejoined": joiners, "step": step, "epoch": epoch},
                )
                rejoins.append(
                    RejoinEvent(
                        step=step,
                        rejoined=tuple(joiners),
                        world=tuple(new_alive),
                        epoch=epoch,
                    )
                )
                alive = new_alive
        except DeclaredDead:
            # the group confirmed *this* rank dead while it was merely
            # slow (stall / NIC flap).  Ask back in, wait for a step
            # boundary, and resume from the snapshot the leader sends.
            # The whole sequence retries: a rank whose outage outlives
            # its first admission just gets confirmed dead again and
            # re-enters once it can actually hear the group.
            while True:
                trace.instant(
                    "rejoin-request", "recovery",
                    {"rank": comm.rank, "at_step": step},
                )
                comm.request_rejoin()
                try:
                    with trace.span("await-readmission", "recovery", {}):
                        r_epoch, leader = comm.await_readmission(rejoin_timeout)
                    pkt = comm.recv(leader, ("rejoin-state", r_epoch, comm.rank))
                    break
                except DeclaredDead:
                    continue
            epoch = int(pkt["epoch"])
            alive = list(pkt["alive"])
            step = int(pkt["step"])
            committed = [(step, pkt["state"])]
            losses = list(pkt["losses"])
            rejoins.append(
                RejoinEvent(
                    step=step,
                    rejoined=(comm.rank,),
                    world=tuple(alive),
                    epoch=epoch,
                )
            )
            trace.instant(
                "rejoined", "recovery",
                {"step": step, "epoch": epoch, "world": list(alive)},
            )
        except PeerFailed:
            if max_recoveries is not None and len(events) >= max_recoveries:
                raise
            comm.acknowledge_failures()
            dead = set(comm.failed_peers())  # cumulative across recoveries
            newly_dead = sorted(set(alive) & dead)
            new_alive = [r for r in alive if r not in dead]
            if comm.rank not in new_alive or not new_alive:
                raise  # this rank was itself declared dead — unwind.
            epoch += 1
            trace.instant(
                "peer-failed", "recovery",
                {"failed": newly_dead, "detected_at_step": step},
            )
            # consensus on the rollback step: survivors can disagree by
            # at most one commit (see module docstring), so the minimum
            # is a snapshot everyone still holds.
            with trace.span(
                "re-form", "recovery", {"epoch": epoch, "survivors": new_alive}
            ):
                rsub = SubCommunicator(
                    comm, new_alive, ("elastic-recover", epoch, tuple(new_alive))
                )
                steps_all = all_gather(
                    rsub, committed[-1][0], tag=("elastic-steps", epoch)
                )
                target = min(steps_all)
            snap = next(
                (s for (st, s) in committed if st == target), None
            )
            if snap is None:  # pragma: no cover - protocol invariant
                raise AssertionError(
                    f"rank {comm.rank} cannot roll back to step {target}: "
                    f"holds {[st for st, _ in committed]}"
                )
            with trace.span("rollback", "recovery", {"to_step": target}):
                committed = [(target, snap)]
                del losses[target:]
                rollback_states.append(snap)
            events.append(
                RecoveryEvent(
                    step=target,
                    detected_at_step=step,
                    failed_ranks=tuple(newly_dead),
                    survivors=tuple(new_alive),
                )
            )
            alive = new_alive
            step = target

    return ElasticResult(
        losses=losses,
        state=committed[-1][1],
        events=events,
        rollback_states=rollback_states,
        survivors=alive,
        rejoins=rejoins,
    )
