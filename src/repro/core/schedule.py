"""Turn schedules for the WeiPipe weight ring (Figures 1 and 2).

WeiPipe arranges ``P`` workers on a ring around which ``P`` *slots* of
weights rotate, one hop per *turn*.  A slot holds ``L / P`` consecutive
layer chunks.  Two weight flows circulate simultaneously (the paper's
circle diagrams show them as the two halves of the ring):

* the **forward flow** — slot ``j`` starts at worker ``(-j) mod P`` so
  that worker ``p`` meets slot 0 at turn ``p``, slot 1 at ``p+1``, ...
* the **backward flow** — slot ``j`` starts at worker ``(j+1) mod P`` so
  that slots arrive in *reverse* order exactly when a worker needs them
  for backpropagation.  Weight-gradient accumulators (``D``) ride with
  the backward flow, which is also why worker ``(j+1) mod P`` is the
  natural *owner* of slot ``j``: the fully accumulated ``D_j`` is parked
  there when the iteration ends.

Both flows move in the same direction (worker ``p`` -> ``p+1``), so the
invariant positions at turn ``t`` are::

    forward slot held by worker p:  (t - p) mod P
    backward slot held by worker p: (p - 1 - t) mod P

The schedule functions below say *what to compute* with those slots:

* :func:`naive_schedule` (Fig. 1) — rounds of ``P`` microbatches run
  strictly one after another: all-forward then all-backward, one flow
  idle at any time.  Simple, but a full extra weight flow is shipped
  without being used and the forward phase stalls behind the 2x-long
  backward phase.
* :func:`interleave_schedule` (Fig. 2) — in steady state every worker
  computes one forward (of the *next* round's microbatch, using the
  forward flow) and one backward (of the previous round's, using the
  backward flow) per turn, so both flows are busy every turn and the
  only bubbles are the pipeline fill/drain ramps.
* :func:`zero_bubble_schedule` (§4.3) — interleave with the backward
  split: B on the critical path, W one ring revolution later.

Total turns are padded to a multiple of ``P`` so every slot finishes at
its home worker, where the update pass runs.

:data:`RING_SCHEDULES` is the one table of them — the ring twin of
:data:`repro.parallel.pipeline.PIPELINE_SCHEDULES` — and its readers go
through :func:`ring_schedule` (mode -> turns + task function),
:func:`ring_splits_backward` and :func:`turn_ops` (a turn's ops in the
order the engine runs them): the ring worker, the DES builder, the
planner's time walk and the memory model (DESIGN §19).
:func:`liveness` is the one walk of a rank's op list — a ring row's
:func:`ring_program` or a pipeline's ``stage_program`` — that the memory
model charges and the runtime's ledgers are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "TurnTask",
    "fwd_home",
    "bwd_home",
    "slot_owner",
    "fwd_slot_held",
    "bwd_slot_held",
    "naive_schedule",
    "interleave_schedule",
    "zero_bubble_schedule",
    "RING_SCHEDULES",
    "ring_schedule",
    "ring_splits_backward",
    "turn_ops",
    "ring_program",
    "liveness",
]


@dataclass(frozen=True)
class TurnTask:
    """What one worker computes during one turn.

    Each entry is ``(slot index, microbatch index)`` or ``None``.
    ``bwd`` is a fused backward in the Naive/Interleave schedules and a
    *B pass* in the zero-bubble schedule, where the matching W pass
    appears as ``wpass`` one full ring revolution later.
    """

    fwd: Optional[Tuple[int, int]] = None
    bwd: Optional[Tuple[int, int]] = None
    wpass: Optional[Tuple[int, int]] = None

    @property
    def idle(self) -> bool:
        return self.fwd is None and self.bwd is None and self.wpass is None


def fwd_home(slot: int, world: int) -> int:
    """Initial (and final) worker of ``slot`` on the forward flow."""
    return (-slot) % world


def bwd_home(slot: int, world: int) -> int:
    """Initial (and final) worker of ``slot`` on the backward flow."""
    return (slot + 1) % world


def slot_owner(slot: int, world: int) -> int:
    """Worker holding optimizer state for ``slot`` — its backward home,
    where the accumulated weight gradient parks at iteration end."""
    return bwd_home(slot, world)


def fwd_slot_held(worker: int, turn: int, world: int) -> int:
    """Which forward-flow slot ``worker`` holds during ``turn``."""
    return (turn - worker) % world


def bwd_slot_held(worker: int, turn: int, world: int) -> int:
    """Which backward-flow slot ``worker`` holds during ``turn``."""
    return (worker - 1 - turn) % world


ScheduleFn = Callable[[int, int], TurnTask]


def naive_schedule(world: int, n_microbatches: int) -> Tuple[int, ScheduleFn]:
    """WeiPipe-Naive (Fig. 1): strictly sequential rounds.

    Each round handles ``P`` microbatches (one per worker) in ``3P``
    turns: worker ``p`` forwards at local turns ``p .. p+P-1`` and
    backwards at ``p+P .. p+2P-1``; the remaining turns are the bubble.
    Returns ``(total_turns, task_fn)``.
    """
    p_ = world
    if n_microbatches % p_ != 0:
        raise ValueError("n_microbatches must be divisible by world size")
    rounds = n_microbatches // p_
    round_len = 3 * p_  # 3P-2 turns of work, padded to a multiple of P
    total = rounds * round_len

    def task(worker: int, turn: int) -> TurnTask:
        if not (0 <= turn < total):
            return TurnTask()
        r, t = divmod(turn, round_len)
        mb = r * p_ + worker
        if worker <= t <= worker + p_ - 1:
            return TurnTask(fwd=(t - worker, mb))
        if worker + p_ <= t <= worker + 2 * p_ - 1:
            return TurnTask(bwd=((worker - t - 1) % p_, mb))
        return TurnTask()

    return total, task


def interleave_schedule(world: int, n_microbatches: int) -> Tuple[int, ScheduleFn]:
    """WeiPipe-Interleave (Fig. 2): overlapped rounds.

    Worker ``p`` forwards microbatch ``rP + p`` during turns
    ``rP+p .. (r+1)P+p-1`` while backwarding microbatch ``(r-1)P + p``;
    the forward consumes the forward flow in layer order while the
    backward consumes the backward flow in reverse layer order.  Fill
    (first round: no backward) and drain (last round: no forward) are
    the only idle stretches.  Returns ``(total_turns, task_fn)``.
    """
    p_ = world
    if n_microbatches % p_ != 0:
        raise ValueError("n_microbatches must be divisible by world size")
    rounds = n_microbatches // p_
    total = (rounds + 2) * p_  # covers worker P-1's drain, multiple of P

    def task(worker: int, turn: int) -> TurnTask:
        if not (0 <= turn < total):
            return TurnTask()
        rel = turn - worker
        if rel < 0:
            return TurnTask()  # pipeline fill: slot 0 has not arrived yet
        q, f = divmod(rel, p_)
        fwd = (f, q * p_ + worker) if q <= rounds - 1 else None
        bwd = (p_ - 1 - f, (q - 1) * p_ + worker) if 1 <= q <= rounds else None
        return TurnTask(fwd=fwd, bwd=bwd)

    return total, task


def zero_bubble_schedule(world: int, n_microbatches: int) -> Tuple[int, ScheduleFn]:
    """Functional WeiPipe-zero-bubble (the paper's §4.3 left unimplemented).

    The interleave schedule with the backward *split*: each turn's
    ``bwd`` entry is only the B pass (activation gradients — the
    critical-path half that unblocks the local backward chain), and the
    matching W pass is deferred exactly one full ring revolution, to the
    next time the same backward-flow slot — and the gradient accumulator
    ``D`` riding with it — passes through the worker::

        wpass(p, t) == bwd(p, t - P)

    The slot alignment is automatic: the backward slot held at turn
    ``t`` equals the one held at ``t - P`` (the flow rotates one full
    loop in ``P`` turns), so the deferred W pass always finds its ``D``
    on hand.  One extra revolution is appended so the final round's W
    passes can ride before the update.  Returns ``(total_turns,
    task_fn)``.
    """
    p_ = world
    inner_total, inner = interleave_schedule(world, n_microbatches)
    total = inner_total + p_  # one extra revolution flushes deferred Ws

    def task(worker: int, turn: int) -> TurnTask:
        if not (0 <= turn < total):
            return TurnTask()
        base = inner(worker, turn)
        deferred = inner(worker, turn - p_).bwd if turn >= p_ else None
        return TurnTask(fwd=base.fwd, bwd=base.bwd, wpass=deferred)

    return total, task


#: mode -> (schedule function, does it split the backward into B and W).
RING_SCHEDULES: Dict[str, Tuple[Callable[[int, int], Tuple[int, ScheduleFn]], bool]] = {
    "naive": (naive_schedule, False),
    "interleave": (interleave_schedule, False),
    "zero-bubble": (zero_bubble_schedule, True),
}


def _row(mode: str) -> tuple:
    try:
        return RING_SCHEDULES[mode]
    except KeyError:
        raise ValueError(
            f"unknown WeiPipe mode {mode!r}; choose from {sorted(RING_SCHEDULES)}"
        ) from None


def ring_schedule(mode: str, world: int, n_microbatches: int) -> Tuple[int, ScheduleFn]:
    """``(total_turns, task_fn)`` of ring mode ``mode``."""
    return _row(mode)[0](world, n_microbatches)


def ring_splits_backward(mode: str) -> bool:
    """Is ``mode``'s ``bwd`` entry only the B pass, its W a ``wpass``
    later?  Such a schedule keeps forward caches until the W pass."""
    return _row(mode)[1]


def turn_ops(task: TurnTask) -> Tuple[Tuple[str, Tuple[int, int]], ...]:
    """The ops of one turn as ``(kind, (slot, microbatch))``, in the order
    the engine runs them: B, F, W.

    B first: the turn's tasks belong to different microbatches and both
    slots have landed, so the order is free — and ``B(slot P-1, m)`` then
    directly follows last turn's ``F(slot P-1, m)``, whose cache the
    checkpoint still holds (``nn/checkpoint.py``), and frees its stash
    before F allocates.  W rides the backward flow, which loops every
    ``P`` turns.
    """
    return tuple(
        (kind, job)
        for kind, job in (("B", task.bwd), ("F", task.fwd), ("W", task.wpass))
        if job is not None
    )


def ring_program(
    mode: str, world: int, rank: int, n_microbatches: int
) -> List[Tuple[str, Tuple[int, int]]]:
    """Worker ``rank``'s straight-line op list: every turn's
    :func:`turn_ops`, in turn order — the ring twin of
    :func:`repro.parallel.pipeline.stage_program`."""
    total, task_fn = ring_schedule(mode, world, n_microbatches)
    return [op for t in range(total) for op in turn_ops(task_fn(rank, t))]


def liveness(ops: Sequence[Tuple[str, object]]) -> Iterator[Tuple[int, int]]:
    """The ``(held, pending)`` state after each op of one rank's program —
    a :func:`~repro.parallel.pipeline.stage_program` (a unit is the
    stage's layers) or a :func:`ring_program` (a unit is a slot's).

    ``F`` adds a held unit: its stored activations.  ``B`` frees it — or,
    in a program that splits its backward (one with ``W`` ops), moves it
    to pending: the forward cache plus the B pass's gradient bundle, until
    ``W`` frees it.  The runtime's ``peak_inflight`` / ``peak_pending_w``
    ledgers are the per-field maxima; :mod:`repro.sim.memory` charges the
    byte-weighted maximum.
    """
    split = any(kind == "W" for kind, _ in ops)
    held = pending = 0
    for kind, _ in ops:
        if kind == "F":
            held += 1
        elif kind == "B":
            held -= 1
            pending += split
        else:
            pending -= 1
        yield held, pending
