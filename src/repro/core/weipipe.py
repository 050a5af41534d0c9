"""The WeiPipe worker engine: weight rings on the functional runtime.

This is the paper's contribution, implemented on the message-passing
substrate.  Every worker keeps *its own microbatches* resident — their
activations never leave the worker — while the weights rotate past:

* Each turn the worker receives three payloads from its ring
  predecessor: a forward-flow weight slot, a backward-flow weight slot
  and the gradient accumulator ``D`` riding with it (the paper's
  ``2 W + 1 D = 36 H^2`` per-turn volume for Llama layers).
* The schedule (a :data:`repro.core.schedule.RING_SCHEDULES` row) says
  what to compute with them: forward some slot of a new microbatch,
  backward some slot of an old one (fused, or split into a B pass and a
  W pass one revolution later), or just pass the cargo on (a bubble).
* Backward contributions are accumulated *into the circulating D*
  (quantised to the wire format each hop), replacing DP's all-reduce —
  the "update pass" of Section 3.  Below the regime boundary
  (``G S < H / 2``, where a layer's gradient outweighs its factors) a
  chunk's contribution is its factor bundle instead, posted once to the
  slot's owner, which forms the gradient: no ``D`` circulates there.
* After the final turn every slot is back at its home; the worker that
  owns a slot (holds its optimizer state, which never travels) applies
  the update and re-injects fresh weights into both flows for the next
  iteration.
* A worker initialises only the slot it owns.  Turn-0 placement of the
  forward flow is that same inject, run once at construction, so no
  worker ever draws or holds the whole model.

The worker is :class:`RingLoop`, a subclass of the loop every other
strategy runs (:class:`~repro.parallel.common.RankLoop`, DESIGN.md §22):
its turns' ``F`` / ``B`` / ``W`` ops — units ``(slot, mb)`` over the
held slot's chunks — are that loop's bodies, and elastic recovery
(:mod:`repro.parallel.elastic`) builds a fresh one per step like every
other strategy's loop, reading the model back with
:meth:`RingLoop.unshard`.  There is one ring engine (DESIGN.md §10):
every turn waits F and B, computes, waits D, adds the turn's weight
grads into it and sends it on.  Slots are arena-backed
(:class:`~repro.nn.params.ParamStruct`) buffers drawn once, at
construction, from a fabric-wide :class:`~repro.nn.params.BufferPool`,
and the ring has one ownership rule: a received slot is never recycled.
Every wire shares a slot with its sender (by reference on threads, by
mapping on processes), so a hop draws nothing and the steady-state turn
allocates nothing.  Two inputs vary what a hop does,
never what is computed:

* ``overlap`` places the turn's posts.  ``True`` (default) double-buffers
  the wire the way the paper's ``batch_isend_irecv`` prefetch does:
  next-turn receives are posted and the held W slots forwarded *before*
  this turn's compute, so the only wire wait left on the critical path
  is the consume point.  ``False`` posts the receives at the top of the
  turn that consumes them and forwards W *after* compute — the
  unhidden-wire baseline ``bench-crossover``'s posting cell races;
* ``topology`` (DESIGN.md §12) makes the weight-flow hooks
  boundary-aware: on a ring hop that crosses a group boundary a slot
  travels in full only during the first revolution and as a 24-byte
  reference afterwards.  No topology, or one group, means no hop
  crosses and the hooks are the plain send / identity.

Numerical contract: identical losses and final weights as
the serial baseline, ``train(spec, "serial")`` (exact in fp32/fp64 policies
up to accumulation order) for every ``overlap`` x ``topology`` —
enforced by ``tests/integration``.
"""

from __future__ import annotations

from dataclasses import replace
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..nn.model import (
    FACTOR_INPUTS,
    chunk_factor_numel,
    chunk_factored,
    chunk_param_count,
    factor_numel,
)
from ..nn.params import BufferPool, ParamStruct
from ..nn.precision import is_exact
from ..parallel.common import (
    Post,
    RankLoop,
    TrainResult,
    TrainSpec,
    gather_owned,
    init_opt_states,
    microbatch,
    pre_update,
    quantize_grads_,
    slot_chunk_ids,
)
from ..runtime import (
    WREF_NBYTES,
    Communicator,
    Fabric,
    Topology,
    all_gather,
    all_reduce,
    default_groups,
)
from ..runtime.transport.shm import ShmArena
from .schedule import (
    TurnTask,
    bwd_slot_held,
    fwd_home,
    fwd_slot_held,
    ring_program,
    ring_schedule,
    ring_splits_backward,
    slot_owner,
    turn_ops,
)

__all__ = [
    "train_weipipe", "slot_chunk_ids", "ring_pool_bytes",
    "RingLoop", "WREF_MARK", "HELD",
]

SlotWeights = Dict[int, ParamStruct]  # chunk id -> weights

#: a flow's tag kind, or an op -> which slot a rank holds for it at a
#: turn; ``D`` and the ``W`` pass ride with the backward flow.
HELD = {"F": fwd_slot_held, "B": bwd_slot_held, "D": bwd_slot_held, "W": bwd_slot_held}

#: first element of a weight-reference payload; the tuple is
#: ``(WREF_MARK, flow, slot_id)`` and is ledgered at WREF_NBYTES.
WREF_MARK = "hier-wref"


def ring_pool_bytes(spec: TrainSpec, world: int, rank: int, mode: str = "interleave") -> int:
    """Shared-arena bytes ``rank``'s worker draws from the fabric pool.

    The ring engine states this before fork so the process transport can
    size each rank's arena region from the spec instead of a constant:
    every slot and every factor bundle then crosses the wire as a
    descriptor at any ``H``.  The draws are the same for every topology.
    At construction they are of the owned slot ``rank - 1``: the B slot
    and the zeroed D of its dense chunks.  A factored chunk's gradient
    never travels (:meth:`RingLoop._form`): it is formed in private
    memory.  Instead each backward (a zero-bubble ring's W) that
    ``mode``'s program runs on a slot another rank owns stages that
    slot's factored bundles in one buffer (:meth:`RingLoop._stage`),
    held until the iteration's loss gather: ``(P - 1) N / P`` of them an
    iteration, one per foreign slot and microbatch of the rank's, the
    same units in every mode.  The forward flow carries the B slot
    itself (:meth:`RingLoop._inject_forward`), so the forward slot a
    rank holds is a view of its owner's buffer and nobody draws a copy.

    Budgeting rule: the arena reserves a power-of-two span per buffer
    (:meth:`ShmArena.span_nbytes`), up to 2x the payload, so the sum is
    over spans, not payload bytes.  Untouched tail pages of a span are
    never committed, so the reservation costs address space only; the
    pages a span does use are faulted in on first touch, in the rank
    that touches them (the D's zero fill at construction, the B slot's
    draw).
    """
    cfg = spec.cfg
    itemsize = np.dtype(cfg.dtype).itemsize
    tokens = spec.microbatch_size * cfg.seq_len
    owned = (rank - 1) % world

    def staged(slot: int) -> int:
        # the float elements of the slot's factored bundles: all but the token ids
        return sum(sum(chunk_factor_numel(cfg, i, tokens)) - tokens * (i == 0)
                   for i in slot_chunk_ids(slot, world, cfg.n_layers)
                   if chunk_factored(cfg, i, tokens))

    wop = "W" if ring_splits_backward(mode) else "B"
    return sum(
        ShmArena.span_nbytes(chunk_param_count(cfg, i) * itemsize)
        * (1 if chunk_factored(cfg, i, tokens) else 2)  # the B slot, and a dense D
        for i in slot_chunk_ids(owned, world, cfg.n_layers)
    ) + sum(ShmArena.span_nbytes(staged(slot) * itemsize)
            for kind, (slot, _) in ring_program(mode, world, rank, spec.n_microbatches)
            if kind == wop and slot != owned and staged(slot))


class RingLoop(RankLoop):
    """Weight-ring worker ``comm.rank``: :class:`RankLoop`'s ``F`` / ``B`` /
    ``W`` bodies, run from the ring's own turn loop (:meth:`_ring_turns`).

    A unit is ``(slot, mb)``, the unit of
    :func:`~repro.core.schedule.ring_program`; an op runs the chunks of
    the slot held on its flow (``fwd_slot`` for F, ``bwd_slot`` for B).
    A microbatch stays on the rank: slot 0 reads its tokens, the last
    slot holds its targets and in between its activation, then its
    gradient, waits in a local dict (:meth:`x_in` .. :meth:`dy_out`) —
    the stage's wire without the wire.  A dense chunk's weight gradient
    is parked until the turn's circulating ``D`` lands
    (:meth:`_accumulate`); a factored chunk's (``factored``, DESIGN.md
    §17) leaves as its factor bundle for the slot's owner, which forms
    the gradient once per iteration (:meth:`_park`, :meth:`_form`).

    Each turn a rank hops its forward slot, its backward slot and the
    ``D`` of the backward slot's dense chunks (none below the regime
    boundary) to its right, each the slot its flow holds there
    (:data:`HELD`); each backward of a slot it does not own stages its
    bundles in one pool buffer and posts them as one ``("factors", it,
    slot, mb)`` hop to the owner — by descriptor on the process wire,
    like the slots.  At the end of the iteration the losses are gathered,
    which frees the staged buffers (every owner formed before it), and
    every owner injects its updated slot at the slot's forward home, as
    it did once at construction; the call ends on gathering the model.
    """

    POSTS = (Post("turn", "hop", "F", "slot", "weight", peer="right"),
             Post("turn", "hop", "B", "slot", "weight", peer="right"),
             Post("turn", "hop", "D", "dense", "wgrad", peer="right"),
             Post("B", "hop", "factors", "factors", "act", peer="owner"),
             Post("end", "all-gather", "wp-loss", "microbatches", "loss"),
             Post("end", "hop", "inject", "slot", "weight", peer="home"),
             Post("call", "hop", "inject", "slot", "weight", peer="home"),
             Post("call", "all-gather", "wp-final", "model", "dtype"))

    @classmethod
    def build(cls, record, spec, comm, overlap: bool = True,
              topology: Optional[Topology] = None):
        """A ring of the record's mode on ``comm``.  The two-level ring
        (``record.hier``) groups ranks by ``topology``, else by the
        fabric's groups while ``comm`` is the whole fabric, else (an
        elastic step after a shrink) by the default grid of its world.
        A fresh loop starts with empty gateway caches: every shrink or
        rejoin invalidates all cached weight slots by construction."""
        if record.hier and topology is None:
            w, fabric = comm.world_size, comm.fabric
            topology = (fabric.topology if w == fabric.world_size else None) or (
                Topology.grid(w, default_groups(w)))
        return cls(comm, spec, record.schedule, overlap=overlap, topology=topology)

    @classmethod
    def pool_bytes(cls, record, spec, world):
        return max(ring_pool_bytes(spec, world, r, record.schedule) for r in range(world))

    def __init__(self, comm: Communicator, spec: TrainSpec, mode: str,
                 dp_comm: Optional[Communicator] = None,
                 overlap: bool = True,
                 topology: Optional[Topology] = None):
        super().__init__(spec, comm)
        self.topology = topology
        # group layout: the flat ring is the one-group (1xP) hierarchy.
        topo = topology if topology is not None else Topology.flat(self.world)
        #: replica group for 2-D hybrids (repro.core.hybrid): the owners
        #: of the same slot across data-parallel rings sync D here.
        self.dp_comm = dp_comm
        self.cfg = spec.cfg
        self.mode = mode
        #: ``bwd`` entries are B passes whose W rides a later ``wpass``.
        self.split = ring_splits_backward(mode)
        self.overlap = overlap
        #: weight-buffer recycler, shared by all ranks of the fabric so a
        #: slot one worker releases (an elastic step's :meth:`unshard`)
        #: serves the next draw — the zero-allocation steady state the
        #: benchmark gates.
        self.pool: BufferPool = comm.fabric.shared_pool(BufferPool)
        self.last_slot = self.world - 1
        self.w_wire = spec.precision.weight_bytes
        self.d_wire = spec.precision.weight_grad_bytes
        #: identity wire format for D => skip the quantise round trips.
        self._d_exact = is_exact(spec.precision.weight_grads, self.cfg.dtype)

        # this worker owns the slot whose backward flow starts (and ends)
        # here: its optimizer state stays put for the whole training run,
        # and it is the only slot the worker initialises.  See schedule.py
        # for the placement law.
        self.owned_slot = (self.rank - 1) % self.world
        self.ids = slot_chunk_ids(self.owned_slot, self.world, self.cfg.n_layers)
        self.bwd_slot: SlotWeights = dict(
            zip(self.ids, spec.init_chunks(self.ids, pool=self.pool))
        )
        # a factored chunk's gradient travels as factor bundles, not in D
        self.grad_slot: SlotWeights = {
            i: w.zeros_like(self.pool) for i, w in self.bwd_slot.items()
            if i not in self.factored
        }
        #: the owned slot's factored chunks' gradient, formed here each
        #: iteration; it never travels, so it is private memory.
        self.formed: SlotWeights = {
            i: w.zeros_like() for i, w in self.bwd_slot.items() if i in self.factored
        }
        # does the slot have a D (a dense chunk)?  Unit -> its chunks'
        # bundles, from a backward on a foreign slot to its ship; the
        # (rank, mb) of the other ranks' bundles for the owned slot.
        self._has_d = [any(i not in self.factored
                           for i in slot_chunk_ids(j, self.world, self.cfg.n_layers))
                       for j in range(self.world)]
        self._outgoing: Dict[Tuple[int, int], SlotWeights] = {}
        #: pool buffers the posted bundles live in, until the loss gather
        self._staged: List[np.ndarray] = []
        wop = "W" if self.split else "B"
        self._sources = [
            (r, mb) for r in range(self.world) if r != self.rank
            for kind, (slot, mb) in ring_program(mode, self.world, r, spec.n_microbatches)
            if kind == wop and slot == self.owned_slot and self.formed
        ]
        self.opt_states = dict(zip(self.ids, init_opt_states(
            spec, self.opt, list(self.bwd_slot.values()), self.ids)))
        #: forward-flow holding; empty until the construction-time inject
        #: at the end of ``__init__`` delivers slot ``-rank`` (its owner's
        #: B slot).
        self.fwd_slot: SlotWeights = {}

        self.losses_by_mb: Dict[int, float] = {}
        # mb -> its activation between F passes, then its gradient between
        # B passes; mb -> its targets, from slot 0 to the last slot.
        self._carried: Dict[int, np.ndarray] = {}
        self._targets: Dict[int, np.ndarray] = {}
        #: the turn the ring loop is running (the op spans' ``turn``).
        self.turn = 0
        # telemetry: wire-wait/compute histograms and turn counters on the
        # fabric's metrics registry.  Handles carry a rank label, so each
        # has exactly one writer.
        m = comm.fabric.metrics
        self._h_wire = m.histogram("weipipe_wire_wait_seconds", rank=self.rank)
        self._h_compute = m.histogram("weipipe_compute_seconds", rank=self.rank)
        self._m_turns = m.counter("weipipe_turns_total", rank=self.rank)
        self._m_idle_turns = m.counter("weipipe_idle_turns_total", rank=self.rank)
        self.pool_allocs_by_iter: List[int] = []
        # hybrid mode: chunk id -> preallocated all-reduce pack buffer.
        self._dp_flat: Dict[int, np.ndarray] = {}
        # this turn's (chunk id, weight grad) contributions, parked by the
        # backward passes until the circulating D has landed so that D can
        # arrive *after* the backward compute (see _ring_turns).
        self._deferred: List[Tuple[int, ParamStruct]] = []
        # boundary codec (DESIGN.md §12): whether this rank's ring send
        # (to right) / receive (from left) crosses a group boundary, and
        # the gateway cache flow -> slot id -> slot dict, emptied at the
        # start of every iteration (see _ring_turns).
        self._right_cross = topo.link_class(self.rank, comm.right) == "inter"
        self._left_cross = topo.link_class(comm.left, self.rank) == "inter"
        self._wcache: Dict[str, Dict[int, SlotWeights]] = {"F": {}, "B": {}}
        self.inter_full_sends = 0
        self.inter_ref_sends = 0
        self._m_full = m.counter("weipipe_hier_full_crossings_total",
                                 rank=self.rank)
        self._m_ref = m.counter("weipipe_hier_ref_crossings_total",
                                rank=self.rank)
        # turn-0 placement of the forward flow is the first inject: every
        # owner ships its B slot itself to that slot's forward home, the
        # way each update pass will (DESIGN.md §10).
        self._inject_forward(-1)

    # -- helpers ---------------------------------------------------------------

    def _slot_nbytes(self, slot: SlotWeights, wire: int) -> int:
        return sum(w.numel for w in slot.values()) * wire

    # -- weight-flow transport hooks -------------------------------------------
    # The turn loop moves the F/B weight slots exclusively through this
    # pair, which is where the boundary codec substitutes the payload on
    # hops that cross a group boundary — without touching the schedule,
    # the tags, or the D accumulator path.  A rank whose hops do not cross
    # (every rank of a flat or one-group ring) runs the plain send and the
    # identity resolve.

    def _send_wslot(self, flow: str, slot: SlotWeights, it: int, turn: int) -> None:
        """Forward one weight-flow slot to the right neighbour as tag
        ``(flow, it, turn)``."""
        right = self.comm.right
        if self._right_cross:
            if turn > self.world:
                # this slot already crossed this boundary during the
                # first revolution of iteration `it`: ship a reference.
                sid = HELD[flow](right, turn, self.world)
                self.comm.send((WREF_MARK, flow, sid), right,
                               (flow, it, turn), nbytes=WREF_NBYTES)
                self.inter_ref_sends += 1
                self._m_ref.add(1)
                return
            self.inter_full_sends += 1
            self._m_full.add(1)
        self.comm.send(
            slot, right, (flow, it, turn),
            nbytes=self._slot_nbytes(slot, self.w_wire),
        )

    def _resolve_wslot(self, flow: str, payload, it: int, turn: int) -> SlotWeights:
        """Turn a received weight-flow payload (tag ``(flow, it, turn)``)
        into the slot dict the compute code reads."""
        if not self._left_cross:
            return payload
        # the schedule's placement law, which the turn loop's slot check
        # also asserts: a cache-resolution bug trips the same invariant
        expected = HELD[flow](self.rank, turn, self.world)
        if (isinstance(payload, tuple) and len(payload) == 3
                and payload[0] == WREF_MARK):
            if payload[1:] != (flow, expected):
                raise AssertionError(
                    f"hier ring: reference names {payload[1]} slot "
                    f"{payload[2]} but rank {self.rank} expects {flow} slot "
                    f"{expected} at turn {turn}"
                )
            try:
                return self._wcache[flow][expected]
            except KeyError:
                raise AssertionError(
                    f"hier ring: {flow} slot {expected} referenced before "
                    f"its first-revolution crossing reached rank {self.rank}"
                ) from None
        self._wcache[flow][expected] = payload
        return payload

    def _release_slot(self, slot: SlotWeights) -> None:
        """Return a slot's arenas to the pool.

        Only legal once no rank can still read them: the caller must have
        waited this iteration's final D, which the predecessor sends
        strictly after its last compute on the objects it forwarded
        (DESIGN.md §10).
        """
        for w in slot.values():
            a = w.arena
            if a is not None:
                self.pool.release(a)

    def train(self):
        """Every iteration of the spec from the slot the constructor drew;
        the losses and the owned slot's chunks and optimizer states."""
        losses = [self.run_iteration(it) for it in range(self.spec.iters)]
        return losses, [self.bwd_slot[i] for i in self.ids], [self.opt_states[i] for i in self.ids]

    def report(self, losses, chunks, states):
        """Every rank takes part in gathering the owned slots
        (``("wp-final",)``); rank 0 reports the model, so the others do
        not ship theirs back to the launcher.  Beside the loop's ledgers
        each rank reports its wire and compute seconds, hier crossings and
        arena overflow; rank 0 its pool's allocation history and, on a
        grouped ring, the ``groups`` and ``gateways``."""
        model = gather_owned(self.comm, dict(zip(self.ids, chunks)), ("wp-final",))
        r = self.rank
        extra = {
            **self.ledgers(),
            # back-compat totals; the registry histograms are canonical.
            "wire_wait_s": {r: self._h_wire.total},
            "compute_s": {r: self._h_compute.total},
            "inter_full_sends": self.inter_full_sends,
            "inter_ref_sends": self.inter_ref_sends,
            "arena_overflow_allocs": self.pool.arena_overflow_allocs,
            "arena_overflow_bytes": self.pool.arena_overflow_bytes,
        }
        if r != 0:
            return losses, {}, extra
        extra["pool_allocs_by_iter"] = list(self.pool_allocs_by_iter)
        if self.topology is not None:
            extra["groups"] = [list(g) for g in self.topology.groups]
            extra["gateways"] = list(self.topology.gateways())
        return losses, dict(enumerate(model)), extra

    def unshard(self, chunks, states):
        """The owners' all-gather (:meth:`RankLoop.unshard`), then the D
        slots go back to the pool: past that barrier no rank reads them,
        and the B slots escape as the returned state."""
        whole = super().unshard(chunks, states)
        self._release_slot(self.grad_slot)
        return whole

    # -- RankLoop's hooks -------------------------------------------------------

    def x_in(self, it: int, unit: Tuple[int, int]):
        slot, mb = unit
        if slot == 0:
            x, self._targets[mb] = microbatch(self.spec, it, mb)
        else:
            x = self._carried.pop(mb)
        return x, self._targets.pop(mb) if slot == self.last_slot else None

    def x_out(self, it: int, unit: Tuple[int, int], x: np.ndarray) -> None:
        self._carried[unit[1]] = x

    def dy_in(self, it: int, unit: Tuple[int, int]) -> np.ndarray:
        return self._carried.pop(unit[1])

    def dy_out(self, it: int, unit: Tuple[int, int], dy: np.ndarray) -> None:
        self._carried[unit[1]] = dy

    def span(self, op: str, t0: float, it: int, unit: Tuple[int, int], **args) -> None:
        """The op's ``compute`` span, args ``{turn, slot, mb}``, and its
        time on ``weipipe_compute_seconds``."""
        dt = perf_counter() - t0
        self._h_compute.observe(dt)
        if self.trace.enabled:
            slot, mb = unit or (self.owned_slot, None)  # a formation: the owned slot
            self.trace.complete(op, "compute", t0, dt,
                                {"turn": self.turn, "slot": slot, "mb": mb, **args})

    def _accumulate(self, grads, pos: int, i: int, seam, g: ParamStruct) -> None:
        """Park chunk ``i``'s gradient for the turn's drain into ``D``."""
        self._deferred.append((i, g))

    def sync(self, it: int, grads: SlotWeights, loss: Dict[int, float]) -> float:
        """The ``("wp-loss", it)`` all-gather of every rank's per-microbatch
        ``loss`` — summed in rank, then microbatch order — and, on a
        hybrid, the owned slot's ``D`` (``grads``, in place) averaged over
        the replicas by one ``("wp-dp", it, i)`` all-reduce per chunk
        (each replica accumulated its ``1/dp`` share of microbatches)."""
        merged: Dict[int, float] = {}
        for d in all_gather(self.comm, dict(loss), tag=("wp-loss", it)):
            merged.update(d)
        if self.dp_comm is not None and self.dp_comm.world_size > 1:
            for i, g in grads.items():
                buf = self._dp_flat.get(i)
                if buf is None:
                    dtype = g.common_dtype
                    buf = self._dp_flat[i] = np.empty(
                        g.numel, dtype=dtype if dtype is not None else np.float64
                    )
                flat = all_reduce(
                    self.dp_comm, g.pack_into(buf), tag=("wp-dp", it, i),
                    nbytes_per_element=self.d_wire,
                )
                flat /= self.dp_comm.world_size
                grads[i] = g.unpack_from(flat)
                if grads[i] is not g and i not in self.formed:
                    self._release_slot({i: g})
        return sum(merged.values())

    def clip_args(self, it: int) -> Dict:
        return {"comm": self.comm, "tag": ("wp-clip", it)}

    # -- the turn loop -----------------------------------------------------------

    def run_iteration(self, it: int) -> float:
        t0 = perf_counter()
        self._ring_turns(
            it, *ring_schedule(self.mode, self.world, self.spec.n_microbatches)
        )
        self._form(it)
        # the owned slot's whole gradient: D home, and what was formed
        self.grad_slot = {i: self.formed[i] if i in self.formed else self.grad_slot[i]
                          for i in self.ids}
        # the loss gather is the iteration's barrier: past it every rank
        # has taken its last forward-flow slot, which on a shared wire is
        # the very buffer its owner's update pass writes in place.
        loss = self.sync(it, self.grad_slot, self.losses_by_mb)
        self.losses_by_mb.clear()
        # ... and every owner has formed: no rank reads a staged bundle
        for buf in self._staged:
            self.pool.release(buf)
        self._staged.clear()

        self._timed(self._h_compute, "update", "compute", {"it": it},
                    self._update_pass, it)
        # every rank's ring turns and this rank's update pass are
        # complete, so the counter is a clean per-iteration snapshot for
        # the allocation-regression gate.
        self.pool_allocs_by_iter.append(self.pool.allocations)
        pool = self.pool.as_dict()
        m = self.comm.fabric.metrics
        for key in ("allocations", "hits", "misses"):
            m.gauge(f"pool_{key}").set(pool[key])
        if self.trace.enabled:
            self.trace.counter("pool_allocations", pool["allocations"])
            self.trace.complete("iteration", "iteration", t0, perf_counter() - t0,
                                {"it": it})
        return loss / self.spec.n_microbatches

    def _timed(self, hist, name: str, cat: str, args: Dict, fn, *fargs):
        """Run ``fn(*fargs)``, observe its wall time on ``hist`` and, when
        tracing, record it as one complete span; returns what ``fn`` did."""
        t0 = perf_counter()
        out = fn(*fargs)
        dt = perf_counter() - t0
        hist.observe(dt)
        if self.trace.enabled:
            self.trace.complete(name, cat, t0, dt, args)
        return out

    def _take_w(self, nf, nb, it: int, turn: int) -> None:
        self.fwd_slot = self._resolve_wslot("F", nf.wait(), it, turn)
        self.bwd_slot = self._resolve_wslot("B", nb.wait(), it, turn)

    def _drain_deferred(self) -> None:
        """Add the turn's parked chunk contributions (already at ``1/N``:
        the loss seed carries the mean) into the circulating D at wire
        precision: the running sum itself lives in the (emulated) fp16
        buffer."""
        # chunk sums are independent and draining preserves call order,
        # so the values are bit-identical to accumulating mid-backward.
        # g is scratch so it is quantised in place, and the identity
        # formats (fp32/fp64 policies) skip the round trips.
        for i, g in self._deferred:
            if not self._d_exact:
                quantize_grads_(g, self.spec.precision)
            self.grad_slot[i].add_(g)
            if not self._d_exact:
                quantize_grads_(self.grad_slot[i], self.spec.precision)
        self._deferred.clear()

    def _ring_turns(self, it: int, total: int, task_fn) -> None:
        """The one ring loop.  Every turn:

            wait F,B -> turn_ops (B, F, W) -> wait D -> drain -> send D

        and the final hop (``t == total``, no task) is the same body up to
        the drain: it brings every slot back to its home position.

        ``overlap`` only moves the two *posting points*.  Early (True):
        the next turn's three receives are posted and the held W slots
        forwarded before this turn's compute, so the wire runs under it
        and waits sit only at the consume points.  Late (False): the
        receives are posted at the top of the turn that consumes them and
        W is forwarded after compute.  Either way the per-rank send order
        is F, B, D per turn, so tags, traffic accounting and seeded chaos
        decisions are the same message sequence.

        The backward compute runs *before* the wait for the circulating
        accumulator: local weight grads only have to be summed into D
        after they exist, so the serial per-hop D chain carries just
        wire + accumulate + send instead of the whole backward.
        """
        comm = self.comm
        early = self.overlap
        h_wire, h_compute = self._h_wire, self._h_compute

        def post(turn):
            # a D only for a slot with dense chunks
            d = self._has_d[HELD["D"](self.rank, turn, self.world)]
            return [comm.irecv(comm.left, (flow, it, turn)) if d or flow != "D" else None
                    for flow in "FBD"]

        def forward_w(turn):
            self._send_wslot("F", self.fwd_slot, it, turn)
            self._send_wslot("B", self.bwd_slot, it, turn)

        # slots are stepped (and forward copies re-injected) between
        # iterations, so cached slots never outlive their iteration.
        self._wcache = {"F": {}, "B": {}}
        posted = None
        for t in range(total + 1):
            tt0 = perf_counter()
            self.turn = t
            task: Optional[TurnTask] = task_fn(self.rank, t) if t < total else None
            nd = None
            if t > 0:
                nf, nb, nd = posted if early else post(t)  # posting point (late)
                self._timed(h_wire, "wait:slots", "wire", {"turn": t},
                            self._take_w, nf, nb, it, t)
            if task is not None:
                if early:  # posting point (early)
                    posted = post(t + 1)
                    forward_w(t + 1)
                for kind, unit in turn_ops(task):
                    slot, mb = unit
                    if slot != HELD[kind](self.rank, t, self.world):
                        raise AssertionError(f"schedule/flow mismatch: {kind} slot {slot}"
                                             f" at turn {t} on rank {self.rank}")
                    ids = slot_chunk_ids(slot, self.world, self.cfg.n_layers)
                    if kind == "F":
                        loss = self.forward(it, unit, ids, [self.fwd_slot[i] for i in ids])
                        if slot == self.last_slot:
                            self.losses_by_mb[mb] = loss
                    elif kind == "B":
                        self.backward(it, unit, [self.bwd_slot[i] for i in ids], None)
                    else:
                        self.weight(it, unit, None)
                    if kind != "F":
                        self._ship(it, unit)
            if nd is not None:
                # consume point of the circulating accumulator: its sender
                # posts D only after finishing the turn that read the
                # W slots it forwarded, so from here on those buffers (and
                # this D) are exclusively ours to mutate.
                self.grad_slot = self._timed(h_wire, "wait:D", "wire", {"turn": t}, nd.wait)
            elif t > 0:
                self.grad_slot = {}  # the held slot has no D
            if self._deferred:
                self._timed(h_compute, "accum", "compute", {"turn": t},
                            self._drain_deferred)
            if task is None:
                return
            if not early:
                forward_w(t + 1)
            if self.grad_slot:
                comm.isend(
                    self.grad_slot, comm.right, ("D", it, t + 1),
                    nbytes=self._slot_nbytes(self.grad_slot, self.d_wire),
                )
            self._m_turns.add(1)
            if task.idle:
                self._m_idle_turns.add(1)
            if self.trace.enabled:
                self.trace.complete("turn", "turn", tt0, perf_counter() - tt0,
                                    {"turn": t, "idle": task.idle})

    # -- factored gradients (DESIGN.md §10, §17) --------------------------------

    def _park(self, it: int, unit: Tuple[int, int], pos: int, i: int, bundle: dict) -> None:
        """Keep chunk ``i``'s factor bundle, quantised, for the owned slot's
        formation, or, on a slot another rank owns, as it is for the hop
        to it (:meth:`_ship`, whose staging copy quantises)."""
        slot, mb = unit
        if slot == self.owned_slot:
            self.bundles.setdefault(i, {})[mb] = self._quantized(bundle)
        else:
            self._outgoing.setdefault(unit, {})[i] = bundle

    def _ship(self, it: int, unit: Tuple[int, int]) -> None:
        """Post the op's bundles for a foreign slot, staged
        (:meth:`_stage`), to its owner as one ``("factors", it, slot,
        mb)`` hop, at the activation widths."""
        bundles = self._outgoing.pop(unit, None)
        if bundles is None:
            return
        p = self.spec.precision
        n_in, n_grad = map(sum, zip(*(factor_numel(b) for b in bundles.values())))
        slot, mb = unit
        self.comm.send(self._stage(bundles), slot_owner(slot, self.world),
                       ("factors", it, slot, mb),
                       nbytes=n_in * p.act_bytes + n_grad * p.act_grad_bytes)

    def _stage(self, bundles: Dict[int, dict]) -> Dict[int, dict]:
        """The unit's bundles as views of one pool buffer per dtype, each
        array quantised to its activation format in the copy that writes
        it (the values :meth:`_quantized` gives); the token ids stay as
        they are.  On the process wire the buffer is arena-resident, so
        the bodies cross as descriptors: no link-ring copy, no body CRC,
        no landing copy.  It is the sender's until the loss gather
        (:meth:`run_iteration`), which every owner reaches only after
        forming from it (DESIGN.md §10)."""
        p, dtype = self.spec.precision, self.cfg.dtype
        exact = is_exact(p.activations, dtype) and is_exact(p.act_grads, dtype)
        arrays = [a for b in bundles.values() for k, a in b.items() if k != "tokens"]
        free = {}  # dtype -> (buffer, next offset)
        for dt in {a.dtype for a in arrays}:
            buf = self.pool.acquire(sum(a.size for a in arrays if a.dtype == dt), dt)
            self._staged.append(buf)
            free[dt] = (buf, 0)
        staged = {}
        for i, b in bundles.items():
            staged[i] = out = {}
            for k, a in b.items():
                if k == "tokens":
                    out[k] = a
                    continue
                buf, off = free[a.dtype]
                free[a.dtype] = (buf, off + a.size)
                out[k] = view = buf[off:off + a.size].reshape(a.shape)
                view[...] = a if exact else (p.q_act if k in FACTOR_INPUTS else p.q_act_grad)(a)
        return staged

    def _form(self, it: int) -> None:
        """The owned slot's factored gradients, after the turns: the bundles
        the other ranks posted join this rank's own, and :meth:`form`
        writes each chunk's gradient into ``formed``."""
        for r, mb in self._sources:
            for i, b in self.comm.recv(r, ("factors", it, self.owned_slot, mb)).items():
                self.bundles[i][mb] = b
        self.form(it, self.formed)

    # -- update pass ----------------------------------------------------------

    def _update_pass(self, it: int) -> None:
        """Owner updates its slot and re-injects weights into both flows.

        The backward flow is home at the owner, so the update is local
        (clipped through :meth:`clip_args`, ``D`` already synced); the
        ``D`` is cleared for the next iteration, and a formed gradient
        leaves it, to be overwritten by its next formation; the forward
        flow restarts at ``fwd_home`` with the updated slot itself
        (:meth:`_inject_forward`).
        """
        pre_update(self.spec, it, self.opt, list(self.grad_slot.values()),
                   **self.clip_args(it))
        for i, w in self.bwd_slot.items():
            self.opt.step(w, self.grad_slot[i], self.opt_states[i])
            if i in self.formed:
                self.formed[i] = self.grad_slot.pop(i)
            else:
                self.grad_slot[i].zero_()
        self._inject_forward(it)

    def _inject_forward(self, it: int) -> None:
        """Ship the owned slot into the forward flow and adopt the forward
        slot that starts here.

        The owned slot sits in this worker's backward flow; the forward
        flow starts it at ``fwd_home`` with one extra P2P message (the
        peer is symmetric: worker ``p`` exchanges with worker
        ``(1 - p) mod P``).  Called with ``it = -1`` at construction — the
        turn-0 placement — and with ``it`` after each update.  The slot
        itself ships, and the receiver adopts whatever arrives: the
        owner's object on the thread wire, or a descriptor view of the
        owner's arena buffer on the process wire.  So a slot has one copy
        per host, a worker never materialises a slot it does not own, and
        an inject draws nothing.  The
        owner next writes the buffer in its next update pass, after the
        next loss gather: by then every rank has read it for the last
        time.
        """
        target = fwd_home(self.owned_slot, self.world)
        if target == self.rank:
            self.fwd_slot = self.bwd_slot
            return
        self.comm.send(
            self.bwd_slot, target, ("inject", it),
            nbytes=self._slot_nbytes(self.bwd_slot, self.w_wire),
        )
        # fwd_home(j) == rank  <=>  j == -rank
        source = slot_owner(-self.rank % self.world, self.world)
        self.fwd_slot = self.comm.recv(source, ("inject", it))


def train_weipipe(
    spec: TrainSpec,
    world_size: int,
    mode: str = "interleave",
    fabric: Optional[Fabric] = None,
    overlap: bool = True,
    topology: Optional[Topology] = None,
) -> TrainResult:
    """Train with WeiPipe (``mode`` a
    :data:`~repro.core.schedule.RING_SCHEDULES` row: "interleave",
    "naive", "zero-bubble").

    ``zero-bubble`` is this repository's functional realisation of the
    paper's conceptual zero-bubble ring (§4.3): B passes on the critical
    path, W passes deferred one ring revolution to when the slot's
    gradient accumulator next passes through.

    ``overlap`` places the ring's posts: next-turn receives and the W
    forward before this turn's compute (default), or at the top of the
    consuming turn / after compute (the ``bench-crossover`` baseline).
    ``topology`` groups the ranks: weight slots cross each group
    boundary in full once per iteration and as 24-byte references
    afterwards (DESIGN.md §12; the ``weipipe-hier`` strategy), and the
    result's ``extra`` names the ``groups`` and ``gateways``.  Neither
    changes what is computed — results are bit-identical across all four.

    ``extra["peak_inflight"]`` / ``extra["peak_pending_w"]`` map rank ->
    peak count of slot passes between F and B / B and W.

    Requires ``n_layers % world_size == 0`` and
    ``n_microbatches % world_size == 0`` (the paper's setting).
    """
    from .api import ZOO, launch  # core.api imports this module

    ring_splits_backward(mode)  # validates the mode
    if topology is not None and topology.world_size != world_size:
        raise ValueError(
            f"topology is for world_size {topology.world_size}, "
            f"training uses {world_size}"
        )
    return launch(replace(ZOO["weipipe-interleave"], schedule=mode), spec, world_size,
                  fabric, overlap=overlap, topology=topology)
