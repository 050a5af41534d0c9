"""Shared scaffolding for all training strategies.

A :class:`TrainSpec` pins down everything that defines a training run —
model, data, optimizer, precision, recomputation, microbatching — so
that every strategy (serial, DP, FSDP, TP, SP, GPipe, 1F1B, ZB, WeiPipe)
trains *the same problem* and can be compared for numerical equivalence.

Data is synthetic next-token prediction over random token streams
(:func:`microbatch`): a pure function of ``(data_seed, iteration,
microbatch index)``, so any worker can materialise any microbatch
without a shared data loader — exactly how the equivalence tests keep
strategies honest.

Every strategy — serial, DP, FSDP, TP, SP, the pipeline stage and the
weight ring — runs the rank's program of ``F`` / ``B`` / ``W`` ops
through :class:`RankLoop`'s one body per op.  Each keeps only where it
departs from serial.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from numpy.random import default_rng

from ..nn import functional as F
from ..nn.checkpoint import CheckpointedChunk
from ..nn.layer import Seam, draw_scratch, layer_param_count
from ..nn.model import (
    FACTOR_INPUTS,
    ModelConfig,
    chunk_factor_numel,
    chunk_factored,
    chunk_factors,
    chunk_form,
    chunk_param_count,
    init_chunk,
    rope_tables,
)
from ..nn.params import BufferPool, ParamStruct
from ..nn.precision import FP32, PrecisionPolicy, is_exact
from ..obs.tracer import NULL_RANK_TRACER
from ..optim.optimizer import SGD, Optimizer, clone_opt_state
from ..runtime.collectives import all_gather
from ..runtime.topology import WREF_NBYTES

__all__ = [
    "TrainSpec",
    "TrainResult",
    "microbatch",
    "quantize_grads",
    "quantize_grads_",
    "init_opt_states",
    "ChunkSeam",
    "Post", "Sizes", "PASSES",
    "RankLoop",
    "slot_chunk_ids",
    "gather_owned",
    "recompute_ledger",
    "sum_recompute",
]


#: the smallest chunk, in elements, that :meth:`TrainSpec.init_chunks`
#: draws on more than one thread.  A thread start costs ~0.1-0.3 ms and
#: 2^20 float64 normals ~15 ms, so from here on the start is lost in the
#: draw; the suite's long-context chunks (~65 k) stay sequential.
CONCURRENT_DRAW_MIN = 1 << 20


def slot_chunk_ids(slot: int, world: int, n_layers: int) -> List[int]:
    """Chunk indices of unit ``slot`` of ``world`` — a pipeline stage or
    a weight-ring slot: contiguous, ``L/P`` each."""
    if n_layers % world != 0:
        raise ValueError("n_layers must be divisible by world size")
    per = n_layers // world
    return list(range(slot * per, (slot + 1) * per))


def gather_owned(comm, owned: Dict[int, object], tag: Tuple) -> List:
    """Every rank's ``{chunk id: value}`` of the chunks it owns,
    all-gathered into one list in layer order on every rank."""
    merged: Dict[int, object] = {}
    for d in all_gather(comm, owned, tag=tag):
        merged.update(d)
    return [merged[i] for i in range(len(merged))]


def usable_cores() -> int:
    """Cores this process may run on: its affinity mask, or the
    machine's count where there is none (macOS)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclass
class TrainSpec:
    """Complete description of one training problem.

    ``n_microbatches`` is the paper's ``N`` (per iteration) and
    ``microbatch_size`` its ``G``.  ``recompute`` toggles gradient
    checkpointing (the paper enables it for 1F1B/FSDP/WeiPipe, disables
    it for the ZB baselines).  ``seed`` names the weight-init streams —
    chunk ``i`` is drawn from ``(seed, i)``, as microbatch ``i`` of
    iteration ``t`` is from ``(data_seed, t, i)`` — so any worker can
    materialise exactly the chunks it holds (:meth:`init_chunks`).
    """

    cfg: ModelConfig
    n_microbatches: int = 4
    microbatch_size: int = 2
    iters: int = 1
    seed: int = 0
    data_seed: int = 1234
    recompute: bool = False
    precision: PrecisionPolicy = field(default_factory=lambda: FP32)
    make_optimizer: Callable[[], Optimizer] = field(
        default_factory=lambda: (lambda: SGD(lr=0.1))
    )
    #: optional LR schedule: iteration -> multiplier on the base lr.
    lr_schedule: Optional[Callable[[int], float]] = None
    #: optional global-L2-norm gradient clipping threshold.
    clip_norm: Optional[float] = None
    #: optional data source with a deterministic
    #: ``microbatch(iteration, index, g, s)`` method (see repro.data);
    #: None means i.i.d. uniform tokens.
    data: Optional[object] = None
    #: optional starting weights (e.g. from repro.io.load_checkpoint);
    #: None means fresh deterministic init from ``seed``.
    initial_chunks: Optional[List[ParamStruct]] = None
    #: optional per-chunk optimizer states to resume from (canonical
    #: full-tensor layout, as produced by ``opt.init_state(chunk)``);
    #: None means fresh zero state.  Strategies that shard state (FSDP,
    #: TP) re-shard it on entry (:func:`init_opt_states`).
    initial_opt_state: Optional[List[Dict]] = None
    #: global iteration this run starts at (resume offset).  Applied
    #: centrally in :func:`microbatch` (data selection) and
    #: :func:`pre_update` (LR schedule), so iteration ``it`` of this run
    #: trains global iteration ``start_iteration + it`` under *every*
    #: strategy — a checkpointed run continued for the remaining
    #: iterations sees the same data and LR as the uninterrupted one.
    start_iteration: int = 0

    def __post_init__(self):
        if self.n_microbatches < 1:
            raise ValueError("need at least one microbatch")
        if self.iters < 1:
            raise ValueError("need at least one iteration")

    def init_chunks(
        self,
        ids: Optional[Sequence[int]] = None,
        pool: Optional[BufferPool] = None,
    ) -> List[ParamStruct]:
        """Starting weight chunks: either a deterministic fresh init from
        ``seed``, quantised to the storage precision so all strategies
        start identically, or the ``initial_chunks`` override (resume, an
        elastic step) as it stands, so a run continued from a saved state
        equals the uninterrupted run (an optimizer's update under the
        FP32 policy on float64 arrays is not an fp32 value).

        ``ids`` names the chunks wanted, returned in that order (default:
        all ``n_layers``).  Only those are drawn — every chunk has its own
        init stream (:func:`~repro.nn.model.init_chunk`) — or cloned, so a
        worker that holds ``1/P`` of the model pays for ``1/P`` of it and
        never aliases the caller's ``initial_chunks``.  With ``pool`` the
        chunks are drawn (or cloned) into buffers acquired from it, for a
        worker whose slots must live there.  Large draws run on every core
        (:meth:`_draw`).
        """
        if ids is None:
            ids = range(self.cfg.n_layers)
        if self.initial_chunks is not None:
            if len(self.initial_chunks) != self.cfg.n_layers:
                raise ValueError("initial_chunks do not match the model config")
            return [self.initial_chunks[i].clone(pool) for i in ids]
        chunks = self._draw(list(ids), pool)
        # in place (the chunks are ours, and a pooled buffer stays one),
        # and not at all where the storage format is the array's own.
        q, fmt = self.precision.q_weight, self.precision.weights
        for c in chunks:
            for a in c.values():
                if not is_exact(fmt, a.dtype):
                    a[...] = q(a)
        return chunks

    def _draw(
        self, ids: List[int], pool: Optional[BufferPool]
    ) -> List[ParamStruct]:
        """Fresh chunks ``ids`` from their own streams.

        Two or more chunks of at least :data:`CONCURRENT_DRAW_MIN`
        elements are drawn on ``min(len(ids), usable_cores())`` threads,
        this one among them; each chunk reads only its own stream, so the
        result is the sequential draw's, byte for byte.  Every buffer
        (``pool``'s, else ``np.empty``) and every float64 scratch is
        acquired here, on the calling thread, before any draw: a thread
        that allocated its chunk itself would leave the block cached in
        its own glibc arena, tens of MB of RSS in every rank forked later.
        The threads are joined before return, so a launch that forks next
        forks no thread.
        """
        cfg = self.cfg
        sizes = [chunk_param_count(cfg, i) for i in ids]
        bufs = [
            pool.acquire(n, cfg.dtype) if pool is not None
            else np.empty(n, dtype=cfg.dtype)
            for n in sizes
        ]
        n_threads = 1
        if len(ids) > 1 and min(sizes) >= CONCURRENT_DRAW_MIN:
            n_threads = min(len(ids), usable_cores())
        scratches = [draw_scratch() for _ in range(n_threads)]
        chunks: List[Optional[ParamStruct]] = [None] * len(ids)
        errors: List[BaseException] = []

        def draw(k: int) -> None:
            try:
                for j in range(k, len(ids), n_threads):
                    chunks[j] = init_chunk(
                        cfg, self.seed, ids[j], bufs[j], scratches[k]
                    )
            except BaseException as e:  # re-raised on the calling thread
                errors.append(e)

        threads: List[threading.Thread] = []
        try:
            for k in range(1, n_threads):
                t = threading.Thread(target=draw, args=(k,))
                t.start()
                threads.append(t)
            draw(0)
        finally:
            for t in threads:
                t.join()
        if errors:
            raise errors[0]
        return chunks

    def rope(self) -> Tuple[np.ndarray, np.ndarray]:
        return rope_tables(self.cfg)


def microbatch(
    spec: TrainSpec, iteration: int, index: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic microbatch ``index`` of ``iteration``.

    Delegates to ``spec.data`` when set (see :mod:`repro.data`); the
    default is uniform random tokens with next-token targets.  The seed
    mixes iteration and index so microbatches never repeat but any rank
    can regenerate any of them — the property every distributed strategy
    relies on instead of a shared data loader.
    """
    g, s, v = spec.microbatch_size, spec.cfg.seq_len, spec.cfg.vocab
    iteration = spec.start_iteration + iteration  # resume offset
    if spec.data is not None:
        tokens, targets = spec.data.microbatch(iteration, index, g, s)
        if tokens.shape != (g, s) or targets.shape != (g, s):
            raise ValueError(
                f"data source returned shape {tokens.shape}, expected {(g, s)}"
            )
        if tokens.max() >= v or targets.max() >= v:
            raise ValueError("data source produced token ids >= vocab")
        return tokens, targets
    rng = default_rng((spec.data_seed, iteration, index))
    stream = rng.integers(0, v, size=(g, s + 1))
    return stream[:, :-1], stream[:, 1:]


def init_opt_states(
    spec: TrainSpec,
    opt: Optimizer,
    chunks: List[ParamStruct],
    ids: Optional[Sequence[int]] = None,
    shard: Callable[[Dict], Dict] = clone_opt_state,
) -> List[Dict]:
    """Optimizer states of ``chunks``, the model's chunks ``ids`` (default
    all): fresh, or — on a checkpoint / elastic-snapshot resume — each
    chunk's ``spec.initial_opt_state`` entry, copied by ``shard`` (which
    also cuts it to the rank's shard where the rank holds one)."""
    if spec.initial_opt_state is None:
        return [opt.init_state(c) for c in chunks]
    if len(spec.initial_opt_state) != spec.cfg.n_layers:
        raise ValueError(
            f"initial_opt_state has {len(spec.initial_opt_state)} "
            f"entries, expected {spec.cfg.n_layers}"
        )
    ids = range(len(chunks)) if ids is None else ids
    return [shard(spec.initial_opt_state[i]) for i in ids]


def quantize_grads(grads: ParamStruct, policy: PrecisionPolicy) -> ParamStruct:
    """Quantise weight gradients to their wire format (paper: fp16 ``D``)."""
    q = policy.q_weight_grad
    return grads.map(lambda a: q(a).astype(a.dtype, copy=False))


def quantize_grads_(grads: ParamStruct, policy: PrecisionPolicy) -> ParamStruct:
    """In-place variant of :func:`quantize_grads` — same values, zero
    struct churn.  The overlap hot path (DESIGN.md §10) uses this so the
    circulating D keeps its arena across ring turns."""
    q = policy.q_weight_grad
    for a in grads.values():
        a[...] = q(a)
    return grads


def pre_update(
    spec: "TrainSpec",
    iteration: int,
    opt: Optimizer,
    grads: list,
    comm=None,
    count=None,
    tag: tuple = ("clip",),
) -> None:
    """Common pre-optimizer hook: LR schedule + global-norm clipping.

    ``grads`` is this worker's list of gradient :class:`ParamStruct`
    shards (mutated in place when clipping fires); ``comm`` is the
    communicator for the scalar norm all-reduce (``None`` when the
    worker already holds complete gradients, e.g. serial or post-
    all-reduce DP); ``count`` filters parameter names whose squares this
    worker contributes (used by TP to count replicated tensors once).
    Every strategy calls this at the same point — right before its
    optimizer steps — so scheduled/clipped runs stay equivalent.
    """
    if spec.lr_schedule is not None:
        opt.set_lr_scale(spec.lr_schedule(spec.start_iteration + iteration))
    if spec.clip_norm is not None:
        from ..optim.clip import apply_scale, global_clip_scale, local_sumsq

        scale = global_clip_scale(
            comm, local_sumsq(grads, count), spec.clip_norm, tag=tag
        )
        apply_scale(grads, scale)


class ChunkSeam(Seam):
    """A layer :class:`~repro.nn.layer.Seam` that also meets the other
    ranks around one chunk's ops in :meth:`RankLoop.step`: :meth:`gather`
    hands the ``"F"`` or ``"B"`` op the weights it runs, :meth:`reduce`
    takes the chunk's quantised gradient to what the rank accumulates.
    This base is the identity everywhere — a rank that holds the whole
    chunk and keeps its whole gradient.  Only such a rank may carry a
    gradient as factors (DESIGN.md §17): a loop whose seam reduces each
    microbatch's dense gradient, or splits the chunk, keeps it dense
    (:attr:`RankLoop.whole`)."""

    def gather(self, w: ParamStruct, op: str) -> ParamStruct:
        return w

    def reduce(self, g: ParamStruct) -> ParamStruct:
        return g


#: ring passes per collective: an all-reduce is a reduce-scatter plus an
#: all-gather.
PASSES = {"all-gather": 1, "reduce-scatter": 1, "all-reduce": 2}

#: a loss crosses the wire as a float64 scalar, whatever the precision.
LOSS_NBYTES = 8


@dataclass(frozen=True)
class Post:
    """One row of a loop's message table (``POSTS``, DESIGN §23): what the
    loop posts, as data.

    ``when`` is where its program posts it: ``"F"`` / ``"B"`` around that
    op — a collective around each chunk (a gather before it, the rest
    after), a hop once, with the op's output — ``"turn"`` on each ring
    turn, ``"end"`` once per iteration, ``"call"`` once per training call.
    ``what`` is ``"hop"``, one message to ``peer``, or a ring collective
    (:data:`PASSES`) over a buffer; ``kind`` the tag kind the fabric
    ledgers it under; ``unit`` and ``width`` its payload or buffer
    (:meth:`Sizes.nbytes`); an instance posts ``count`` of them.  A hop
    of no bytes is not posted."""

    when: str
    what: str
    kind: str
    unit: str
    width: str
    count: int = 1
    peer: str = "ring"

    def across(self, nbytes: int) -> int:
        """What a hop of ``nbytes`` carries once its slot has crossed this
        group boundary this iteration (DESIGN §12): a weight slot hops as
        a ``WREF_NBYTES`` reference."""
        return WREF_NBYTES if self.width == "weight" else nbytes


@dataclass(frozen=True)
class Sizes:
    """What a :class:`Post` is sized from: the model (a ``ModelConfig``, or
    the simulator's ``WorkloadDims``), ``G``, ``N``, the world, and the
    widths in bytes of the ``act`` / ``act_grad`` / ``weight`` / ``wgrad``
    wire formats and of the arrays themselves (``dtype``, what a payload
    posted without a size ledgers at)."""

    cfg: ModelConfig
    microbatch: int
    n_microbatches: int
    world: int
    widths: Dict[str, int]

    def nbytes(self, post: Post, i: int = 0, crossed: bool = False) -> int:
        """Bytes of one of ``post``'s hops, or of the buffer one of its
        collectives runs over, for chunk or slot ``i``.  A weight slot that
        already crossed this group boundary this iteration (``crossed``,
        DESIGN §12) hops as a reference (:meth:`Post.across`)."""
        cfg, unit = self.cfg, post.unit
        tokens = self.microbatch * cfg.seq_len
        if unit in ("dense", "factors"):
            # a slot's chunks whose gradient is dense / carried as factors
            ids = [j for j in slot_chunk_ids(i, self.world, cfg.n_layers)
                   if chunk_factored(cfg, j, tokens) == (unit == "factors")]
            if unit == "factors":  # inputs at the activation width, the rest its gradient's
                parts = [chunk_factor_numel(cfg, j, tokens) for j in ids]
                return sum(a * self.widths["act"] + g * self.widths["act_grad"] for a, g in parts)
            n = sum(chunk_param_count(cfg, j) for j in ids)
        elif unit in ("chunk", "slot", "model"):
            ids = ({"chunk": [i], "model": range(cfg.n_layers)}.get(unit)
                   or slot_chunk_ids(i, self.world, cfg.n_layers))
            n = sum(chunk_param_count(cfg, j) for j in ids)
        else:
            layer = layer_param_count(cfg.hidden, cfg.ffn)
            n = {
                "act": self.microbatch * cfg.seq_len * cfg.hidden,
                # a TP rank's column- and row-split layer tensors
                "split": (layer - 2 * cfg.hidden) // self.world,
                # a slot's decoder layers alone, the paper's 12 H^2 each
                "layers": cfg.n_layers // self.world * layer,
                "one": 1, "ranks": self.world, "microbatches": self.n_microbatches,
            }[unit]
        nbytes = n * (LOSS_NBYTES if post.width == "loss" else self.widths[post.width])
        return post.across(nbytes) if crossed else nbytes


class RankLoop:
    """One rank's program of ``F`` / ``B`` / ``W`` ops: serial, DP, FSDP,
    TP, SP, a pipeline stage or a weight-ring worker.

    They share one body per op.  :meth:`step` runs the rank's
    :meth:`program` — ``(kind, mb)`` ops — over the chunks it holds
    (``ids``), each chunk through its :class:`ChunkSeam`.  ``F`` runs
    every chunk's forward and, where the rank holds the targets, the loss
    (one ``F`` span).  ``B`` runs every backward (one ``B`` span, its
    ``args["replayed"]`` the replays it ran): fused, or on a ``split``
    program the input-gradient half only, parking each chunk's ``(cache,
    wcache)`` for the unit's ``W`` op (one ``W`` span).  Then the
    end-of-iteration sync, clipping and the optimizer step, the whole in
    one ``iteration`` span.  ``peak_inflight`` / ``peak_pending_w`` count
    the most units held between F and B / B and W.

    This base is serial: the whole model, and the program ``[F(mb),
    B(mb)]*`` that ``core.api.rank_programs`` gives the rank-symmetric
    families.  A strategy overrides only where it departs from it: the
    microbatches it runs (:meth:`microbatches`), the seam of each chunk
    (:meth:`seam`), the share of each microbatch's positions
    (``positions`` of ``parts``), the sync (:meth:`sync`) and the
    clipping norm's collective (:meth:`clip_args`); a pipeline stage
    also its ``ids``, its :meth:`program` and where a forward's input
    and a backward's gradient come from and go (:meth:`x_in`,
    :meth:`x_out`, :meth:`dy_in`, :meth:`dy_out`).  The weight ring
    (``core.weipipe.RingLoop``) runs the three ops from its own turn
    loop, on units ``(slot, mb)`` over the held slot's chunks, and also
    overrides the op spans (:meth:`span`) and where a gradient goes
    (:meth:`_accumulate`).
    """

    #: each microbatch's positions are split this many ways; the rank
    #: runs ``positions`` of them.
    parts = 1
    positions = slice(None)
    #: does the program run each backward's W apart from its B?
    split = False
    #: does the rank keep each chunk's whole gradient?  Only then may a
    #: thin chunk's leave its backward as factors (DESIGN.md §17): FSDP's,
    #: TP's and SP's seams reduce or split it, so they stay dense.
    whole = True
    #: the messages the loop posts (:class:`Post`): serial posts none.
    POSTS: Tuple[Post, ...] = ()

    def __init__(self, spec: TrainSpec, comm=None):
        self.spec, self.comm = spec, comm
        self.rank, self.world = (0, 1) if comm is None else (comm.rank, comm.world_size)
        self.trace = NULL_RANK_TRACER if comm is None else comm.trace
        self.ids: Sequence[int] = range(spec.cfg.n_layers)
        self.ck = CheckpointedChunk(spec.cfg, recompute=spec.recompute)
        self.opt = spec.make_optimizer()
        self.cos, self.sin = spec.rope()
        self._whole = ChunkSeam(spec.cfg.n_heads)
        #: the ``iteration`` span's args beside ``it``.
        self.span_args: Dict = {}
        # unit -> (ids, seams, forward states, loss cache), from F to B
        self.inflight: Dict[object, tuple] = {}
        # unit -> (ids, seams, [(chunk position, cache, wcache), ...]), B to W
        self.pending_w: Dict[object, tuple] = {}
        #: chunks thin enough to carry their gradient as factors, on a
        #: loop that keeps it whole (DESIGN.md §17)
        tokens = spec.microbatch_size * spec.cfg.seq_len
        self.factored = {i for i in range(spec.cfg.n_layers)
                         if self.whole and chunk_factored(spec.cfg, i, tokens)}
        # chunk position -> mb -> factor bundle, from B (or W) to form()
        self.bundles: Dict[int, Dict[object, dict]] = {}
        self.peak_inflight = self.peak_pending_w = 0

    @classmethod
    def build(cls, record, spec: TrainSpec, comm) -> "RankLoop":
        """The loop one rank of ``record`` (a ``core.api.Strategy``) runs
        on ``comm``; the launcher and the elastic step engine both build
        it here."""
        return cls(spec, comm)

    @classmethod
    def check(cls, spec: TrainSpec, world: int) -> None:
        """Refuse, before any worker starts, a ``spec`` the loop cannot run
        on ``world`` ranks beyond what its record ``divides``.  A loop that
        posts nothing has no wire: it runs on one worker."""
        if not cls.POSTS and world != 1:
            raise ValueError("serial strategy runs on exactly one worker")

    @classmethod
    def pool_bytes(cls, record, spec: TrainSpec, world: int) -> Optional[int]:
        """The most bytes one rank draws from the fabric's buffer pool
        (``run_workers``' ``pool_bytes``); ``None``: no statement."""
        return None

    def microbatches(self) -> Sequence[int]:
        return range(self.spec.n_microbatches)

    def program(self) -> List[Tuple[str, int]]:
        """The rank's ops of one iteration, ``(kind, mb)`` pairs."""
        return [(kind, mb) for mb in self.microbatches() for kind in "FB"]

    def seam(self, key: Tuple[int, int, int]) -> ChunkSeam:
        """The seam of chunk ``i`` for microbatch ``mb`` of iteration
        ``it``, ``key = (it, mb, i)``."""
        return self._whole

    def x_in(self, it: int, mb: int) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """The forward's input and, where the rank computes the loss, the
        targets (else ``None``)."""
        tokens, targets = microbatch(self.spec, it, mb)
        return tokens[:, self.positions], targets[:, self.positions]

    def x_out(self, it: int, mb: int, x: np.ndarray) -> None:
        """Where the forward's output goes on a rank without the loss."""

    def dy_in(self, it: int, mb: int) -> np.ndarray:
        """The backward's output gradient on a rank without the loss."""

    def dy_out(self, it: int, mb: int, dy: np.ndarray) -> None:
        """Where the backward's input gradient goes on a rank without the
        first chunk (whose backward leaves none)."""

    def sync(self, it: int, grads: List[ParamStruct], loss: float) -> float:
        """End-of-iteration collectives over the accumulated ``grads`` (in
        place) and the rank's ``loss`` sum; returns the sum over ranks."""
        return loss

    def clip_args(self, it: int) -> Dict:
        """:func:`pre_update`'s collective keywords, for a rank whose
        gradients are shards (TP, FSDP) or a part of the model (a stage)."""
        return {}

    def init_state(self) -> Tuple[List[ParamStruct], List[Dict]]:
        """The rank's chunks ``ids`` and their optimizer states, from the
        spec (:meth:`TrainSpec.init_chunks`, :func:`init_opt_states`)."""
        chunks = self.spec.init_chunks(self.ids)
        return chunks, init_opt_states(self.spec, self.opt, chunks, self.ids)

    def train(self) -> Tuple[List[float], List[ParamStruct], List[Dict]]:
        """Every iteration of the spec in place from :meth:`init_state`;
        returns the losses and the rank's final chunks and states."""
        chunks, states = self.init_state()
        return [self.step(it, chunks, states) for it in range(self.spec.iters)], chunks, states

    def unshard(
        self, chunks: List[ParamStruct], states: List[Dict]
    ) -> Tuple[List[ParamStruct], List[Dict]]:
        """The whole model's chunks and optimizer states, in layer order,
        on every rank, from what each rank holds after :meth:`train`.
        This base holds whole chunks ``ids``: all of them (serial, DP, SP)
        are the whole model already; a part of them (a pipeline stage, a
        ring slot) is all-gathered from their owners (:func:`gather_owned`)."""
        if len(self.ids) == self.spec.cfg.n_layers:
            return chunks, states
        pairs = gather_owned(self.comm, dict(zip(self.ids, zip(chunks, states))), ("owned",))
        return [c for c, _ in pairs], [s for _, s in pairs]

    def ledgers(self) -> Dict:
        """The rank's ledgers for a call's ``extra``: its peak counts,
        keyed by its rank, and its recompute ledger."""
        return {"peak_inflight": {self.rank: self.peak_inflight},
                "peak_pending_w": {self.rank: self.peak_pending_w},
                "recompute": recompute_ledger(self.ck)}

    def report(self, losses: List[float], chunks: List[ParamStruct], states: List[Dict]):
        """What the rank hands the launcher after :meth:`train`: its losses,
        the chunks it reports by id and its ``extra``.  A rank holding a
        part of the model (a pipeline stage) reports its chunks; of ranks
        that each hold the whole (serial's, DP's, SP's replicas) rank 0
        reports it, with its optimizer states."""
        if len(self.ids) < self.spec.cfg.n_layers:
            return losses, dict(zip(self.ids, chunks)), self.ledgers()
        if self.rank != 0:
            return losses, {}, self.ledgers()
        return losses, dict(zip(self.ids, chunks)), {**self.ledgers(), "opt_state": states}

    def step(self, it: int, chunks: List[ParamStruct], states: List[Dict]) -> float:
        """Iteration ``it`` in place over the rank's ``chunks`` and their
        optimizer ``states``; returns its mean loss over every rank."""
        t0 = perf_counter()
        grads = [c.zeros_like() for c in chunks]
        loss = 0.0
        for kind, mb in self.program():
            if kind == "F":
                loss += self.forward(it, mb, self.ids, chunks)
            elif kind == "B":
                self.backward(it, mb, chunks, grads)
            else:
                self.weight(it, mb, grads)
        self.form(it, grads)
        loss = self.sync(it, grads, loss)
        pre_update(self.spec, it, self.opt, grads, **self.clip_args(it))
        for c, g, s in zip(chunks, grads, states):
            self.opt.step(c, g, s)
        if self.trace.enabled:
            self.trace.complete("iteration", "iteration", t0, perf_counter() - t0,
                                {"it": it, **self.span_args})
        return float(loss) / self.spec.n_microbatches

    def forward(
        self, it: int, mb: int, ids: Sequence[int], chunks: List[ParamStruct]
    ) -> float:
        """Op ``F`` of unit ``mb`` over chunks ``ids`` (weights ``chunks``);
        returns the rank's share of the microbatch's loss.  The unit's
        ``B`` and ``W`` run the same chunks."""
        ck, q_act = self.ck, self.spec.precision.q_act
        x, targets = self.x_in(it, mb)
        seams = [self.seam((it, mb, i)) for i in ids]
        f0 = perf_counter()
        fwd = []
        for i, seam, c in zip(ids, seams, chunks):
            w = seam.gather(c, "F")
            x, st = ck.fwd(i, w, x, self.cos, self.sin, seam=seam)
            x = q_act(x)
            fwd.append(st)
            del w  # a gathered chunk is freed at once
        loss, c_loss = 0.0, None
        if targets is not None:
            loss, c_loss = F.cross_entropy_fwd(x, targets)
            loss /= self.parts
        self.span("F", f0, it, mb)
        self.inflight[mb] = (ids, seams, fwd, c_loss)
        self.peak_inflight = max(self.peak_inflight, len(self.inflight))
        if c_loss is None:
            self.x_out(it, mb, x)
        return loss

    def backward(
        self, it: int, mb: int, chunks: List[ParamStruct], grads: List[ParamStruct]
    ) -> None:
        """Op ``B``: fused, accumulating each chunk's gradient, or on a
        split program parking each chunk's ``(cache, wcache)``."""
        ck, q_act_grad = self.ck, self.spec.precision.q_act_grad
        ids, seams, fwd, c_loss = self.inflight.pop(mb)
        dy = None if c_loss is not None else self.dy_in(it, mb)
        b0, replayed = perf_counter(), ck.replayed
        if c_loss is not None:
            # the microbatch mean rides the seed: every weight gradient
            # comes out already at 1/N and accumulates with a plain add
            dy = F.cross_entropy_bwd(1.0 / (self.parts * self.spec.n_microbatches), c_loss)
            # kept until the next backward: freed here, it lets glibc trim
            # the heap top and the next forward fault it back in (+55 %
            # minor faults, 6 % of a serial-long-ctx call)
            self._loss_cache = c_loss
        parked = []
        for pos in range(len(chunks) - 1, -1, -1):
            i, seam = ids[pos], seams[pos]
            w = seam.gather(chunks[pos], "B")
            if self.split:
                dy, cache, wcache = ck.bwd_input(i, w, dy, fwd[pos])
                parked.append((pos, cache, wcache))
            elif i in self.factored:
                dy, cache, wcache = ck.bwd_input(i, w, dy, fwd[pos])
                self._park(it, mb, pos, i, chunk_factors(self.spec.cfg, i, cache, wcache))
                del cache, wcache
            else:
                dy, g = ck.bwd(i, w, dy, fwd[pos])
                self._accumulate(grads, pos, i, seam, g)
            del w
            if dy is not None:
                dy = q_act_grad(dy)
        if self.split:
            self.pending_w[mb] = (ids, seams, parked)
            self.peak_pending_w = max(self.peak_pending_w, len(self.pending_w))
        self.span("B", b0, it, mb, replayed=ck.replayed - replayed)
        if dy is not None:
            self.dy_out(it, mb, dy)

    def weight(self, it: int, mb: int, grads: List[ParamStruct]) -> None:
        """Op ``W``: the weight-gradient half of a parked unit."""
        w0 = perf_counter()
        ids, seams, parked = self.pending_w.pop(mb)
        for pos, cache, wcache in parked:
            if ids[pos] in self.factored:
                self._park(it, mb, pos, ids[pos],
                           chunk_factors(self.spec.cfg, ids[pos], cache, wcache))
                continue
            g = self.ck.bwd_weight(ids[pos], cache, wcache)
            self._accumulate(grads, pos, ids[pos], seams[pos], g)
        self.span("W", w0, it, mb)

    def span(self, op: str, t0: float, it: int, mb: int, **args) -> None:
        """Close op ``op``'s ``compute`` span, begun at ``t0``."""
        if self.trace.enabled:
            self.trace.complete(op, "compute", t0, perf_counter() - t0,
                                {"mb": mb, "it": it, **args})

    def _accumulate(
        self, grads: List[ParamStruct], pos: int, i: int, seam: ChunkSeam,
        g: ParamStruct,
    ) -> None:
        """Add chunk ``i``'s gradient ``g`` (already at ``1/N``) into
        ``grads[pos]``."""
        grads[pos].add_(seam.reduce(quantize_grads(g, self.spec.precision)))

    # -- factored gradients (DESIGN.md §17) ----------------------------------------

    def _quantized(self, bundle: dict) -> dict:
        """A factor bundle (:func:`~repro.nn.model.chunk_factors`) at the
        activation formats — its inputs at ``q_act``, the rest at
        ``q_act_grad`` — where they are not the arrays' own."""
        p, dtype = self.spec.precision, self.spec.cfg.dtype
        if is_exact(p.activations, dtype) and is_exact(p.act_grads, dtype):
            return bundle
        return {k: a if k == "tokens" else
                (p.q_act if k in FACTOR_INPUTS else p.q_act_grad)(a).astype(a.dtype, copy=False)
                for k, a in bundle.items()}

    def _park(self, it: int, mb, pos: int, i: int, bundle: dict) -> None:
        """Keep chunk ``i``'s bundle for microbatch ``mb``, quantised, until
        :meth:`form` runs at the end of the iteration."""
        self.bundles.setdefault(pos, {})[mb] = self._quantized(bundle)

    def form(self, it: int, grads) -> None:
        """Each factored chunk's gradient, written into ``grads[key]`` from
        the bundles parked under that key (a chunk position; the ring's
        chunk id) in microbatch order — one GEMM per weight
        (:func:`~repro.nn.model.chunk_form`) — and quantised once to the
        gradient format (one ``W`` span)."""
        if not self.bundles:
            return
        w0 = perf_counter()
        exact = is_exact(self.spec.precision.weight_grads, self.spec.cfg.dtype)
        for key, by_mb in self.bundles.items():
            g = chunk_form([by_mb[mb] for mb in sorted(by_mb)], grads[key])
            if not exact:
                quantize_grads_(g, self.spec.precision)
        self.bundles.clear()
        self.span("W", w0, it, None)


@dataclass
class TrainResult:
    """What every strategy returns: per-iteration mean losses and the
    final weight chunks (fp32-master values where applicable).  Inside a
    ring launch, workers other than rank 0 report ``chunks=None``."""

    losses: List[float]
    chunks: Optional[List[ParamStruct]]
    extra: Dict = field(default_factory=dict)

    def final_loss(self) -> float:
        return self.losses[-1]


def recompute_ledger(ck: CheckpointedChunk) -> Dict[str, int]:
    """One worker's ``extra["recompute"]``: how many of its backwards
    re-ran their forward and how many took the cache the checkpoint had
    kept (both 0 without ``spec.recompute``)."""
    return {"replayed": ck.replayed, "kept": ck.kept}


def sum_recompute(ledgers: Iterable[Dict[str, int]]) -> Dict[str, int]:
    """A launch's ``extra["recompute"]``: its ranks' (and an elastic
    run's steps') ledgers summed."""
    ledgers = list(ledgers)
    return {key: sum(led[key] for led in ledgers) for key in ("replayed", "kept")}
