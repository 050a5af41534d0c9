"""The process-parallel shared-memory transport.

Every rank is a *forked child process* with its own interpreter (and
its own GIL), so compute genuinely runs in parallel on multicore hosts
and the wire path is never serialized behind another rank's bytecode.
Ranks communicate over one shared-memory segment holding a full mesh of
:class:`~repro.runtime.transport.shm.ShmRing` byte streams (one per
directed pair) plus a :class:`ControlBlock` for abort / fail-stop
state.

:class:`ShmFabric` is the per-process fabric endpoint: a
:class:`~repro.runtime.communicator.Fabric` subclass whose mailbox,
posted-receive matching and wait loops are reused verbatim, but whose
``post`` serializes the message into the outbound ring (pickle-5 frame,
array bodies out of band — see :mod:`.shm`) and whose pump decodes
inbound frames straight into the receiving rank's buffer pool.  The
PR-7 integrity frame carries over: the structural CRC32 stamped at post
time travels in the frame header and is re-verified after decode.

What carries over from the thread backend, and what does not:

* tag namespaces, FIFO per channel, posted-receive matching — identical
  (frames on one link arrive in post order; the per-link sequence
  number in the header turns any violation into a loud error);
* ``abort`` poison and ``fail_rank`` / ``PeerFailed`` epochs — shared
  through the control block; acknowledgements stay rank-local exactly
  as in the thread fabric;
* chaos — **delay-only** policies (seeded hold-backs, applied at the
  receiver from the same per-channel decision function), because
  drops/duplicates/bit-flips/NACK exercise wire machinery the shm
  stream does not emulate; asking for them raises at launch;
* failure detector, rejoin protocol, tracer — thread backend only.

Payload transfer has two modes, chosen per-buffer at encode time:

* **by mapping** (the default): each rank's BufferPool is backed by a
  pre-fork shared-memory arena region, so steady-state payload buffers
  already live in memory every worker has mapped.  Such buffers cross
  the wire as ~tens-of-bytes ``(region, offset, nbytes, fmt)``
  descriptors — zero payload bytes move, and a slot hop costs the same
  whether the model is 1 MB or 1 GB.  Delivery is by reference into the
  shared mapping, so ``wire_copies`` is False and the ring engines keep
  the thread backend's turn-taking ownership discipline (never recycle
  a buffer that may still be read downstream).
* **by copy** (fallback, and the whole story when ``arena_bytes=0``):
  buffers outside the arena are serialized through the ring.  With the
  arena disabled ``wire_copies`` is True and received buffers are owned
  by the receiver alone, so the ring engines retire replaced slots into
  the pool, keeping the steady state allocation-free.

Who sizes the arena: the launch.  A caller that knows its per-rank pool
working set states it (``pool_bytes``, e.g. the ring engine's
:func:`~repro.core.weipipe.ring_pool_bytes`) and each rank's region is
that plus ``DEFAULT_ARENA_BYTES`` of headroom; a launch that states
nothing gets the constant alone, and an explicit ``arena_bytes`` wins
over both.  An exhausted region is loud: one ``RuntimeWarning`` in the
rank and ``arena_overflow_*`` counts in the pool ledger.

Results come back by mapping too: a worker's return value is split by
the same descriptor codec as a frame, only the small blob travels up
the result pipe, and the launcher copies arena-resident bodies out of
the segment once, before unlinking it.
"""

from __future__ import annotations

import heapq
import os
import pickle
import shutil
import tempfile
import time
from multiprocessing import get_context
from multiprocessing import shared_memory as mp_shm
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from ...obs import flight as _flight
from ...obs.merge import (
    align_clock,
    dump_trace_spill,
    load_trace_spill,
    merge_trace_spill,
)
from ...obs.metrics import MetricsRegistry
from ...obs.tracer import Tracer
from ..communicator import Fabric, FabricAborted, PeerFailed, RecvTimeout
from ..integrity import CorruptFrameError, payload_crc32
from ..message import Message, TrafficStats
from .base import Deadline, Transport, WorkerError
from .shm import (
    ControlBlock,
    FrameDecoder,
    ShmArena,
    ShmRing,
    arena_offset,
    encode_frame,
    load_mapped,
    ring_offset,
    split_payload,
)

__all__ = ["ProcessTransport", "ShmFabric", "validate_process_policy"]

#: per-directed-link ring capacity.  The ring carries frame headers,
#: descriptors and whatever payload is not arena-resident; a frame
#: larger than this streams through in pieces, at memcpy cost.
DEFAULT_LINK_BYTES = 1 << 20
#: per-rank arena region for launches that state no pool working set,
#: and the headroom added to the ones that do (it absorbs the pool's
#: unstated draws: wire landing buffers of small private payloads).  The
#: pool free-list recycles, so a region bounds *peak live* buffers, not
#: cumulative traffic.
DEFAULT_ARENA_BYTES = 1 << 25
#: how often a blocked receiver re-polls its inbound rings.  Processes
#: wake at OS-scheduler granularity (no interpreter switch interval), so
#: this — not the GIL — bounds the hop latency.
DEFAULT_POLL_S = 2e-4


def validate_process_policy(policy: Any) -> None:
    """Reject chaos knobs the shm wire cannot reproduce.

    Delay-only policies are deterministic receiver-side because frames
    arrive per link in post order, so the per-channel sequence numbers
    driving :meth:`ChaosPolicy.decide` match the thread wire exactly.
    Everything else (drops, duplicates, SDC + NACK/retransmit, flaps,
    stalls, crashes) manipulates the in-process wire itself — those
    stay thread-backend features.
    """
    if policy is None:
        return
    unsupported = []
    for knob in ("drop_prob", "duplicate_prob", "bitflip_prob",
                 "flap_prob", "stall_prob", "max_stall"):
        if getattr(policy, knob, 0):
            unsupported.append(knob)
    for knob in ("crash_rank", "stall_rank", "flap_rank"):
        if getattr(policy, knob, None) is not None:
            unsupported.append(knob)
    if getattr(policy, "flaps", ()):
        unsupported.append("flaps")
    if unsupported:
        raise ValueError(
            "process backend supports delay-only chaos policies; "
            f"unsupported knobs set: {', '.join(sorted(unsupported))} "
            "(use the thread backend for the full chaos wire)"
        )


def _arena_regions(
    segment: memoryview, world: int, control_bytes: int, link_bytes: int,
    arena_bytes: int,
) -> List[memoryview]:
    """Every rank's arena region, as slices of the mapped segment."""
    bounds = [
        arena_offset(r, world, control_bytes, link_bytes, arena_bytes)
        for r in range(world + 1)
    ]
    return [segment[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


_ARENA_POOL_CLS = None


def _arena_pool(arena: ShmArena) -> Any:
    """A :class:`~repro.nn.params.BufferPool` whose free list recycles
    arena-resident buffers by power-of-two span class.

    Ring slots wander between ranks, and chunk sizes differ by a few
    hundred elements (embedding vs plain layers).  With per-process
    pools and exact-size keys, a rank whose clone size never matches the
    sizes wandering into it would allocate fresh arena memory every
    iteration — an unbounded leak.  Arena allocations reserve pow2 spans
    (:meth:`ShmArena.span_nbytes`), so any free buffer of a span class
    can be re-viewed at any exact size of that class; near-equal chunk
    sizes share one class and the steady state allocates nothing.
    Private (non-arena) buffers keep the exact-size keying of the base
    pool.  Class keys use a negative first element so they can never
    collide with exact ``(numel, dtype)`` keys.
    """
    global _ARENA_POOL_CLS
    if _ARENA_POOL_CLS is None:
        import numpy as _np

        from ...nn.params import BufferPool

        class ArenaBufferPool(BufferPool):
            __slots__ = ("_arena_ref",)

            def __init__(self, arena: ShmArena):
                super().__init__()
                self._arena_ref = arena
                self.backend = "process"
                self.allocator = arena.alloc

            def acquire(self, numel: int, dtype):
                dt = _np.dtype(dtype)
                nbytes = int(numel) * dt.itemsize
                if nbytes:
                    ckey = (-ShmArena.span_nbytes(nbytes), dt)
                    found = None
                    with self._lock:
                        stack = self._free.get(ckey)
                        if stack:
                            self.hits += 1
                            found = stack.pop()
                    if found is not None:
                        return self._arena_ref.view(
                            found[0], found[1], nbytes, dt
                        )
                return super().acquire(numel, dtype)

            def release(self, buf) -> None:
                flat = buf.reshape(-1)
                loc = None
                if flat.nbytes:
                    loc = self._arena_ref.locate(memoryview(flat))
                if loc is None:
                    super().release(flat)
                    return
                ckey = (-ShmArena.span_nbytes(flat.nbytes), flat.dtype)
                with self._lock:
                    self._free.setdefault(ckey, []).append(loc)
                    self.releases += 1

        _ARENA_POOL_CLS = ArenaBufferPool
    return _ARENA_POOL_CLS(arena)


class ShmFabric(Fabric):
    """Per-process fabric endpoint over a shared ring segment.

    One instance lives in each worker process and only its own rank may
    post/receive through it; the base class supplies mailboxes, posted
    receives and the deadline-checked wait loop, while this subclass
    swaps the by-reference delivery for framed ring streams.
    """

    def __init__(
        self,
        world_size: int,
        rank: int,
        segment: memoryview,
        *,
        control_bytes: int,
        link_bytes: int = DEFAULT_LINK_BYTES,
        arena_bytes: int = DEFAULT_ARENA_BYTES,
        timeout: float = 60.0,
        policy: Any = None,
        integrity: bool = True,
        poll_interval: float = DEFAULT_POLL_S,
        topology: Any = None,
        trace: bool = False,
    ):
        validate_process_policy(policy)
        super().__init__(
            world_size, timeout=timeout, integrity=integrity, topology=topology,
            tracer=Tracer() if trace else None,
        )
        self._check_rank(rank)
        self.rank = rank
        self._poll = poll_interval
        self._policy = policy
        self._control = ControlBlock(segment, world_size)
        # seeded all-clear, not from the live block: an abort or fail-stop
        # published before this (later-forked) rank mapped the segment
        # must still differ from the cache, or it is never noticed.
        self._ctrl_token = bytes(len(self._control.disturb_token()))
        # clock-alignment handshake: the launcher published its epoch
        # before forking; answer with our own clock sample so the parent
        # can bound the skew between the two timelines (repro.obs.merge).
        self._clock_sample: Optional[float] = None
        if self._control.epoch() is not None:
            self._clock_sample = perf_counter()
            self._control.set_clock(rank, self._clock_sample)
        # Shared arena: pooled buffers live in the segment and ship as
        # descriptors (by-mapping — the cross-process twin of the thread
        # wire's by-reference handoff), so the engines must follow the
        # by-reference ownership protocol and must NOT retire replaced
        # slots (the sender's next hop may still alias them).  Without an
        # arena every payload is copied through the ring and a received
        # buffer has exactly one owner, so retirement is both safe and
        # required to keep the steady state allocation-free.
        self._arena: Optional[ShmArena] = None
        if arena_bytes:
            self._arena = ShmArena(
                _arena_regions(segment, world_size, control_bytes, link_bytes,
                               arena_bytes),
                rank,
            )
        self.wire_copies = self._arena is None
        self._out: Dict[int, ShmRing] = {}
        self._decoders: Dict[int, FrameDecoder] = {}
        self._send_seq: Dict[int, int] = {}
        self._recv_seq: Dict[int, int] = {}
        for peer in range(world_size):
            if peer == rank:
                continue
            off = ring_offset(rank, peer, world_size, control_bytes, link_bytes)
            self._out[peer] = ShmRing(
                segment[off : off + ShmRing.HEADER + link_bytes], link_bytes
            )
            off = ring_offset(peer, rank, world_size, control_bytes, link_bytes)
            self._decoders[peer] = FrameDecoder(
                ShmRing(
                    segment[off : off + ShmRing.HEADER + link_bytes], link_bytes
                ),
                self._acquire_wire_buffer,
                arena=self._arena,
            )
            self._send_seq[peer] = 0
            self._recv_seq[peer] = 0
        # receiver-side limbo for seeded delay-only chaos: (due, tiebreak,
        # Message), per-channel sequence counters matching the thread wire.
        self._limbo: List[Tuple[float, int, Message]] = []
        self._limbo_seq = 0
        self._chan_seq: Dict[Tuple[int, int, Tuple], int] = {}
        # adaptive wait: yield the core for this many empty polls after
        # the last delivered frame before falling back to real sleeps.
        self._idle_passes = 0
        self._spin_passes = 200
        self._m_delays = self.metrics.counter(
            "chaos_injections_total", fault="delay"
        ) if policy is not None else None

    # -- pool ----------------------------------------------------------------

    def _make_pool(self, factory) -> Any:
        if self._arena is not None:
            return _arena_pool(self._arena)
        pool = factory()
        if hasattr(pool, "backend"):
            pool.backend = "process"
        return pool

    def _acquire_wire_buffer(self, numel: int, dtype) -> Any:
        # called from _pump_locked with the fabric lock held — must not
        # re-enter shared_pool()'s own lock acquisition.
        pool = self._shared_pool
        if pool is None:
            from ...nn.params import BufferPool

            pool = self._shared_pool = self._make_pool(BufferPool)
        return pool.acquire(numel, dtype)

    def shared_pool(self, factory) -> Any:
        with self._lock:
            if self._shared_pool is None:
                self._shared_pool = self._make_pool(factory)
            return self._shared_pool

    # -- control-block fail-stop state ---------------------------------------

    def _sync_control_locked(self) -> None:
        token = self._control.disturb_token()
        if token == self._ctrl_token:
            return
        self._ctrl_token = token
        if token[0] and not self._aborted:
            self._aborted = self._control.aborted() or "aborted"
        for r, v in self._control.failed().items():
            if r not in self._failed:
                self._failed[r] = v
                self._fail_epoch += 1
        self._cond.notify_all()

    def _check_disturbed(self, rank: int) -> None:
        self._sync_control_locked()
        super()._check_disturbed(rank)

    def abort(self, reason: str) -> None:
        self.flight.rings[self.rank].record(_flight.EV_ABORT, self.rank)
        self._control.abort(reason)
        with self._cond:
            self._sync_control_locked()

    def fail_rank(self, rank: int, reason: str, step: Optional[int] = None) -> None:
        self._check_rank(rank)
        if step is None:
            step = self._control.progress(rank)
        self.flight.rings[self.rank].record(
            _flight.EV_FAIL, rank, step if step is not None else -1
        )
        self._control.fail(rank, reason, step)
        with self._cond:
            self._sync_control_locked()

    def failed_ranks(self) -> Dict[int, Tuple[str, Optional[int]]]:
        with self._lock:
            self._sync_control_locked()
            return dict(self._failed)

    def report_progress(self, rank: int, step: int) -> None:
        self._control.set_progress(rank, step)
        with self._lock:
            self.flight.rings[self.rank].record(_flight.EV_PROGRESS, rank, step)
            self._progress[rank] = step

    def progress_of(self, rank: int) -> Optional[int]:
        return self._control.progress(rank)

    def request_rejoin(self, rank: int) -> None:
        raise NotImplementedError(
            "rank rejoin requires the failure detector (thread backend only)"
        )

    # -- endpoint discipline --------------------------------------------------

    def communicator(self, rank: int):
        if rank != self.rank:
            raise ValueError(
                f"this process owns the rank-{self.rank} endpoint; "
                f"cannot build a communicator for rank {rank}"
            )
        return super().communicator(rank)

    # -- post: serialize into the outbound ring --------------------------------

    def post(self, msg: Message) -> None:
        self._check_rank(msg.src)
        self._check_rank(msg.dst)
        if msg.src != self.rank:
            raise ValueError(
                f"rank-{self.rank} endpoint cannot post as rank {msg.src}"
            )
        with self._cond:
            self._check_disturbed(msg.src)
            self._record_traffic_locked(msg)
            if msg.dst == self.rank:
                # loopback never crosses the wire; keep the structural
                # digest so the message looks like any other framed one.
                if self.integrity and msg.crc is None:
                    msg.crc = payload_crc32(msg.payload)
                self._deliver_locked(msg)
            else:
                # remote sends are protected by a CRC32 over the frame
                # *bytes* (computed inside encode_frame at zlib speed, and
                # re-accumulated by the decoder as chunks land) — the
                # structural payload walk is too slow to pay per message.
                seq = self._send_seq[msg.dst]
                self._send_seq[msg.dst] = seq + 1
                chunks = encode_frame(
                    msg.payload, msg.tag, msg.nbytes, seq,
                    integrity=self.integrity, arena=self._arena,
                )
                self._stream_out_locked(msg.dst, chunks)
            self._cond.notify_all()

    def _stream_out_locked(self, dst: int, chunks: List[memoryview]) -> None:
        ring = self._out[dst]
        deadline: Optional[Deadline] = None
        for mv in chunks:
            if mv.nbytes == 0:
                continue
            pos = 0
            end = mv.nbytes
            while pos < end:
                n = ring.write_some(mv[pos:])
                if n:
                    pos += n
                    continue
                # receiver's ring is full.  Drain our own inbound links so
                # two mutually-blocked writers cannot deadlock, then
                # re-check for aborts / a dead receiver before sleeping.
                self._pump_locked()
                self._sync_control_locked()
                if self._aborted:
                    raise FabricAborted(self._aborted)
                if self._control.is_failed(dst):
                    raise PeerFailed(
                        {r: v for r, v in self._failed.items() if r != self.rank}
                    )
                if deadline is None:
                    deadline = Deadline(self.timeout)
                elif deadline.expired():
                    raise RecvTimeout(
                        f"rank {self.rank} stalled {self.timeout}s streaming "
                        f"to rank {dst} (ring full; receiver not draining — "
                        f"likely a schedule deadlock)"
                    )
                self._idle_wait_locked(self._poll)

    # -- pump: decode inbound rings -------------------------------------------

    def _deliver_locked(self, msg: Message) -> None:
        if self._policy is not None:
            key = (msg.src, msg.dst, msg.tag)
            seq = self._chan_seq.get(key, 0)
            self._chan_seq[key] = seq + 1
            decision = self._policy.decide(msg.src, msg.dst, msg.tag, seq)
            if decision.delay > 0.0:
                heapq.heappush(
                    self._limbo,
                    (time.monotonic() + decision.delay, self._limbo_seq, msg),
                )
                self._limbo_seq += 1
                self._m_delays.add(1)
                self.flight.rings[self.rank].record(
                    _flight.EV_CHAOS_DELAY, msg.src, msg.dst
                )
                return
        self._mail[msg.dst][(msg.src, msg.tag)].append(msg)
        self._drain_locked((msg.dst, msg.src, msg.tag))

    def _on_frame_locked(self, src: int, frame) -> None:
        expected = self._recv_seq[src]
        if frame.seq != expected:
            raise RuntimeError(
                f"shm stream corruption on link {src}->{self.rank}: "
                f"frame seq {frame.seq}, expected {expected}"
            )
        self._recv_seq[src] = expected + 1
        if self.integrity and frame.crc is not None:
            if frame.crc_actual != frame.crc:
                self.metrics.counter("fabric_corrupt_frames").add(1)
                self.flight.rings[self.rank].record(
                    _flight.EV_CORRUPT_FRAME, src, frame.seq
                )
                raise CorruptFrameError(
                    f"frame CRC mismatch on link {src}->{self.rank} "
                    f"tag={frame.tag} (shared memory is a reliable wire; "
                    f"this is a codec bug or genuine memory corruption)"
                )
        self._deliver_locked(
            Message(
                src=src, dst=self.rank, tag=frame.tag,
                payload=frame.payload, nbytes=frame.nbytes, crc=frame.crc,
            )
        )

    def _pump_locked(self) -> int:
        delivered = 0
        for src, dec in self._decoders.items():
            while True:
                frame = dec.poll()
                if frame is None:
                    break
                self._on_frame_locked(src, frame)
                delivered += 1
        if self._limbo:
            now = time.monotonic()
            while self._limbo and self._limbo[0][0] <= now:
                _, _, msg = heapq.heappop(self._limbo)
                self._mail[msg.dst][(msg.src, msg.tag)].append(msg)
                self._drain_locked((msg.dst, msg.src, msg.tag))
                delivered += 1
        if delivered:
            self._idle_passes = 0
        return delivered

    def _next_event_locked(self) -> Optional[float]:
        # poll cadence: inbound ring writes happen in another process, so
        # a blocked receiver must wake on its own clock rather than wait
        # for a notify that can never come.
        nxt = time.monotonic() + self._poll
        if self._limbo and self._limbo[0][0] < nxt:
            nxt = self._limbo[0][0]
        return nxt

    def _idle_wait_locked(self, wait_for: float) -> None:
        # The condvar can never be notified from outside this process, so
        # waiting on it burns the whole timeout.  For a while after the
        # last delivered frame, yield the core instead — the scheduler
        # hands it back almost immediately when peers are blocked on the
        # wire, giving hop latencies at syscall rather than sleep-quantum
        # granularity — then fall back to real sleeps at the poll cadence.
        if wait_for <= 0.0:
            return
        self._idle_passes += 1
        if self._idle_passes <= self._spin_passes:
            os.sched_yield()
        else:
            time.sleep(min(wait_for, self._poll))

    def _timeout_context(self) -> str:
        return "; shm process wire"


# -- child process entry ------------------------------------------------------


def _ship_exception(exc: BaseException):
    """Best-effort pickle of a worker exception (repr fallback)."""
    try:
        blob = pickle.dumps(exc)
        pickle.loads(blob)
        return ("pickle", blob)
    except Exception:
        return ("repr", (type(exc).__name__, str(exc)))


def _revive_exception(shipped) -> BaseException:
    kind, data = shipped
    if kind == "pickle":
        try:
            return pickle.loads(data)
        except Exception:  # pragma: no cover - round-trip checked at ship
            pass
        kind, data = "repr", ("Exception", "un-unpicklable worker exception")
    name, text = data
    return RuntimeError(f"{name}: {text}")


def _stats_bundle(fabric: ShmFabric) -> Dict:
    pool = fabric._shared_pool
    bundle = {
        "traffic": fabric.stats,
        "pool": pool.as_dict() if pool is not None else None,
        "metrics": fabric.metrics.as_dict(),
        "flight": fabric.flight.rings[fabric.rank].snapshot(),
    }
    if fabric._arena is not None and bundle["pool"] is not None:
        bundle["pool"]["arena_used"] = fabric._arena.used
        bundle["pool"]["arena_capacity"] = fabric._arena.capacity
    return bundle


def _child_main(
    rank: int,
    world: int,
    segment: memoryview,
    conn,
    fn: Callable,
    timeout: float,
    elastic: bool,
    fabric_kw: Dict,
) -> None:
    import traceback

    fabric_kw = dict(fabric_kw)
    trace_dir = fabric_kw.pop("trace_dir", None)
    fabric = ShmFabric(
        world, rank, segment, timeout=timeout,
        trace=trace_dir is not None, **fabric_kw
    )
    comm = fabric.communicator(rank)

    def _spill_trace() -> None:
        # written *before* the report goes up the pipe — the parent
        # merges the spill files only after every rank has reported.
        if trace_dir is None:
            return
        try:
            dump_trace_spill(
                fabric.tracer,
                os.path.join(trace_dir, f"trace-rank{rank}.jsonl"),
                rank,
                fabric._clock_sample,
            )
        except Exception:  # pragma: no cover - diagnostics must not mask
            pass

    try:
        result = fn(comm)
        _spill_trace()
        # arena-resident bodies go up as descriptors; the launcher maps
        # them (it owns the segment), so no rank pickles its weights.
        blob, specs, _ = split_payload(
            result, fabric._arena, private_out_of_band=False
        )
        conn.send(("ok", (blob, specs), None, _stats_bundle(fabric)))
    except BaseException as exc:  # noqa: BLE001 - must report everything
        tb = traceback.format_exc()
        fabric.flight.rings[rank].record(_flight.EV_WORKER_ERROR, rank)
        try:
            if elastic:
                fabric.fail_rank(rank, f"raised {exc!r}")
            else:
                fabric.abort(f"rank {rank} raised {exc!r}")
        finally:
            _spill_trace()
            conn.send(("err", None, (_ship_exception(exc), tb),
                       _stats_bundle(fabric)))
    finally:
        conn.close()


# -- the transport ------------------------------------------------------------


#: counters every fabric creates eagerly (quiet runs must export zeros).
_EAGER_COUNTERS = (
    "fabric_retransmits",
    "fabric_corrupt_frames",
    "detector_suspicions",
    "detector_suspicions_cleared",
    "detector_confirms",
    "ring_rejoins",
)


def _eager_registry() -> MetricsRegistry:
    """A fresh parent-side registry with the heal counters pre-zeroed.

    Children create these eagerly too (``Fabric.__init__``) so the merge
    preserves them, but a rank that dies before reporting must not turn
    an explicit zero into an absent series — analyzer summaries diff the
    thread and process backends and need identical metric name sets.
    """
    reg = MetricsRegistry()
    for name in _EAGER_COUNTERS:
        reg.counter(name)
    return reg


class ProcessTransport(Transport):
    """Fork one worker process per rank over a shared ring segment.

    After a launch, ``stats`` / ``pool`` / ``metrics`` hold the merged
    per-rank telemetry (each message is posted by exactly one rank, so
    summing child ledgers reproduces the global traffic exactly; the
    ``metrics`` registry is a full label-aware merge — counters sum,
    gauges max-reduce, histograms combine).  A transport may be launched
    repeatedly; the merged views describe the most recent launch.

    Pass a real ``tracer`` to trace across the process boundary: each
    child records into its own per-rank buffers, spills them as raw
    JSONL at exit, and the parent merges every spill into the given
    tracer on one timeline — child clocks are mapped through the
    launch-time handshake over the control block, with the per-rank
    offset and skew bound recorded in ``tracer.metadata["clock"]``.

    Every launch also reassembles the per-rank flight-recorder rings;
    on failure (worker error, abort, join timeout) the transport builds
    a post-mortem bundle (``last_postmortem``) and, when
    ``postmortem_to`` or ``$REPRO_POSTMORTEM_DIR`` names a directory,
    writes it there (``last_postmortem_path``).
    """

    name = "process"
    supports_detector = False
    supports_tracer = True
    chaos = "delay-only"

    def __init__(
        self,
        policy: Any = None,
        integrity: bool = True,
        link_bytes: int = DEFAULT_LINK_BYTES,
        arena_bytes: Optional[int] = None,
        poll_interval: float = DEFAULT_POLL_S,
        topology: Any = None,
        tracer: Any = None,
        postmortem_to: Optional[str] = None,
    ):
        validate_process_policy(policy)
        self.policy = policy
        self.integrity = integrity
        self.link_bytes = link_bytes
        #: per-rank arena region: None sizes it per launch (the stated
        #: ``pool_bytes`` plus ``DEFAULT_ARENA_BYTES``), an integer is
        #: used as given, 0 disables the arena (pure copy transport).
        self.arena_bytes = arena_bytes
        self.poll_interval = poll_interval
        self.topology = topology
        #: parent-side tracer the per-rank spills merge into (None or a
        #: disabled tracer = untraced run, zero child-side overhead).
        self.tracer = tracer if (tracer is not None and
                                 getattr(tracer, "enabled", False)) else None
        #: explicit post-mortem dump directory (falls back to the
        #: ``REPRO_POSTMORTEM_DIR`` environment variable).
        self.postmortem_to = postmortem_to
        #: merged per-rank telemetry of the most recent launch.
        self.stats = TrafficStats()
        self.pool: Optional[Dict] = None
        self.pools_by_rank: List[Optional[Dict]] = []
        self.metrics_by_rank: List[Optional[Dict]] = []
        self.metrics: MetricsRegistry = _eager_registry()
        #: per-rank flight-recorder snapshots of the most recent launch.
        self.flights_by_rank: Dict[str, Dict] = {}
        #: per-rank clock alignment of the most recent launch.
        self.clock: Dict[str, Dict] = {}
        #: post-mortem bundle of the most recent *failed* launch (None
        #: after a clean one), and where it was written (if anywhere).
        self.last_postmortem: Optional[Dict] = None
        self.last_postmortem_path: Optional[str] = None

    def launch(
        self,
        world_size: int,
        fn: Callable[[Any], Any],
        timeout: float,
        elastic: bool,
        detector: Any = None,
        pool_bytes: Optional[int] = None,
    ) -> Tuple[List[Any], List[Optional[WorkerError]]]:
        if detector is not None:
            raise ValueError(
                "process backend does not support a failure detector "
                "(heartbeats and rejoin are thread-backend features)"
            )
        if world_size == 1:
            # degenerate group: no peers, no rings — run inline on the
            # thread transport so serial baselines behave identically
            # (with the parent tracer attached directly: one process,
            # no spill/merge needed).
            from .thread import ThreadTransport

            fab = None
            if self.tracer is not None:
                fab = Fabric(
                    1, timeout=timeout, tracer=self.tracer,
                    topology=self.topology, integrity=self.integrity,
                )
            tt = ThreadTransport(fab)
            out = tt.launch(world_size, fn, timeout, elastic, detector)
            if fab is not None:
                self.metrics = fab.metrics
            return out
        # loaded here, not at import: a serial run never forks
        from multiprocessing.connection import wait as mp_wait

        ctx = get_context("fork")
        control_bytes = (ControlBlock.size(world_size) + 63) & ~63
        arena_bytes = self.arena_bytes
        if arena_bytes is None:
            # pages are committed on touch: the headroom is address space
            arena_bytes = (pool_bytes or 0) + DEFAULT_ARENA_BYTES
        shm = mp_shm.SharedMemory(
            create=True,
            size=arena_offset(world_size, world_size, control_bytes,
                              self.link_bytes, arena_bytes),
        )
        self.stats = TrafficStats()
        self.pool = None
        self.pools_by_rank = [None] * world_size
        self.metrics_by_rank = [None] * world_size
        self.metrics = _eager_registry()
        self.flights_by_rank = {}
        self.clock = {}
        self.last_postmortem = None
        self.last_postmortem_path = None
        results: List[Any] = [None] * world_size
        errors: List[Optional[WorkerError]] = [None] * world_size
        control: Optional[ControlBlock] = None
        arena: Optional[ShmArena] = None
        trace_dir: Optional[str] = None
        try:
            control = ControlBlock(shm.buf, world_size, create=True)
            # clock handshake, half 1: publish the parent epoch before
            # any child can fork, so every child's sample is bracketed
            # by [epoch, first parent observation].
            parent_epoch = perf_counter()
            control.publish_epoch(parent_epoch)
            if self.tracer is not None:
                # merged child events land in the parent's clock domain,
                # so the tracer's own epoch (set at construction) stays —
                # one tracer can span several launches (e.g. a sweep).
                trace_dir = tempfile.mkdtemp(prefix="repro-trace-spill-")
            for src in range(world_size):
                for dst in range(world_size):
                    if src == dst:
                        continue
                    off = ring_offset(
                        src, dst, world_size, control_bytes, self.link_bytes
                    )
                    ShmRing(
                        shm.buf[off : off + ShmRing.HEADER + self.link_bytes],
                        self.link_bytes,
                        create=True,
                    )
            fabric_kw = dict(
                control_bytes=control_bytes,
                link_bytes=self.link_bytes,
                arena_bytes=arena_bytes,
                policy=self.policy,
                integrity=self.integrity,
                poll_interval=self.poll_interval,
                topology=self.topology,
                trace_dir=trace_dir,
            )
            pipes = [ctx.Pipe(duplex=False) for _ in range(world_size)]
            procs = [
                ctx.Process(
                    target=_child_main,
                    args=(r, world_size, shm.buf, pipes[r][1], fn, timeout,
                          elastic, fabric_kw),
                    name=f"worker-{r}",
                    daemon=True,
                )
                for r in range(world_size)
            ]
            for p in procs:
                p.start()
            for _, w in pipes:
                w.close()  # parent keeps only the read ends

            deadline = Deadline(timeout)
            reports: Dict[int, tuple] = {}
            pending = set(range(world_size))
            clock_obs: Dict[int, float] = {}
            # poll pipes *while* waiting: a child blocks in send() if the
            # pipe buffer fills, so the parent must drain during the join.
            while pending and not deadline.expired():
                progressed = False
                # clock handshake, half 2: note when each child's sample
                # first becomes visible — that observation time is the
                # upper bracket of the rank's alignment window.
                for r in range(world_size):
                    if r not in clock_obs and control.clock(r) is not None:
                        clock_obs[r] = perf_counter()
                for r in sorted(pending):
                    conn = pipes[r][0]
                    if conn.poll(0):
                        try:
                            reports[r] = conn.recv()
                        except EOFError:
                            reports[r] = None
                        pending.discard(r)
                        progressed = True
                    elif not procs[r].is_alive() and not conn.poll(0):
                        reports[r] = None  # died without reporting
                        pending.discard(r)
                        progressed = True
                        code = procs[r].exitcode
                        if elastic:
                            control.fail(
                                r, f"worker process died (exit code {code})",
                                control.progress(r),
                            )
                        else:
                            control.abort(
                                f"rank {r} worker process died (exit code {code})"
                            )
                if pending and not progressed:
                    # a report or an exit wakes the loop at once; the
                    # timeout keeps the clock-handshake and deadline polls
                    # at their 5 ms cadence.
                    mp_wait(
                        [pipes[r][0] for r in pending]
                        + [procs[r].sentinel for r in pending],
                        timeout=0.005,
                    )

            if pending:
                control.abort("join timeout")
                grace = Deadline(2.0)
                for p in procs:
                    p.join(timeout=grace.budget())
                for p in procs:
                    if p.is_alive():
                        p.terminate()
                        p.join(timeout=2.0)
                stuck = ", ".join(f"worker-{r}" for r in sorted(pending))
                for r, report in reports.items():
                    if report:
                        self._merge_stats(r, report[3])
                self._observe_clock(world_size, control, clock_obs,
                                    parent_epoch)
                self._build_postmortem(
                    world_size,
                    {"kind": "timeout",
                     "detail": f"{stuck} did not finish within the group "
                               f"deadline ({timeout}s)"},
                    control,
                )
                raise TimeoutError(
                    f"{stuck} did not finish within the group deadline "
                    f"({timeout}s shared across all ranks)"
                )
            for p in procs:
                p.join(timeout=max(deadline.budget(), 2.0))
                if p.is_alive():  # pragma: no cover - reported but stuck
                    p.terminate()
                    p.join(timeout=2.0)

            self._observe_clock(world_size, control, clock_obs, parent_epoch)
            if arena_bytes:
                arena = ShmArena(
                    _arena_regions(shm.buf, world_size, control_bytes,
                                   self.link_bytes, arena_bytes),
                    0,
                )
            for r in range(world_size):
                report = reports.get(r)
                if report is None:
                    code = procs[r].exitcode
                    errors[r] = WorkerError(
                        r,
                        RuntimeError(f"worker process died (exit code {code})"),
                        "",
                    )
                    continue
                status, result, err, bundle = report
                self._merge_stats(r, bundle)
                if status == "ok":
                    results[r] = load_mapped(*result, arena)
                else:
                    shipped, tb = err
                    errors[r] = WorkerError(r, _revive_exception(shipped), tb)

            if self.tracer is not None and trace_dir is not None:
                self._merge_traces(world_size, trace_dir)

            aborted_reason = control.aborted()
            first = next((e for e in errors if e is not None), None)
            if first is not None or aborted_reason:
                if first is not None:
                    reason = {
                        "kind": type(first.original).__name__,
                        "detail": str(first.original),
                        "rank": first.rank,
                    }
                else:  # pragma: no cover - abort without a worker error
                    reason = {"kind": "abort", "detail": aborted_reason}
                self._build_postmortem(world_size, reason, control)
        finally:
            # the name goes first, so nothing below can leave a segment
            # behind in /dev/shm.  Then every live slice of the mapping
            # must be dropped before close() — an exported memoryview
            # makes the munmap raise.
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            if control is not None:
                control.release()
            if arena is not None:
                arena.release()
            shm.close()
            if trace_dir is not None:
                shutil.rmtree(trace_dir, ignore_errors=True)
        return results, errors

    def _observe_clock(
        self,
        world: int,
        control: ControlBlock,
        clock_obs: Dict[int, float],
        parent_epoch: float,
    ) -> None:
        """Turn the handshake readings into per-rank clock alignments."""
        now = perf_counter()
        for r in range(world):
            sample = control.clock(r)
            if sample is None:
                continue
            al = align_clock(r, parent_epoch, sample, clock_obs.get(r, now))
            self.clock[str(r)] = {"rank": r, **al.as_dict()}

    def _merge_traces(self, world: int, trace_dir: str) -> None:
        """Merge every rank's spill into the parent tracer, clock-mapped."""
        from ...obs.merge import ClockAlignment

        for r in range(world):
            path = os.path.join(trace_dir, f"trace-rank{r}.jsonl")
            if not os.path.exists(path):
                continue
            info = self.clock.get(str(r))
            alignment = (
                ClockAlignment(r, info["offset_s"], info["skew_bound_s"],
                               info["method"])
                if info else None
            )
            merge_trace_spill(self.tracer, load_trace_spill(path), alignment)

    def _build_postmortem(
        self, world: int, reason: Dict, control: ControlBlock
    ) -> Dict:
        flights = dict(self.flights_by_rank)
        for r in range(world):
            flights.setdefault(str(r), {
                "rank": r, "capacity": 0, "recorded": 0, "dropped": 0,
                "events": [],
            })
        bundle = _flight.build_postmortem(
            self.name, world, reason, flights,
            failed=control.failed(), aborted=control.aborted(),
            clock=self.clock,
        )
        self.last_postmortem = bundle
        directory = self.postmortem_to or _flight.postmortem_dir()
        if directory:
            self.last_postmortem_path = _flight.dump_postmortem(
                bundle, directory
            )
        return bundle

    def _merge_stats(self, rank: int, bundle: Optional[Dict]) -> None:
        if not bundle:
            return
        self.stats.merge(bundle["traffic"])
        self.pools_by_rank[rank] = bundle["pool"]
        self.metrics_by_rank[rank] = bundle["metrics"]
        self.metrics.merge(bundle["metrics"])
        if bundle.get("flight"):
            self.flights_by_rank[str(rank)] = bundle["flight"]
        if bundle["pool"]:
            if self.pool is None:
                self.pool = dict(bundle["pool"])
            else:
                for k, v in bundle["pool"].items():
                    if isinstance(v, int):
                        self.pool[k] = self.pool.get(k, 0) + v
