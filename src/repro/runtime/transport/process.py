"""The process-parallel shared-memory transport.

Every rank is a *forked child process* with its own interpreter (and
its own GIL), so compute genuinely runs in parallel on multicore hosts
and the wire path is never serialized behind another rank's bytecode.
Ranks communicate over one shared-memory segment holding a full mesh of
:class:`~repro.runtime.transport.shm.ShmRing` byte streams (one per
directed pair) plus a :class:`ControlBlock` for abort / fail-stop
state.

Each child runs the one :class:`~repro.runtime.communicator.Fabric` —
the same mailboxes, posted-receive matching, wait loop, disturbance
epochs, chaos layer, metrics and flight recorder as the thread backend —
over a :class:`ShmWire`, the endpoint of one rank: ``send`` serializes
the message into the outbound ring (pickle-5 frame, array bodies out of
band — see :mod:`.shm`), ``poll`` decodes inbound frames (mapping arena
descriptors, landing copied bodies in private memory), ``sync`` /
``publish_*`` mirror abort, fail-stop and progress state through the
control block, and ``wait`` yields and then sleeps because no peer can
notify a condvar across a process boundary.  Frames carry byte-level
CRC32s (header, meta + blob, payload) the decoder checks as they stream
in, so the fabric stamps no structural digest on this wire.

What differs from the thread backend is therefore only the wire:

* tag namespaces, FIFO per channel, posted-receive matching — identical
  (frames on one link arrive in post order; the per-link sequence
  number in the header turns any violation into a loud error);
* ``abort`` poison and ``fail_rank`` / ``PeerFailed`` epochs — shared
  through the control block; acknowledgements stay rank-local exactly
  as in the thread fabric;
* chaos — every :class:`~repro.runtime.chaos.ChaosPolicy` knob: the
  layer runs at the receiving endpoint of each message (and at the
  sending one for crashes and stalls), its decisions are pure in the
  message identity and per-link arrival order, and the per-rank
  :class:`~repro.runtime.chaos.ChaosStats` sum into ``transport.chaos``;
* the failure detector — and rejoin and ``flap_rank``, which are
  defined in terms of heartbeats — is the one refusal (``launch``
  raises ``ValueError``) until heartbeats live in the control block.

Every buffer has one delivery rule, chosen at encode time by where it
lives:

* **mapped**: each rank's BufferPool is backed by a pre-fork
  shared-memory arena region, so every buffer an engine draws already
  lives in memory every worker has mapped.  Such buffers cross the wire
  as ~tens-of-bytes ``(region, offset, nbytes, fmt)`` descriptors —
  zero payload bytes move, and a slot hop costs the same whether the
  model is 1 MB or 1 GB.  Delivery is by reference into the shared
  mapping, so the engines keep the thread backend's ownership rule:
  never recycle a buffer that may still be read downstream.  The
  weight ring's forward slot is then a view of its owner's B slot:
  each slot exists once in the segment, in its owner's region.
* **landed privately**: any other buffer (a collective's partial sum,
  a slot that overflowed the arena) is serialized through the ring and
  lands in a private ``np.empty`` array the receiver owns; the heap
  frees it when the last reference goes.  The arena holds only what an
  engine draws, so copied traffic can neither grow nor exhaust it.

Who sizes the arena: the launch.  A caller that knows its per-rank pool
working set states it (``pool_bytes``, e.g. the ring engine's
:func:`~repro.core.weipipe.ring_pool_bytes`) and each rank's region is
that plus ``DEFAULT_ARENA_BYTES`` of headroom; a launch that states
nothing gets the constant alone.  An exhausted region is loud: one
``RuntimeWarning`` in the rank and ``arena_overflow_*`` counts in the
pool ledger.

The segment is one anonymous ``MAP_SHARED`` mapping the launcher
creates before the fork and every rank inherits: it has no name, so
nothing can leak into ``/dev/shm`` and no resource tracker is needed.
Results come back by mapping too: a worker's return value is split by
the same descriptor codec as a frame and only the small blob travels up
the result pipe.  The launcher rebuilds each arena-resident body as a
view of the segment — the final model is never copied — and then frees
every page no result view covers (rings, control block, pool buffers)
before it returns.  The mapping itself goes away with the last view.

A launch waits for its ranks' reports, not their exits.  It forks the
ranks one after another; each starts up (copy-on-write faults, its
allocator settings, its wire and fabric), runs ``fn`` and sends its
report, and the launch returns once the last report is in and the pages
are freed.  A rank that reported, whatever it reported, is not joined by
its own launch: ranks are daemons, multiprocessing reaps an exited one at
the next ``Process.start()`` or ``active_children()``, and terminates any
still running at interpreter exit.  The next launch joins them once its
own reports are in (they have had that whole launch to exit), within
one shared ``REAP_S`` and terminating any still running after it, so
back-to-back launches hold one launch's ranks at most.  Until it exits
a reported rank still maps the segment, so a dropped result's pages
are freed when both are gone.
A launch in which a rank died or never reported joins every rank, as
before: the dead rank's exit code names it, and a failed launch leaves
no rank behind.  glibc's ``mallopt``, which a rank calls to set its
allocator thresholds, is looked up once in the launcher before the
fork, so no rank repeats the lookup.
"""

from __future__ import annotations

import ctypes
import functools
import mmap
import os
import pickle
import shutil
import tempfile
import threading
import time
import weakref
from multiprocessing import get_context
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
from ..chaos import ChaosStats
from ..communicator import HEAL_COUNTERS as _EAGER_COUNTERS  # tests/obs name
from ..communicator import Fabric, FabricAborted, PeerFailed, RecvTimeout
from ..integrity import CorruptFrameError
from ..message import Message, TrafficStats
from .base import Deadline, Transport, Wire, WorkerError
from .shm import (
    ControlBlock,
    FrameDecoder,
    ShmArena,
    ShmRing,
    arena_offset,
    encode_frame,
    ring_offset,
    split_payload,
)

__all__ = ["ProcessTransport", "ShmWire"]

#: per-directed-link ring capacity.  The ring carries frame headers,
#: descriptors and whatever payload is not arena-resident (pool buffers
#: — ring slots, ``D``, staged factor bundles — cross as descriptors);
#: a frame larger than this streams through in pieces, at memcpy cost,
#: and blocks its sender until the receiver polls (a traced
#: ``wait:ring`` wire span).
DEFAULT_LINK_BYTES = 1 << 20
#: per-rank arena region for launches that state no pool working set,
#: and the headroom added to the ones that do (it absorbs the pool's
#: unstated draws).  The pool free-list recycles, so a region bounds
#: *peak live* buffers, not cumulative traffic.
DEFAULT_ARENA_BYTES = 1 << 25
#: how often a blocked receiver re-polls its inbound rings.  Processes
#: wake at OS-scheduler granularity (no interpreter switch interval), so
#: this — not the GIL — bounds the hop latency.
DEFAULT_POLL_S = 2e-4
#: glibc's ``mallopt`` parameter numbers.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
#: the allocator settings a rank starts with: glibc's 64-bit ceiling for
#: the mmap threshold (32 MiB) and a trim threshold of twice that, where
#: glibc's own dynamic rule moves them after its first large free.
#: Inherited instead, a rank's allocator depends on the launcher's
#: history: from a launcher that never freed a large block, every
#: multi-MB temporary of the rank is a fresh mmap whose pages fault in
#: anew.
_RANK_MALLOPT = ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 64 << 20))
#: the last launch's ranks, left to exit after their reports; weak, so
#: a rank multiprocessing has reaped and dropped closes its sentinel.
_reported: List[Any] = []
_reported_lock = threading.Lock()
#: how long the next launch waits, in all, for those ranks to exit
#: before it terminates the ones still running.
REAP_S = 5.0


def _reap_reported(procs: List[Any]) -> None:
    """Join the ranks the launch before left to exit, within one shared
    :data:`REAP_S`, terminate any still running after it, and leave
    ``procs`` (this launch's reported ranks) for the next launch."""
    with _reported_lock:
        previous, _reported[:] = list(_reported), map(weakref.ref, procs)
    alive = [p for p in (ref() for ref in previous) if p is not None]
    deadline = Deadline(REAP_S)
    for p in alive:
        p.join(timeout=deadline.remaining())
    for p in alive:
        if p.is_alive():  # reported, but its exit hangs
            p.terminate()
            p.join(timeout=2.0)


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


def _free_pages_outside(mapping: mmap.mmap, held: List[Tuple[int, int]]) -> None:
    """Give back every page of ``mapping`` that no ``(offset, nbytes)``
    range in ``held`` touches; the held pages stay with their views."""
    page = mmap.PAGESIZE
    end = -(-len(mapping) // page) * page
    pos = 0
    for lo, nbytes in sorted(held) + [(end, 0)]:
        start = lo // page * page
        if start > pos:
            mapping.madvise(mmap.MADV_REMOVE, pos, start - pos)
        pos = max(pos, -(-(lo + nbytes) // page) * page)


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


class ShmWire(Wire):
    """One rank's endpoint of the shared ring segment.

    One instance lives in each worker process, under that process's
    ``Fabric``; only its own rank may post or receive through it.
    """

    verifies = True

    def __init__(
        self,
        world_size: int,
        rank: int,
        segment: memoryview,
        *,
        control_bytes: int,
        link_bytes: int = DEFAULT_LINK_BYTES,
        arena_bytes: int = DEFAULT_ARENA_BYTES,
        poll_interval: float = DEFAULT_POLL_S,
    ):
        self.rank = rank
        self.ranks = (rank,)
        self._poll = poll_interval
        self._control = ControlBlock(segment, world_size)
        self.publish_abort = self._control.abort
        self.publish_fail = self._control.fail
        self.publish_progress = self._control.set_progress
        # seeded all-clear, not from the live block: an abort or fail-stop
        # published before this (later-forked) rank mapped the segment
        # must still differ from the cache, or it is never noticed.
        self._ctrl_token = bytes(len(self._control.disturb_token()))
        # clock-alignment handshake: the launcher published its epoch
        # before forking; answer with our own clock sample so the parent
        # can bound the skew between the two timelines (repro.obs.merge).
        self.clock_sample: Optional[float] = None
        if self._control.epoch() is not None:
            self.clock_sample = perf_counter()
            self._control.set_clock(rank, self.clock_sample)
        # Shared arena: pooled buffers live in the segment and ship as
        # descriptors (by-mapping — the cross-process twin of the thread
        # wire's by-reference handoff); everything else lands privately.
        self.arena = ShmArena(
            _arena_regions(segment, world_size, control_bytes, link_bytes,
                           arena_bytes),
            rank,
        )
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
                arena=self.arena,
            )
            self._send_seq[peer] = 0
            self._recv_seq[peer] = 0
        # adaptive wait: yield the core for this many empty polls after
        # the last delivered frame before falling back to real sleeps.
        self._idle_passes = 0
        self._spin_passes = 200

    def attach(self, fabric: Fabric) -> None:
        self._fabric = fabric

    # -- pool ----------------------------------------------------------------

    def make_pool(self, factory) -> Any:
        return _arena_pool(self.arena)

    # -- control-block fail-stop state ---------------------------------------

    def sync(self):
        token = self._control.disturb_token()
        if token == self._ctrl_token:
            return None
        self._ctrl_token = token
        aborted = (self._control.aborted() or "aborted") if token[0] else None
        return aborted, self._control.failed()

    # -- send: serialize into the outbound ring --------------------------------

    def send(self, msg: Message) -> None:
        fab = self._fabric
        if msg.dst == self.rank:
            fab._arrive_locked(msg)  # loopback never crosses the wire
            return
        # remote sends are protected by CRC32s over the frame *bytes*
        # (computed inside encode_frame at zlib speed, and re-accumulated
        # by the decoder as chunks land) — the structural payload walk is
        # too slow to pay per message.
        seq = self._send_seq[msg.dst]
        self._send_seq[msg.dst] = seq + 1
        ring = self._out[msg.dst]
        deadline: Optional[Deadline] = None
        stalled = None  # when the frame first found the ring full
        for mv in encode_frame(msg.payload, msg.tag, msg.nbytes, seq,
                               integrity=fab.integrity, arena=self.arena):
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
                fab._land_locked()
                fab._sync_locked()
                if fab._aborted:
                    raise FabricAborted(fab._aborted)
                if msg.dst in fab._failed:
                    raise PeerFailed(
                        {r: v for r, v in fab._failed.items() if r != self.rank}
                    )
                if deadline is None:
                    deadline = Deadline(fab.timeout)
                    stalled = perf_counter()
                elif deadline.expired():
                    raise RecvTimeout(
                        f"rank {self.rank} stalled {fab.timeout}s streaming "
                        f"to rank {msg.dst} (ring full; receiver not draining "
                        f"— likely a schedule deadlock)"
                    )
                self.wait(self._poll)
        if stalled is not None and fab.tracer.enabled:
            # the sender waited on the receiver's polls: wire time, not compute
            fab.tracer.rank(self.rank).complete(
                "wait:ring", "wire", stalled, perf_counter() - stalled,
                {"dst": msg.dst, "tag": msg.tag})

    # -- poll: decode inbound rings --------------------------------------------

    def poll(self) -> None:
        fab = self._fabric
        for src, dec in self._decoders.items():
            while True:
                expected = self._recv_seq[src]
                try:
                    frame = dec.poll()
                except CorruptFrameError as exc:
                    fab._m_heal["fabric_corrupt_frames"].add(1)
                    fab.flight.rings[self.rank].record(
                        _flight.EV_CORRUPT_FRAME, src, expected
                    )
                    raise CorruptFrameError(
                        f"link {src}->{self.rank}: {exc} (shared memory is "
                        f"a reliable wire; this is a codec bug or genuine "
                        f"memory corruption)"
                    ) from exc
                if frame is None:
                    break
                if frame.seq != expected:
                    raise RuntimeError(
                        f"shm stream corruption on link {src}->{self.rank}: "
                        f"frame seq {frame.seq}, expected {expected}"
                    )
                self._recv_seq[src] = expected + 1
                self._idle_passes = 0
                # the frame was verified byte for byte: no structural CRC.
                fab._arrive_locked(Message(
                    src, self.rank, frame.tag, frame.payload, frame.nbytes
                ))

    def wait(self, wait_for: float) -> None:
        # No peer can notify a condvar in this process.  For a while after
        # the last delivered frame, yield the core instead — the scheduler
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


def _stats_bundle(fabric: Fabric, wire: ShmWire) -> Dict:
    # every rank has an arena, so every rank reports a pool ledger: an
    # untouched pool reads all zeros.
    pool = fabric._shared_pool
    if pool is None:
        pool = _arena_pool(wire.arena)
    return {
        "traffic": fabric.stats,
        "pool": {**pool.as_dict(), "arena_used": wire.arena.used,
                 "arena_capacity": wire.arena.capacity},
        "metrics": fabric.metrics.as_dict(),
        # every ring this process wrote: its own rank's, plus the chaos
        # events it recorded about the senders of what it received.
        "flight": [r.snapshot() for r in fabric.flight.rings if len(r)],
        "chaos": fabric.chaos,
    }


@functools.cache
def _glibc_mallopt() -> Optional[Callable[[int, int], int]]:
    """glibc's ``mallopt``, or ``None`` outside glibc.

    The launcher resolves it once, before its first fork, and every rank
    calls the inherited pointer: a lookup inside a rank would
    copy-on-write fault in the loader state it walks, ~0.4 ms a rank.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt


def _pin_malloc(mallopt: Optional[Callable[[int, int], int]]) -> None:
    """Apply ``_RANK_MALLOPT`` through ``mallopt`` (a no-op without one)."""
    if mallopt is None:
        return
    for param, value in _RANK_MALLOPT:
        mallopt(param, value)


def _child_main(
    rank: int,
    world: int,
    segment: memoryview,
    conn,
    fn: Callable,
    elastic: bool,
    wire_kw: Dict,
    fabric_kw: Dict,
    trace_dir: Optional[str],
    mallopt: Optional[Callable[[int, int], int]],
) -> None:
    import traceback

    _pin_malloc(mallopt)
    wire = ShmWire(world, rank, segment, **wire_kw)
    fabric = Fabric(
        world, wire=wire, tracer=Tracer() if trace_dir is not None else None,
        **fabric_kw,
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
                wire.clock_sample,
            )
        except Exception:  # pragma: no cover - diagnostics must not mask
            pass

    try:
        result = fn(comm)
        _spill_trace()
        # arena-resident bodies go up as descriptors; the launcher maps
        # them (it owns the segment), so no rank pickles its weights.
        blob, specs, _ = split_payload(
            result, wire.arena, private_out_of_band=False
        )
        conn.send(("ok", (blob, specs), None, _stats_bundle(fabric, wire)))
    except BaseException as exc:  # noqa: BLE001 - must report everything
        tb = traceback.format_exc()
        fabric.flight.rings[rank].record(_flight.EV_WORKER_ERROR, rank)
        try:
            if elastic:
                fabric.fail_rank(rank, f"raised {exc!r}")
            else:
                fabric.abort(f"rank {rank} raised {exc!r}", rank)
        finally:
            _spill_trace()
            conn.send(("err", None, (_ship_exception(exc), tb),
                       _stats_bundle(fabric, wire)))
    finally:
        conn.close()


# -- the transport ------------------------------------------------------------


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

    After a launch, ``stats`` / ``pool`` / ``metrics`` / ``chaos`` hold
    the merged per-rank telemetry (each message is posted by exactly one
    rank and admitted by exactly one, so summing child ledgers
    reproduces the global traffic and injection counts exactly; the
    ``metrics`` registry is a full label-aware merge — counters sum,
    gauges max-reduce, histograms combine).  ``chaos`` is ``None``
    without a policy — the same attribute, with the same meaning, a
    ``Fabric`` carries.  A transport may be launched repeatedly; the
    merged views describe the most recent launch.

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

    def __init__(
        self,
        policy: Any = None,
        integrity: bool = True,
        link_bytes: int = DEFAULT_LINK_BYTES,
        poll_interval: float = DEFAULT_POLL_S,
        topology: Any = None,
        tracer: Any = None,
        postmortem_to: Optional[str] = None,
    ):
        self.policy = policy
        self.integrity = integrity
        self.link_bytes = link_bytes
        self.poll_interval = poll_interval
        self.topology = topology
        #: parent-side tracer the per-rank spills merge into (None or a
        #: disabled tracer = untraced run, zero child-side overhead).
        self.tracer = tracer if (tracer is not None and
                                 getattr(tracer, "enabled", False)) else None
        self.postmortem_to = postmortem_to
        self._reset_telemetry(0)

    def _reset_telemetry(self, world_size: int) -> None:
        #: merged per-rank telemetry of the most recent launch.
        self.stats = TrafficStats()
        self.chaos = ChaosStats() if self.policy is not None else None
        self.pool: Optional[Dict] = None
        self.pools_by_rank: List[Optional[Dict]] = [None] * world_size
        self.metrics_by_rank: List[Optional[Dict]] = [None] * world_size
        self.metrics: MetricsRegistry = _eager_registry()
        #: per-rank flight-recorder snapshots of the most recent launch.
        self.flights_by_rank: Dict[str, Dict] = {}
        #: per-rank clock alignment of the most recent launch.
        self.clock: Dict[str, Dict] = {}

    def launch(
        self,
        world_size: int,
        fn: Callable[[Any], Any],
        timeout: float,
        elastic: bool,
        detector: Any = None,
        pool_bytes: Optional[int] = None,
    ) -> Tuple[List[Any], List[Optional[WorkerError]]]:
        if detector is not None or getattr(self.policy, "flap_rank", None) is not None:
            raise ValueError(
                "the process backend has no failure detector yet: heartbeats "
                "— and with them rejoin and ChaosPolicy.flap_rank — live on "
                "the thread backend until they move into the control block"
            )
        self._reset_telemetry(world_size)
        fabric_kw = dict(
            timeout=timeout, policy=self.policy, integrity=self.integrity,
            topology=self.topology,
        )
        if world_size == 1:
            # degenerate group: no peers, no rings — the same fabric,
            # inline on the thread transport (with the parent tracer
            # attached directly: one process, no spill/merge needed).
            from .thread import ThreadTransport

            fab = Fabric(1, tracer=self.tracer, **fabric_kw)
            inline = ThreadTransport(fab, self.postmortem_to)
            try:
                return inline.launch(world_size, fn, timeout, elastic)
            finally:
                self.stats, self.metrics, self.chaos = (
                    fab.stats, fab.metrics, fab.chaos
                )
                self.last_postmortem = inline.last_postmortem
                self.last_postmortem_path = inline.last_postmortem_path
        # loaded here, not at import: a serial run never forks
        from multiprocessing.connection import wait as mp_wait

        ctx = get_context("fork")
        control_bytes = (ControlBlock.size(world_size) + 63) & ~63
        # pages are committed on touch: the headroom is address space
        arena_bytes = (pool_bytes or 0) + DEFAULT_ARENA_BYTES
        # anonymous and shared: the forked ranks inherit it, it has no
        # name to leak, and it unmaps when its last view is dropped.
        mapping = mmap.mmap(-1, arena_offset(
            world_size, world_size, control_bytes, self.link_bytes, arena_bytes
        ))
        segment = memoryview(mapping)
        results: List[Any] = [None] * world_size
        errors: List[Optional[WorkerError]] = [None] * world_size
        # the (offset, nbytes) segment ranges the results are views of.
        held: List[Tuple[int, int]] = []
        trace_dir: Optional[str] = None
        try:
            control = ControlBlock(segment, world_size, create=True)
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
                        segment[off : off + ShmRing.HEADER + self.link_bytes],
                        self.link_bytes,
                        create=True,
                    )
            wire_kw = dict(
                control_bytes=control_bytes,
                link_bytes=self.link_bytes,
                arena_bytes=arena_bytes,
                poll_interval=self.poll_interval,
            )
            mallopt = _glibc_mallopt()
            pipes = [ctx.Pipe(duplex=False) for _ in range(world_size)]
            procs = [
                ctx.Process(
                    target=_child_main,
                    args=(r, world_size, segment, pipes[r][1], fn, elastic,
                          wire_kw, fabric_kw, trace_dir, mallopt),
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
                                f"rank {r} worker process died (exit code {code})",
                                r,
                            )
                if pending and not progressed:
                    # a report, an exit or the deadline wakes the loop at
                    # once; until every rank's clock sample is seen, so
                    # does a 5 ms poll, and then nothing else.
                    mp_wait(
                        [pipes[r][0] for r in pending]
                        + [procs[r].sentinel for r in pending],
                        timeout=0.005 if len(clock_obs) < world_size
                        else deadline.remaining(),
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
            # once every rank has reported, nothing waits for the exits:
            # the ranks are daemons, reaped by the next Process.start(),
            # by active_children() or at exit.  If any rank died or never
            # reported, every rank is joined, so a failed launch leaves
            # no rank behind.
            failed = None in reports.values() or bool(pending)
            if failed:
                for p in procs:
                    p.join(timeout=max(deadline.budget(), 2.0))
                    if p.is_alive():  # pragma: no cover - reported but stuck
                        p.terminate()
                        p.join(timeout=2.0)
            _reap_reported([] if failed else procs)

            self._observe_clock(world_size, control, clock_obs, parent_epoch)
            arena_base = arena_offset(0, world_size, control_bytes,
                                      self.link_bytes, arena_bytes)
            for r in sorted(set(range(world_size)) - pending):
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
                    # arena-resident bodies come back as views of the
                    # segment: the result holds its pages, nothing is copied.
                    blob, specs = result
                    spans = [(arena_base + region * arena_bytes + offset, nbytes)
                             for region, offset, nbytes, _ in specs]
                    results[r] = pickle.loads(blob, buffers=[
                        segment[lo : lo + nbytes] for lo, nbytes in spans
                    ])
                    held += spans
                else:
                    shipped, tb = err
                    errors[r] = WorkerError(r, _revive_exception(shipped), tb)

            if self.tracer is not None and trace_dir is not None:
                self._merge_traces(world_size, trace_dir)

            def flights() -> Dict[str, Dict]:
                silent = {"capacity": 0, "recorded": 0, "dropped": 0, "events": []}
                return {
                    str(r): self.flights_by_rank.get(str(r), {"rank": r, **silent})
                    for r in range(world_size)
                }

            self.abort_origin = control.abort_rank()
            self._postmortem(
                world_size, errors, flights, control.failed,
                control.aborted(), self.clock,
                stuck=sorted(pending), timeout=timeout,
            )
        finally:
            # the call frees what it used: only the results' pages outlive it.
            _free_pages_outside(mapping, held)
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

    def _merge_stats(self, rank: int, bundle: Optional[Dict]) -> None:
        if not bundle:
            return
        self.stats.merge(bundle["traffic"])
        if bundle["chaos"] is not None:
            self.chaos.merge(bundle["chaos"])
        self.pools_by_rank[rank] = bundle["pool"]
        self.metrics_by_rank[rank] = bundle["metrics"]
        self.metrics.merge(bundle["metrics"])
        for snap in bundle["flight"]:
            # a rank's ring is its own events plus what its receivers
            # recorded about it (chaos injections): one timeline, bounded
            # like the ring it came from.
            mine = self.flights_by_rank.setdefault(str(snap["rank"]), snap)
            if mine is not snap:
                events = sorted(mine["events"] + snap["events"],
                                key=lambda e: e["ts"])
                mine["events"] = events[-mine["capacity"]:]
                mine["recorded"] += snap["recorded"]
                mine["dropped"] = mine["recorded"] - len(mine["events"])
        if self.pool is None:
            self.pool = dict(bundle["pool"])
        else:
            for k, v in bundle["pool"].items():
                if isinstance(v, int):
                    self.pool[k] = self.pool.get(k, 0) + v
