"""The message-passing fabric, with an MPI/NCCL-flavoured API.

:class:`Fabric` — the only fabric class; backends differ in the
:class:`~repro.runtime.transport.base.Wire` under it — owns one mailbox
per destination rank; workers interact
through per-rank :class:`Communicator` views offering ``send`` /
``recv`` / ``isend`` / ``irecv`` with ``(phase, ...)`` tags, mirroring
the ``batch_isend_irecv`` pattern the paper's PyTorch implementation
uses for weight prefetching.

Semantics:

* sends are buffered and never block (NCCL eager-ish; matches the
  paper's asynchronous prefetch usage); ``isend`` returns an
  already-complete handle for API symmetry,
* ``irecv`` *posts* a receive: the handle claims the next matching
  message the moment it is delivered (MPI posted-receive semantics), so
  handles on one ``(src, tag)`` channel complete in posting order no
  matter in which order they are waited,
* ``recv`` blocks until a message with the exact ``(src, tag)`` key is
  available; a configurable timeout turns silent deadlocks — the classic
  pipeline-schedule bug — into loud errors naming the blocked rank,
* aborting one worker poisons the fabric so peers blocked in ``recv``
  fail fast instead of hanging the test suite,
* alternatively a *single rank* can be declared failed
  (:meth:`Fabric.fail_rank`) without poisoning the group: every other
  rank is interrupted with :class:`PeerFailed` at its next fabric
  operation, acknowledges the failure, and keeps using the fabric — the
  detection half of elastic ring-shrink recovery
  (:mod:`repro.runtime.recovery`).

Message *order* between a fixed (src, dst, tag) triple is FIFO; across
different tags matching is by tag, as in MPI.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict, deque
from time import perf_counter
from typing import Any, Deque, Dict, Optional, Tuple

from ..obs import flight as _flight
from ..obs.flight import FlightBox
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import NULL_TRACER
from .chaos import ChaosLayer, ChaosPolicy
from .integrity import payload_crc32
from .message import Message, TrafficStats, payload_nbytes, tag_kind
from .topology import Topology
from .transport.base import Deadline, Wire
from .transport.thread import LocalWire

__all__ = [
    "Fabric",
    "Communicator",
    "RecvTimeout",
    "FabricAborted",
    "PeerFailed",
    "DeclaredDead",
]


#: counters every fabric creates eagerly (quiet runs must export zeros).
HEAL_COUNTERS = (
    "fabric_retransmits",
    "fabric_corrupt_frames",
    "detector_suspicions",
    "detector_suspicions_cleared",
    "detector_confirms",
    "ring_rejoins",
)


class RecvTimeout(RuntimeError):
    """A blocking receive waited longer than the fabric timeout."""


class FabricAborted(RuntimeError):
    """A peer worker raised; the fabric has been poisoned."""


class DeclaredDead(RuntimeError):
    """This rank was confirmed dead by the group while it was still alive.

    Only raised on fabrics with a failure detector attached: a rank that
    was falsely confirmed (it merely stalled or its NIC flapped) learns
    about the verdict at its next fabric operation and can ask to
    re-enter via :meth:`Fabric.request_rejoin` /
    :meth:`Fabric.await_readmission` — the re-grow half of elastic
    recovery (:mod:`repro.runtime.recovery`).  Genuinely crashed ranks
    never perform another fabric operation, so they never see this.
    """


class PeerFailed(RuntimeError):
    """One or more peer ranks failed (fail-stop); the fabric stays alive.

    Raised at a survivor's next fabric operation after
    :meth:`Fabric.fail_rank`, once per failure epoch per rank — call
    :meth:`Communicator.acknowledge_failures` to resume using the
    fabric.  ``failed`` maps the dead global rank to ``(reason, step)``
    where ``step`` is the last progress that rank reported (or ``None``).
    """

    def __init__(self, failed: Dict[int, Tuple[str, Optional[int]]]):
        self.failed = dict(failed)
        parts = ", ".join(
            f"rank {r} (step {s if s is not None else '?'}: {reason})"
            for r, (reason, s) in sorted(self.failed.items())
        )
        super().__init__(f"peer failure detected: {parts}")

    @property
    def ranks(self) -> Tuple[int, ...]:
        return tuple(sorted(self.failed))


class Fabric:
    """Shared state for one group of communicating workers.

    There is one fabric class.  It owns everything with message-passing
    *semantics* — rank checks, disturbance (abort, fail epochs, acks),
    detector heartbeats and verdicts, rejoin, traffic + metrics + the
    flight recorder, mailboxes, posted receives, the deadline-checked
    wait loop and the shared pool — over a
    :class:`~repro.runtime.transport.base.Wire` that only moves
    messages between endpoints (in this object for threads, through
    shared-memory rings for processes).  ``policy`` attaches the
    :class:`~repro.runtime.chaos.ChaosLayer` between the two: every
    arriving message passes through it on either wire.
    """

    def __init__(
        self,
        world_size: int,
        timeout: float = 60.0,
        tracer=None,
        metrics: Optional[MetricsRegistry] = None,
        topology: Optional[Topology] = None,
        detector=None,
        integrity: bool = True,
        policy: Optional[ChaosPolicy] = None,
        wire: Optional[Wire] = None,
    ):
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        if topology is not None and topology.world_size != world_size:
            raise ValueError(
                f"topology is for world_size {topology.world_size}, "
                f"fabric has {world_size}"
            )
        self.world_size = world_size
        self.timeout = timeout
        #: optional per-link topology; when set, traffic is additionally
        #: ledgered per link class (intra/inter) and the chaos layer adds a
        #: deterministic serialization delay per link.  Without a policy
        #: delivery stays instant — topology is then accounting-only.
        self.topology = topology
        #: per-rank timeline recorder; NULL_TRACER (allocation-free
        #: no-ops) unless a real one is attached — see repro.obs.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: canonical metric store; TrafficStats below remains as a thin
        #: legacy view fed by the same _record_traffic_locked call.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: optional :class:`~repro.runtime.detector.FailureDetector`;
        #: when attached, every fabric operation heartbeats its rank and
        #: blocked receivers periodically re-judge their peer — confirmed
        #: failures feed the fail_rank / PeerFailed elastic path, and a
        #: falsely-confirmed (still running) rank gets DeclaredDead.
        self.detector = detector
        #: frame every posted message with a payload CRC32 (verified by
        #: the chaos layer on delivery; a wire that checksums its own
        #: frames does it instead, a quiet in-process wire is trusted).
        self.integrity = integrity
        # heal telemetry: created eagerly so quiet runs export explicit
        # zeros (the CI quiet-wire control asserts on them).
        self._m_heal = {
            name: self.metrics.counter(name) for name in HEAL_COUNTERS
        }
        #: always-on black-box flight recorder: one bounded ring per
        #: rank holding the most recent fabric/control/integrity events
        #: (repro.obs.flight).  Fixed memory, allocation-free writes;
        #: transports dump it into a post-mortem bundle on failure.
        self.flight = FlightBox(world_size)
        # cached per-kind counter handles so the per-message hot path
        # does one dict lookup, not a registry resolution.
        self._traffic_handles: Dict[str, Tuple[Any, Any]] = {}
        # ditto for the per-link-class handles (topology fabrics only).
        self._link_handles: Dict[str, Tuple[Any, Any]] = {}
        self._link_bytes: Dict[str, int] = {}
        self._link_msgs: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        # mailbox[dst][(src, tag)] -> FIFO of messages
        self._mail: Dict[int, Dict[Tuple, Deque[Message]]] = {
            r: defaultdict(deque) for r in range(world_size)
        }
        self._aborted: Optional[str] = None
        #: the rank whose failure the first abort names (see ``abort``).
        self.abort_rank: Optional[int] = None
        # fail-stop bookkeeping (elastic mode): dead rank -> (reason, step);
        # each failure bumps the epoch, and every surviving rank raises
        # PeerFailed once per epoch until it acknowledges.
        self._failed: Dict[int, Tuple[str, Optional[int]]] = {}
        self._fail_epoch = 0
        self._ack_epoch: Dict[int, int] = {}
        self._progress: Dict[int, int] = {}
        # ring re-grow bookkeeping: failed ranks asking to come back, and
        # admissions waiting to be picked up -> (recovery epoch, leader).
        self._rejoin_requests: set = set()
        self._admitted: Dict[int, Tuple[int, int]] = {}
        # posted receives: (dst, src, tag) -> FIFO of unfulfilled handles.
        # Delivery drains mailbox messages into posted handles in posting
        # order, so out-of-order waits cannot steal each other's message.
        self._posted: Dict[Tuple[int, int, Tuple], Deque["_RecvHandle"]] = {}
        self._shared_pool: Any = None
        self.stats = TrafficStats()
        #: the seeded adversary, when a policy is attached; ``chaos`` is
        #: then its :class:`~repro.runtime.chaos.ChaosStats`.
        self.policy = policy
        self._layer = ChaosLayer(self, policy) if policy is not None else None
        self.chaos = self._layer.stats if self._layer is not None else None
        # where the wire hands arrived messages: the chaos layer's
        # admission when there is one, the mailbox otherwise.
        self._arrive_locked = (
            self._layer.admit if self._layer is not None else self._deliver_locked
        )
        self._wire = wire if wire is not None else LocalWire()
        self._wire.attach(self)

    # -- internal ------------------------------------------------------------

    def _check_rank(self, rank: int) -> None:
        if not (0 <= rank < self.world_size):
            raise ValueError(f"rank {rank} out of range 0..{self.world_size - 1}")

    def _check_endpoint(self, rank: int) -> None:
        if rank not in self._wire.ranks:
            self._check_rank(rank)
            raise ValueError(
                f"this endpoint owns rank(s) {list(self._wire.ranks)}; "
                f"rank {rank} lives in another process"
            )

    def _sync_locked(self) -> None:
        """Fold what peers outside this object published (abort, fail
        records) into the local disturbance state (caller holds lock)."""
        news = self._wire.sync()
        if news is None:
            return
        aborted, failed = news
        if aborted and not self._aborted:
            self._aborted = aborted
        for r, v in failed.items():
            if r not in self._failed:
                self._failed[r] = v
                self._fail_epoch += 1
        self._cond.notify_all()

    def _check_disturbed(self, rank: int) -> None:
        """Raise if the fabric was poisoned or a peer failure is unacked.

        Caller holds the lock.  Without a failure detector, ``rank``
        never observes its *own* failure, so a dead rank's pending ops
        don't mask the original exception.  With a detector attached a
        failure may be a false confirmation of a rank that is in fact
        still running — that rank is told so with :class:`DeclaredDead`
        (its gateway into the rejoin protocol) instead of being left to
        time out.
        """
        self._sync_locked()
        if self._aborted:
            raise FabricAborted(self._aborted)
        if self._failed:
            if rank in self._failed and self.detector is not None:
                reason, _ = self._failed[rank]
                raise DeclaredDead(
                    f"rank {rank} was declared failed ({reason}); "
                    f"request_rejoin() to re-enter the ring"
                )
            if self._ack_epoch.get(rank, 0) < self._fail_epoch:
                self.flight.rings[rank].record(
                    _flight.EV_PEER_FAILED, rank, self._fail_epoch
                )
                raise PeerFailed(
                    {r: v for r, v in self._failed.items() if r != rank}
                )

    def _beat_locked(self, rank: int, now: float) -> None:
        """Record liveness evidence for ``rank`` (caller holds the lock)
        — unless the chaos layer has its NIC flapped: that suppression is
        exactly what lets tests drive the suspect/confirm path
        deterministically."""
        if self._layer is not None and self._layer.nic_down(rank, now):
            return
        if self.detector.heartbeat(rank, now):
            self._m_heal["detector_suspicions_cleared"].add(1)
            self.flight.rings[rank].record(_flight.EV_SUSPECT_CLEAR, rank)

    def _record_traffic_locked(self, msg: Message) -> None:
        """Account one *logical* message, exactly once, for both the
        legacy :class:`TrafficStats` view and the metrics registry.

        This is the single choke point for traffic accounting, called
        from the one ``post``, so the per-kind ledgers cannot drift
        apart.  Caller holds the fabric lock, which is what makes the
        shared counter handles safe.
        """
        self.stats.record(msg)
        self.flight.rings[msg.src].record(_flight.EV_SEND, msg.dst, msg.nbytes)
        kind = tag_kind(msg.tag)
        handles = self._traffic_handles.get(kind)
        if handles is None:
            handles = (
                self.metrics.counter("fabric_bytes_total", kind=kind),
                self.metrics.counter("fabric_messages_total", kind=kind),
            )
            self._traffic_handles[kind] = handles
        handles[0].add(msg.nbytes)
        handles[1].add(1)
        if self.topology is not None:
            cls = self.topology.link_class(msg.src, msg.dst)
            link_handles = self._link_handles.get(cls)
            if link_handles is None:
                link_handles = (
                    self.metrics.counter("fabric_link_bytes_total", link=cls),
                    self.metrics.counter("fabric_link_messages_total", link=cls),
                )
                self._link_handles[cls] = link_handles
            link_handles[0].add(msg.nbytes)
            link_handles[1].add(1)
            self._link_bytes[cls] = self._link_bytes.get(cls, 0) + msg.nbytes
            self._link_msgs[cls] = self._link_msgs.get(cls, 0) + 1

    def link_traffic(self) -> Dict[str, Dict[str, int]]:
        """Per-link-class logical traffic so far (topology fabrics only):
        ``{"intra": {"bytes": ..., "messages": ...}, "inter": {...}}``."""
        with self._lock:
            return {
                cls: {"bytes": self._link_bytes.get(cls, 0),
                      "messages": self._link_msgs.get(cls, 0)}
                for cls in sorted(set(self._link_bytes) | set(self._link_msgs))
            }

    def link_delay(self, src: int, dst: int, nbytes: int) -> float:
        """Deterministic per-link serialization delay (0 without topology)
        the chaos layer charges on the link clock.

        Pure in ``(src, dst, nbytes)`` — exposed so the latency-ordering
        property tests can check it without racing the wall clock."""
        if self.topology is None:
            return 0.0
        return self.topology.wire_time(src, dst, nbytes)

    # -- delivery --------------------------------------------------------------

    def _land_locked(self) -> None:
        """Move in-flight wire state into mailboxes (caller holds lock):
        whatever the wire has received arrives, then the chaos layer
        lands the copies that are due."""
        self._wire.poll()
        if self._layer is not None:
            self._layer.release(_now())

    def _deliver_locked(self, msg: Message) -> None:
        """Put ``msg`` in its mailbox and fulfil posted receives."""
        self._mail[msg.dst][(msg.src, msg.tag)].append(msg)
        key = (msg.dst, msg.src, msg.tag)
        if key in self._posted:
            self._drain_locked(key)

    def _drain_locked(self, key: Tuple[int, int, Tuple]) -> None:
        """Fulfil posted receives on ``key`` from its mailbox, in posting
        order (caller holds lock)."""
        posted = self._posted.get(key)
        if not posted:
            return
        queue = self._mail[key[0]][(key[1], key[2])]
        ring = self.flight.rings[key[0]]
        while posted and queue:
            h = posted.popleft()
            msg = queue.popleft()
            h._value = msg.payload
            h._done = True
            ring.record(_flight.EV_RECV, key[1], msg.nbytes)
        if not posted:
            del self._posted[key]

    def post(self, msg: Message) -> None:
        """The one send path: prologue (endpoint and disturbance checks,
        CRC stamp, heartbeat, traffic ledger), the chaos layer's
        sender-side stage, then the wire."""
        self._check_endpoint(msg.src)
        self._check_rank(msg.dst)
        wire, layer = self._wire, self._layer
        if self.integrity and msg.crc is None and not wire.verifies:
            msg.crc = payload_crc32(msg.payload)
        with self._cond:
            self._check_disturbed(msg.src)
            if self.detector is not None:
                self._beat_locked(msg.src, _now())
            stall = layer.on_post(msg) if layer is not None else 0.0
            self._record_traffic_locked(msg)  # logical traffic: once per message
            if stall:
                # an injected stall freezes the sender before its message
                # leaves, *outside* the lock: the rest of the group keeps
                # running (and its failure detector keeps judging us).
                self._lock.release()
                try:
                    time.sleep(stall)
                finally:
                    self._lock.acquire()
            wire.send(msg)
            if layer is not None:
                layer.release(_now())
            self._cond.notify_all()
            if stall:
                # a long stall may have gotten this rank confirmed dead —
                # surface DeclaredDead / PeerFailed here, at a fabric
                # operation, like any other disturbance.
                self._check_disturbed(msg.src)

    def _post_recv_locked(self, dst: int, src: int, tag: Tuple) -> "_RecvHandle":
        # failure/abort checks come before consuming available messages
        # so survivors are interrupted promptly even when stale pre-crash
        # traffic is still queued.
        self._check_disturbed(dst)
        h = _RecvHandle(self, dst, src, tag)
        key = (dst, src, tag)
        self._posted.setdefault(key, deque()).append(h)
        self._land_locked()
        self._drain_locked(key)
        return h

    def post_recv(self, dst: int, src: int, tag: Tuple) -> "_RecvHandle":
        """Post a receive: the returned handle owns the next matching
        message not claimed by an earlier posted receive."""
        self._check_rank(dst)
        self._check_rank(src)
        with self._cond:
            return self._post_recv_locked(dst, src, tag)

    def _cancel_locked(self, h: "_RecvHandle") -> None:
        posted = self._posted.get((h._dst, h._src, h._tag))
        if posted is not None:
            try:
                posted.remove(h)
            except ValueError:
                pass
            if not posted:
                del self._posted[(h._dst, h._src, h._tag)]

    def _wait_locked(self, h: "_RecvHandle", timeout: Optional[float]) -> Any:
        deadline = Deadline(timeout if timeout is not None else self.timeout)
        layer = self._layer
        while True:
            if h._done:
                return h._value
            try:
                self._check_disturbed(h._dst)
                self._land_locked()
                self._drain_locked((h._dst, h._src, h._tag))
                if h._done:
                    return h._value
                # after the pump: this thread's own pump call may have just
                # poisoned the flow (budget-exhausted corrupt frame), and
                # the notify_all it issued can't wake the thread that holds
                # the lock — re-checking here avoids sleeping a full
                # timeout on a flow already known dead.
                if layer is not None:
                    layer.check_flow(h._dst, h._src, h._tag)
                # re-derive the budget from the deadline each pass: spurious
                # wakeups (notify_all for a different channel) must neither
                # shrink the budget below zero nor hand the wait a
                # negative timeout.
                now = _now()
                det = self.detector
                if det is not None:
                    # a blocked receiver is alive: each loop pass is a
                    # heartbeat for the waiting rank, while the peer it
                    # waits on gets re-judged — suspicion first, and only
                    # a suspicion that outlives the confirmation window
                    # triggers the fail-stop shrink path.
                    self._beat_locked(h._dst, now)
                    if h._src != h._dst and h._src not in self._failed:
                        verdict = det.evaluate(h._src, now)
                        if verdict == "suspect":
                            self._m_heal["detector_suspicions"].add(1)
                            self.flight.rings[h._dst].record(
                                _flight.EV_SUSPECT, h._src
                            )
                            if h._trace is not None:
                                h._trace.instant(
                                    "suspect", "heal",
                                    {"rank": h._src,
                                     "phi": round(det.phi(h._src, now), 2)},
                                )
                        elif verdict == "confirm":
                            self._m_heal["detector_confirms"].add(1)
                            self.flight.rings[h._dst].record(
                                _flight.EV_CONFIRM, h._src
                            )
                            if h._trace is not None:
                                h._trace.instant(
                                    "confirm-dead", "heal", {"rank": h._src}
                                )
                            self._fail_rank_locked(
                                h._src,
                                f"failure detector confirmed rank {h._src} "
                                f"dead (silent beyond "
                                f"{det.confirm_after(h._src):.3f}s)",
                                None,
                            )
                            continue  # next pass raises PeerFailed
                if deadline.expired():
                    seed = (
                        f" under chaos seed {self.policy.seed}"
                        if layer is not None else ""
                    )
                    raise RecvTimeout(
                        f"rank {h._dst} timed out waiting for msg from rank "
                        f"{h._src} tag={h._tag} after {deadline.elapsed():.3f}s "
                        f"(timeout {deadline.limit}s{seed}; "
                        f"likely a schedule deadlock)"
                    )
                wait_for = deadline.remaining()
                nxt = layer.next_event() if layer is not None else None
                if nxt is not None:
                    # wake when the earliest in-flight message lands
                    wait_for = min(wait_for, max(nxt - now, 0.0) + 1e-4)
                if det is not None:
                    # re-judge peers at the detector's cadence even when
                    # no wire event is due.
                    wait_for = min(wait_for, det.poll_interval)
                self._wire.wait(wait_for)
            except BaseException:
                # an abandoned posted receive must not swallow a later
                # message on its channel: unpost before propagating.
                self._cancel_locked(h)
                raise

    def wait_handle(self, h: "_RecvHandle", timeout: Optional[float]) -> Any:
        with self._cond:
            return self._wait_locked(h, timeout)

    def test_handle(self, h: "_RecvHandle") -> bool:
        with self._cond:
            if not h._done:
                self._land_locked()
                self._drain_locked((h._dst, h._src, h._tag))
            return h._done

    def take(self, dst: int, src: int, tag: Tuple, timeout: Optional[float]) -> Any:
        self._check_rank(dst)
        self._check_rank(src)
        with self._cond:
            h = self._post_recv_locked(dst, src, tag)
            return self._wait_locked(h, timeout)

    def poll(self, dst: int, src: int, tag: Tuple) -> bool:
        """True when an *unclaimed* matching message is deliverable now
        (messages already claimed by posted receives don't count)."""
        with self._cond:
            self._land_locked()
            self._drain_locked((dst, src, tag))
            return bool(self._mail[dst][(src, tag)])

    def _pool_locked(self, factory) -> Any:
        if self._shared_pool is None:
            self._shared_pool = self._wire.make_pool(factory)
        return self._shared_pool

    def shared_pool(self, factory) -> Any:
        """The endpoint's buffer pool, lazily created from ``factory``.

        All ranks of one endpoint share it, so a buffer released by one
        worker is recycled by its neighbour — exactly the lifecycle of a
        circulating weight slot."""
        with self._lock:
            return self._pool_locked(factory)

    def abort(self, reason: str, rank: Optional[int] = None) -> None:
        """Poison the group.  ``rank`` is the rank whose failure this is
        (``None``: no rank's, e.g. a join timeout).  The first abort is
        the record: the ranks it poisons abort in turn and must not
        overwrite its cause."""
        with self._cond:
            home = self._wire.ranks[0]
            self.flight.rings[home].record(_flight.EV_ABORT, home)
            if not self._aborted:
                self._wire.publish_abort(reason, rank)
                self._aborted, self.abort_rank = reason, rank
            self._cond.notify_all()

    # -- fail-stop failure detection (elastic mode) ---------------------------

    def fail_rank(self, rank: int, reason: str, step: Optional[int] = None) -> None:
        """Declare ``rank`` dead without poisoning the fabric.

        Survivors observe :class:`PeerFailed` at their next fabric
        operation (blocked receivers are woken immediately); after
        acknowledging they may keep communicating.  ``step`` defaults to
        the rank's last :meth:`report_progress` value.
        """
        self._check_rank(rank)
        with self._cond:
            self._fail_rank_locked(rank, reason, step)

    def _fail_rank_locked(
        self, rank: int, reason: str, step: Optional[int] = None
    ) -> None:
        """Body of :meth:`fail_rank` (caller holds the lock) — also
        invoked from inside a blocked receive when the failure detector
        confirms a peer dead."""
        if rank in self._failed:
            return
        if step is None:
            step = self._progress.get(rank)
        self.flight.rings[rank].record(
            _flight.EV_FAIL, rank, step if step is not None else -1
        )
        self._wire.publish_fail(rank, reason, step)
        self._failed[rank] = (reason, step)
        self._fail_epoch += 1
        self._cond.notify_all()

    def failed_ranks(self) -> Dict[int, Tuple[str, Optional[int]]]:
        """Dead ranks so far: ``{rank: (reason, step)}``."""
        with self._lock:
            self._sync_locked()
            return dict(self._failed)

    # -- ring re-grow (rank rejoin) -------------------------------------------

    def request_rejoin(self, rank: int) -> None:
        """A declared-dead rank asks to re-enter the ring.

        Survivors observe the request via :meth:`pending_rejoins` at
        their next commit fence and admit it at a step boundary with
        :meth:`admit_rejoin`; the requester blocks in
        :meth:`await_readmission` meanwhile.  A no-op for live ranks.
        """
        self._check_rank(rank)
        with self._cond:
            if rank not in self._failed:
                return
            self._rejoin_requests.add(rank)
            self._cond.notify_all()

    def pending_rejoins(self) -> Tuple[int, ...]:
        """Failed ranks currently asking to rejoin (sorted)."""
        with self._lock:
            return tuple(sorted(self._rejoin_requests))

    def admit_rejoin(self, rank: int, epoch: int, leader: int) -> None:
        """Re-admit ``rank`` (called once, by the survivor leader).

        Clears the failure record *without* bumping the failure epoch —
        survivors already agreed on the admission at the commit fence, so
        nobody needs a PeerFailed interrupt — marks every past epoch as
        acknowledged for the rejoiner, resets its detector history, and
        wakes its :meth:`await_readmission`.  ``leader`` is the global
        rank that will send the state snapshot.
        """
        self._check_rank(rank)
        with self._cond:
            if rank not in self._failed:
                raise ValueError(f"rank {rank} is not failed; cannot rejoin")
            del self._failed[rank]
            self._rejoin_requests.discard(rank)
            self._ack_epoch[rank] = self._fail_epoch
            self._admitted[rank] = (epoch, leader)
            if self.detector is not None:
                self.detector.reset(rank)
            self._m_heal["ring_rejoins"].add(1)
            self.flight.rings[rank].record(_flight.EV_REJOIN, rank, epoch)
            self._cond.notify_all()

    def await_readmission(
        self, rank: int, timeout: Optional[float] = None
    ) -> Tuple[int, int]:
        """Block until :meth:`admit_rejoin` lets ``rank`` back in; returns
        ``(recovery_epoch, leader_rank)``."""
        deadline = Deadline(timeout if timeout is not None else self.timeout)
        with self._cond:
            while rank not in self._admitted:
                if self._aborted:
                    raise FabricAborted(self._aborted)
                if deadline.expired():
                    raise RecvTimeout(
                        f"rank {rank} was never re-admitted within "
                        f"{deadline.limit}s "
                        f"(survivors finished or rejected the rejoin)"
                    )
                self._wire.wait(deadline.remaining())
            return self._admitted.pop(rank)

    def acknowledge_failures(self, rank: int) -> None:
        """Mark every failure so far as seen by ``rank``; its fabric
        operations stop raising :class:`PeerFailed` until the next
        failure epoch."""
        with self._cond:
            self._ack_epoch[rank] = self._fail_epoch

    def report_progress(self, rank: int, step: int) -> None:
        """Record ``rank``'s training progress (used to annotate the
        ``step`` field of failures it may suffer later)."""
        with self._lock:
            self.flight.rings[rank].record(_flight.EV_PROGRESS, rank, step)
            self._progress[rank] = step
            self._wire.publish_progress(rank, step)

    def communicator(self, rank: int) -> "Communicator":
        self._check_endpoint(rank)
        return Communicator(self, rank)


def _now() -> float:
    return time.monotonic()


class _RecvHandle:
    """A posted receive (returned by :meth:`Communicator.irecv`).

    Posted handles on one ``(src, tag)`` channel are fulfilled in the
    order they were posted, regardless of the order they are waited —
    MPI's posted-receive matching rule.  A handle abandoned by a raising
    ``wait`` (timeout, peer failure, abort) is unposted so it cannot
    swallow a later message.
    """

    __slots__ = ("_fabric", "_dst", "_src", "_tag", "_done", "_value", "_trace")

    def __init__(self, fabric: Fabric, dst: int, src: int, tag: Tuple):
        self._fabric = fabric
        self._dst = dst
        self._src = src
        self._tag = tag
        self._done = False
        self._value = None
        # set by Communicator.irecv only when tracing is on, so the
        # untraced path never pays for it.
        self._trace = None

    def wait(self, timeout: Optional[float] = None) -> Any:
        # lock-free fast path: in the steady-state ring the message was
        # drained into the handle during the sender's post, so the hot
        # loop never touches the fabric lock here.
        if self._done:
            return self._value
        tr = self._trace
        if tr is None:
            return self._fabric.wait_handle(self, timeout)
        t0 = perf_counter()
        value = self._fabric.wait_handle(self, timeout)
        tr.complete("wait", "wire", t0, perf_counter() - t0,
                    {"src": self._src, "tag": self._tag})
        return value

    def test(self) -> bool:
        """Non-blocking completion check (never raises)."""
        if self._done:
            return True
        return self._fabric.test_handle(self)

    # historical name, kept for callers written against the peek API.
    ready = test


class _SendHandle:
    """Handle returned by :meth:`Communicator.isend`.

    Sends are buffered and complete at post time, so the handle exists
    purely for MPI-style call symmetry (`wait`/`test` are trivial).
    """

    __slots__ = ()

    def wait(self, timeout: Optional[float] = None) -> None:
        return None

    def test(self) -> bool:
        return True

    ready = test


#: all buffered sends share one completed handle.
_SEND_DONE = _SendHandle()


class Communicator:
    """Per-rank view of a :class:`Fabric`."""

    def __init__(self, fabric: Fabric, rank: int):
        self.fabric = fabric
        self.rank = rank
        #: this rank's timeline buffer (a NullRankTracer when tracing is
        #: off — check ``self.trace.enabled`` before building span args).
        self.trace = fabric.tracer.rank(rank)

    @property
    def world_size(self) -> int:
        return self.fabric.world_size

    # ring neighbours (the topology every strategy in the paper uses;
    # NCCL's default collectives are ring-based too, which the paper cites
    # to justify comparing everything on a ring).
    @property
    def right(self) -> int:
        """Successor on the ring (rank + 1 mod P): where WeiPipe sends weights."""
        return (self.rank + 1) % self.world_size

    @property
    def left(self) -> int:
        """Predecessor on the ring (rank - 1 mod P): where weights come from."""
        return (self.rank - 1) % self.world_size

    # -- point to point -------------------------------------------------------

    def send(self, payload: Any, dst: int, tag: Tuple = (), nbytes: Optional[int] = None) -> None:
        """Buffered (non-blocking) send."""
        size = nbytes if nbytes is not None else payload_nbytes(payload)
        self.fabric.post(
            Message(src=self.rank, dst=dst, tag=tag, payload=payload, nbytes=size)
        )
        if self.trace.enabled:
            # the "send" instant stream *is* the per-turn chunk record the
            # analyzer counts (2W+1D): kind + tag identify the flow/turn.
            self.trace.instant(
                "send", "comm",
                {"dst": dst, "kind": tag_kind(tag), "nbytes": size, "tag": tag},
            )

    def isend(
        self, payload: Any, dst: int, tag: Tuple = (), nbytes: Optional[int] = None
    ) -> _SendHandle:
        """Non-blocking send (buffered, so it completes at post time);
        returns a trivially-complete handle for batch_isend_irecv-style
        call sites."""
        self.send(payload, dst, tag, nbytes=nbytes)
        return _SEND_DONE

    def recv(self, src: int, tag: Tuple = (), timeout: Optional[float] = None) -> Any:
        """Blocking receive of the matching (src, tag) message."""
        if not self.trace.enabled:
            return self.fabric.take(self.rank, src, tag, timeout)
        t0 = perf_counter()
        value = self.fabric.take(self.rank, src, tag, timeout)
        self.trace.complete("recv", "wire", t0, perf_counter() - t0,
                            {"src": src, "tag": tag})
        return value

    def irecv(self, src: int, tag: Tuple = ()) -> _RecvHandle:
        """Post a non-blocking receive; call ``.wait()`` on the handle.

        The receive is matched against the channel's FIFO stream at post
        time, so several outstanding ``irecv`` on the same ``(src, tag)``
        complete in posting order."""
        h = self.fabric.post_recv(self.rank, src, tag)
        if self.trace.enabled:
            h._trace = self.trace  # lets a blocked wait record its stall
        return h

    def sendrecv(
        self,
        payload: Any,
        dst: int,
        src: int,
        tag: Tuple = (),
        nbytes: Optional[int] = None,
    ) -> Any:
        """Post a send, then block on the matching receive (safe on rings
        because sends are buffered)."""
        self.send(payload, dst, tag, nbytes=nbytes)
        return self.recv(src, tag)

    # -- fail-stop failure detection (elastic mode) ---------------------------

    def acknowledge_failures(self) -> None:
        """Accept all peer failures observed so far and resume fabric use."""
        self.fabric.acknowledge_failures(self.rank)

    def failed_peers(self) -> Dict[int, Tuple[str, Optional[int]]]:
        """Dead *global* ranks so far: ``{rank: (reason, step)}``."""
        return self.fabric.failed_ranks()

    def report_progress(self, step: int) -> None:
        """Publish this rank's training progress for failure attribution."""
        self.fabric.report_progress(self.rank, step)

    # -- ring re-grow (rank rejoin) -------------------------------------------

    def request_rejoin(self) -> None:
        """Ask the survivors to let this (declared-dead) rank back in."""
        self.fabric.request_rejoin(self.rank)

    def await_readmission(self, timeout: Optional[float] = None) -> Tuple[int, int]:
        """Block until admitted; returns ``(recovery_epoch, leader_rank)``."""
        return self.fabric.await_readmission(self.rank, timeout)

    def pending_rejoins(self) -> Tuple[int, ...]:
        """Failed ranks currently asking to rejoin (sorted)."""
        return self.fabric.pending_rejoins()
