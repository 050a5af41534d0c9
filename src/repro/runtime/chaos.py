"""Chaos engineering for the fabric: one layer, both wires.

A :class:`~repro.runtime.Fabric` without a policy delivers every
message as soon as its wire hands it over, so the test suite only ever
exercises *one* legal delivery order — the happy path.  Real transports
(NCCL over NVLink, RDMA, TCP) delay, reorder across flows, duplicate at
the transport layer and lose packets; schedule bugs of the kind
zero-bubble pipelines are famous for hide exactly in those rare
orderings.

``Fabric(world, policy=ChaosPolicy(...))`` — or
``ProcessTransport(policy=...)`` — attaches a :class:`ChaosLayer`
between the fabric and its wire: a *seeded* adversarial transport that
every arriving message passes through, whichever wire carried it:

* **delay** — a message becomes visible to ``recv``/``poll`` only after
  a per-message hold-back interval;
* **cross-flow reordering** — because delays are independent per
  message, messages on *different* ``(src, dst, tag)`` channels overtake
  each other freely.  Within one channel delivery stays FIFO (enforced
  by per-channel sequence numbers), exactly the guarantee MPI/NCCL give
  and the strongest reordering a correct program may be exposed to;
* **drop with retry** — the first transmission is lost and a
  retransmission is scheduled ``retry_delay`` later (at-least-once
  transport);
* **duplicate delivery** — a second copy is put on the wire; the
  receiving side discards it by sequence number (exactly-once delivery
  built on an at-least-once wire, the way real transports do it);
* **injected crash** — a chosen rank raises :class:`ChaosCrash` on its
  N-th ``send``, driving the launcher's ``abort()``/poison path so peers
  must fail fast with ``FabricAborted``;
* **payload bit-flip (SDC)** — a *copy* of the payload with one flipped
  bit rides the wire instead of the original; the structural CRC32 of
  the pristine payload catches it on delivery and drives NACK + retransmit with
  capped exponential backoff.  Only when a flow exhausts its retransmit
  budget does the receiver raise
  :class:`~repro.runtime.integrity.CorruptFrameError` — a persistently
  corrupting link is a permanent failure;
* **directed-link flap** — a bounded window of consecutive posts on one
  ``(src, dst)`` link is held back until the outage ends (no loss: the
  wire stays at-least-once);
* **transient rank stall** — a chosen (or seeded) rank freezes for a
  bounded duration at one of its sends, long enough to drive the failure
  detector's suspect path without any crash;
* **rank flap (NIC outage)** — one rank's links go down entirely for a
  bounded window *and* its heartbeats are suppressed, which is the
  deterministic way to drive suspect → confirm → shrink → rejoin
  (thread backend only: heartbeats do not cross processes yet).

Every per-message decision is a pure function of ``(policy.seed, src,
dst, tag, per-channel sequence number)`` — *not* of wall-clock time or
thread interleaving — so a failing chaos seed names a reproducible
adversary even though the OS scheduler stays nondeterministic.  (Link
flaps extend the scheme with the per-directed-link post index as the
sequence, and stalls with the per-rank post index; both stay pure.)
Purity is also why one layer serves both wires: frames arrive per link
in post order, so the *receiving* endpoint counts the same sequence
numbers the sender would and can take every per-message decision
itself; only what depends on the sender's own post count (crash,
stall) runs at the sending endpoint.
Logical traffic accounting (:class:`~repro.runtime.TrafficStats`)
records each message once; retransmitted and duplicated bytes are
tallied separately in :class:`ChaosStats` so the communication-volume
tests stay meaningful under chaos.
"""

from __future__ import annotations

import heapq
import itertools
import time
import zlib
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Set, Tuple

import numpy as np
from numpy.random import default_rng

from ..obs import flight as _flight
from .integrity import CorruptFrameError, corrupt_copy, payload_crc32
from .message import Message

__all__ = ["ChaosPolicy", "ChaosStats", "ChaosCrash", "ChaosLayer"]


class ChaosCrash(RuntimeError):
    """Injected worker failure (see :attr:`ChaosPolicy.crash_rank`)."""


@dataclass(frozen=True)
class ChaosPolicy:
    """Seeded fault-injection policy.

    Probabilities are per *message*; delays are seconds (keep them in
    the low-millisecond range — they bound wall-clock test time, not
    simulated time).  ``seed`` selects the adversary: sweeping seeds
    sweeps delivery orders.
    """

    seed: int = 0
    #: probability a message is held back before delivery.
    delay_prob: float = 0.5
    #: maximum hold-back, seconds (uniform in [0, max_delay]).  1 ms is
    #: already ~1000x the in-process message-handling latency, so it
    #: reorders aggressively while keeping sweep wall-clock low.
    max_delay: float = 0.001
    #: probability the first transmission is lost (then retransmitted).
    drop_prob: float = 0.05
    #: extra latency of the sender-side retransmission, seconds.
    retry_delay: float = 0.001
    #: probability a second (to-be-discarded) copy hits the wire.
    duplicate_prob: float = 0.05
    #: rank whose ``send`` raises :class:`ChaosCrash` ... (None = never)
    crash_rank: Optional[int] = None
    #: ... on its N-th post (1-based count of messages that rank sent).
    crash_at_post: Optional[int] = None
    # -- transient faults (all off by default, so existing seeds keep
    # -- their exact historical fault schedules) ------------------------------
    #: probability a message's wire copy suffers a single-bit flip (SDC).
    bitflip_prob: float = 0.0
    #: per-flow cap on CRC-driven retransmissions; the receiver raises
    #: :class:`~repro.runtime.integrity.CorruptFrameError` past it.
    retransmit_budget: int = 16
    #: cap on the exponential NACK backoff (seconds).
    max_backoff: float = 0.02
    #: probability a flap window *opens* at any given post of a directed
    #: link (each window holds ``flap_len`` consecutive posts back).
    flap_prob: float = 0.0
    #: number of consecutive link posts one flap window affects.
    flap_len: int = 4
    #: outage penalty added to flapped messages (seconds).
    flap_delay: float = 0.003
    #: explicit flap windows: ``(src, dst, first_link_post, n_posts)``.
    flaps: Tuple[Tuple[int, int, int, int], ...] = ()
    #: probability a rank stalls (freezes) at any given one of its posts.
    stall_prob: float = 0.0
    #: maximum seeded stall duration (uniform in (0, max_stall]).
    max_stall: float = 0.0
    #: deterministic single stall: rank / 1-based post index / seconds.
    stall_rank: Optional[int] = None
    stall_at_post: Optional[int] = None
    stall_duration: float = 0.0
    #: NIC outage: this rank's links go down and its heartbeats are
    #: suppressed for ``flap_rank_duration`` seconds starting at its
    #: ``flap_rank_at_post``-th post (1-based).
    flap_rank: Optional[int] = None
    flap_rank_at_post: Optional[int] = None
    flap_rank_duration: float = 0.0

    @classmethod
    def quiet(cls, seed: int = 0) -> "ChaosPolicy":
        """A policy that injects nothing (useful as a control group)."""
        return cls(seed=seed, delay_prob=0.0, drop_prob=0.0, duplicate_prob=0.0)

    def with_seed(self, seed: int) -> "ChaosPolicy":
        return replace(self, seed=seed)

    def decide(self, src: int, dst: int, tag: Tuple, seq: int) -> "_Decision":
        """Fault decisions for one message — deterministic in its identity."""
        key = (
            abs(int(self.seed)),
            src,
            dst,
            zlib.crc32(repr(tag).encode()),
            seq,
        )
        rng = default_rng(key)
        delay = float(rng.random() * self.max_delay) if rng.random() < self.delay_prob else 0.0
        dropped = bool(rng.random() < self.drop_prob)
        duplicated = bool(rng.random() < self.duplicate_prob)
        dup_delay = delay + float(rng.random() * max(self.max_delay, 1e-4))
        # new draws come strictly after the historical ones, so enabling
        # bit-flips never perturbs a seed's delay/drop/dup schedule.
        bitflip = bool(self.bitflip_prob > 0.0 and rng.random() < self.bitflip_prob)
        return _Decision(
            delay=delay,
            dropped=dropped,
            duplicated=duplicated,
            dup_delay=dup_delay,
            bitflip=bitflip,
        )

    def flip_rng(self, src: int, dst: int, tag: Tuple, seq: int, attempt: int) -> np.random.Generator:
        """RNG choosing *where* an SDC lands (and whether a retransmit is
        corrupted again) — pure in the frame identity plus attempt."""
        return default_rng(
            (abs(int(self.seed)), 0xB17F11B, src, dst,
             zlib.crc32(repr(tag).encode()), seq, attempt)
        )

    def flap_hold(self, src: int, dst: int, link_post: int) -> float:
        """Outage delay for the ``link_post``-th message (0-based) on the
        directed link ``src -> dst`` — pure in (seed, link, post index)."""
        for (s, d, first, n) in self.flaps:
            if s == src and d == dst and first <= link_post < first + n:
                return self.flap_delay
        if self.flap_prob > 0.0 and self.flap_len > 0:
            lo = max(0, link_post - self.flap_len + 1)
            for start in range(lo, link_post + 1):
                rng = default_rng(
                    (abs(int(self.seed)), 0xF1A9, src, dst, start)
                )
                if rng.random() < self.flap_prob:
                    return self.flap_delay
        return 0.0

    def stall_at(self, rank: int, post_index: int) -> float:
        """Seconds ``rank`` freezes at its ``post_index``-th post
        (1-based), 0 for no stall — pure in (seed, rank, post index)."""
        if self.stall_rank == rank and self.stall_at_post == post_index:
            return self.stall_duration
        if self.stall_prob > 0.0 and self.max_stall > 0.0:
            rng = default_rng(
                (abs(int(self.seed)), 0x57A11, rank, post_index)
            )
            if rng.random() < self.stall_prob:
                return float((rng.random() * 0.9 + 0.1) * self.max_stall)
        return 0.0


@dataclass(frozen=True)
class _Decision:
    delay: float
    dropped: bool
    duplicated: bool
    dup_delay: float
    bitflip: bool = False


@dataclass
class ChaosStats:
    """What the adversary actually did (queried after a run)."""

    posts: int = 0
    delayed: int = 0
    dropped: int = 0
    retransmits: int = 0
    duplicates: int = 0
    duplicates_discarded: int = 0
    crashes: int = 0
    delivered: int = 0
    #: physical bytes re-sent on top of the logical traffic (retries + dups).
    extra_wire_bytes: int = 0
    #: single-bit payload corruptions put on the wire (incl. re-corrupted
    #: retransmissions).
    bitflips: int = 0
    #: frames that failed CRC verification on delivery.
    corrupt_frames: int = 0
    #: NACKs sent back (one per corrupt frame that got a retransmission).
    nacks: int = 0
    #: messages held back by a directed-link flap window.
    flapped: int = 0
    #: injected transient rank stalls, and their summed duration.
    stalls: int = 0
    stall_time_s: float = 0.0
    #: NIC outages triggered (see ChaosPolicy.flap_rank).
    rank_flaps: int = 0
    #: posts attempted per sending rank (the crash / flap harnesses pick
    #: their injection point from a probe run's count).
    posts_by_rank: Dict[int, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, float]:
        """The scalar counters."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self) if f.name != "posts_by_rank"
        }

    def merge(self, other: "ChaosStats") -> "ChaosStats":
        """Fold another endpoint's tallies into this one (in place).
        Every decision is taken at exactly one endpoint — the sender's
        for crashes and stalls, the receiver's for the rest — so the
        per-process ledgers of the shm wire sum to what one shared
        thread fabric would have counted."""
        for name, value in other.as_dict().items():
            setattr(self, name, getattr(self, name) + value)
        for rank, n in other.posts_by_rank.items():
            self.posts_by_rank[rank] = self.posts_by_rank.get(rank, 0) + n
        return self


class ChaosLayer:
    """The seeded adversary as one layer of a :class:`Fabric`.

    The fabric calls three stages, all with its lock held, on either
    wire: :meth:`on_post` at the *sending* endpoint, before the message
    leaves (crash, stall, NIC-outage trigger — functions of the sender's
    own post count); :meth:`admit` at the *receiving* endpoint, for every
    message the wire hands over (sequence numbers, delay / drop /
    duplicate / bit-flip / flap decisions, the link clock — functions of
    the message identity and of per-link arrival order, which is post
    order on both wires); and :meth:`release` from every pump, which
    lands due copies in per-channel FIFO order after CRC verification,
    NACKing and retransmitting the corrupt ones.  On the thread wire
    both endpoints are this one object; on the shm wire each process
    has its own, and their :class:`ChaosStats` sum.
    """

    def __init__(self, fabric, policy: ChaosPolicy):
        self.fabric = fabric
        self.policy = policy
        self.stats = ChaosStats()
        # registry mirrors of the injection tallies (ChaosStats stays the
        # exact-count source of truth for the differential tests).
        self._m_injected = {
            fault: fabric.metrics.counter("chaos_injections_total", fault=fault)
            for fault in _flight.CHAOS_EVENT_OF
        }
        # heap of (arrival, tie, chan, seq, msg, is_retransmit)
        self._limbo: List[Tuple[float, int, Tuple, int, Message, bool]] = []
        self._tie = itertools.count()
        # per-directed-link "busy until" clock: a link is a serial
        # resource, so concurrent messages on the same (src, dst) queue
        # behind each other.  This is what makes *byte volume* (not just
        # message count) show up in wall clock — the effect the
        # hierarchical ring exploits by replacing full weight slots with
        # 24-byte references on the slow boundary links.
        self._link_busy: Dict[Tuple[int, int], float] = {}
        self._chan_seq: Dict[Tuple, int] = {}
        self._chan_next: Dict[Tuple, int] = {}
        self._chan_pending: Dict[Tuple, Dict[int, Message]] = {}
        # integrity/NACK state: pristine copies of corrupted frames, the
        # per-frame attempt count, in-flight retransmissions (dedupes the
        # NACK a corrupt duplicate would trigger), per-flow budget use,
        # and flows poisoned by budget exhaustion.
        self._pristine: Dict[Tuple[Tuple, int], Message] = {}
        self._frame_attempts: Dict[Tuple[Tuple, int], int] = {}
        self._retx_inflight: Set[Tuple[Tuple, int]] = set()
        self._flow_retx: Dict[Tuple, int] = {}
        self._corrupt_flows: Dict[Tuple, str] = {}
        # per-directed-link arrival counters (flap windows index into
        # these) and active NIC outages: rank -> "links down until".
        self._link_posts: Dict[Tuple[int, int], int] = {}
        self._nic_down_until: Dict[int, float] = {}

    def _inject(self, fault: str, msg: Message, b: Optional[int] = None) -> None:
        """Tally one injection in the registry and on the flight ring of
        the rank it is about (the sender)."""
        self._m_injected[fault].add(1)
        self.fabric.flight.rings[msg.src].record(
            _flight.CHAOS_EVENT_OF[fault], msg.src, msg.dst if b is None else b
        )

    # -- sending endpoint --------------------------------------------------------

    def on_post(self, msg: Message) -> float:
        """Count the post; raise the injected crash, or return how long
        the sender must freeze before the message leaves (0 = not)."""
        pol, stats = self.policy, self.stats
        n = stats.posts_by_rank.get(msg.src, 0) + 1
        stats.posts_by_rank[msg.src] = n
        if pol.crash_rank == msg.src and pol.crash_at_post == n:
            stats.crashes += 1
            self._inject("crash", msg, n)
            raise ChaosCrash(
                f"injected crash: rank {msg.src} killed at its "
                f"{n}th send (tag={msg.tag})"
            )
        stats.posts += 1
        # transient rank stall: the sender freezes (outside the lock) and
        # its message only leaves when it unfreezes.
        stall = pol.stall_at(msg.src, n)
        if stall > 0.0:
            stats.stalls += 1
            stats.stall_time_s += stall
            self._inject("stall", msg, n)
        # NIC outage trigger: from this post on, everything touching
        # the rank queues until the outage ends, and the rank's
        # heartbeats are suppressed (see nic_down).
        if pol.flap_rank == msg.src and pol.flap_rank_at_post == n:
            self._nic_down_until[msg.src] = (
                time.monotonic() + pol.flap_rank_duration
            )
            stats.rank_flaps += 1
            self._inject("rank-flap", msg, -1)
        return stall

    def nic_down(self, rank: int, now: float) -> bool:
        """A flapped NIC also cuts the rank's heartbeats — that silence
        is what the failure detector is *supposed* to see."""
        return now < self._nic_down_until.get(rank, 0.0)

    # -- receiving endpoint ------------------------------------------------------

    def admit(self, msg: Message) -> None:
        """Decide the message's fate and park its wire copies in limbo."""
        pol, stats = self.policy, self.stats
        chan = (msg.src, msg.dst, msg.tag)
        seq = self._chan_seq.get(chan, 0)
        self._chan_seq[chan] = seq + 1
        lp = self._link_posts.get((msg.src, msg.dst), 0)
        self._link_posts[(msg.src, msg.dst)] = lp + 1

        d = pol.decide(msg.src, msg.dst, msg.tag, seq)
        # Topology serialization is deterministic in (src, dst,
        # nbytes) and additive with the seeded jitter: the chaos
        # decision itself never looks at message size, so two runs
        # that differ only in payload bytes face the *same* adversary
        # on a faster or slower wire — exactly what the
        # hierarchical-vs-flat differential needs.  The link clock
        # below adds queueing on top: messages sharing a directed
        # link transmit one after another (retransmissions pay only
        # the extra retry latency, not a second occupancy slot).
        arrival = self._occupy(msg) + d.delay
        if d.delay > 0.0:
            stats.delayed += 1
            self._inject("delay", msg)
        if d.dropped:
            stats.dropped += 1
            stats.retransmits += 1
            stats.extra_wire_bytes += msg.nbytes
            self.fabric._m_heal["fabric_retransmits"].add(1)
            self._inject("drop", msg)
            arrival += pol.retry_delay
        hold = pol.flap_hold(msg.src, msg.dst, lp)
        if hold > 0.0:
            stats.flapped += 1
            self._inject("flap", msg)
            arrival += hold
        # messages to or from a flapped rank queue until its NIC is up.
        arrival = max(arrival, self._nic_down_until.get(msg.src, 0.0),
                      self._nic_down_until.get(msg.dst, 0.0))
        wire = msg
        if d.bitflip:
            bad = self._corrupt(msg, pol.flip_rng(*chan, seq, 0))
            if bad is not None:
                wire = bad
                self._pristine[(chan, seq)] = msg
                self._inject("bitflip", msg)
        heapq.heappush(
            self._limbo, (arrival, next(self._tie), chan, seq, wire, False)
        )
        if d.duplicated:
            stats.duplicates += 1
            stats.extra_wire_bytes += msg.nbytes
            self._inject("duplicate", msg)
            heapq.heappush(
                self._limbo,
                (self._occupy(msg) + d.dup_delay,
                 next(self._tie), chan, seq, wire, False),
            )

    def _corrupt(self, msg: Message, rng) -> Optional[Message]:
        """A wire copy of ``msg`` with one flipped bit, stamped with the
        pristine digest (``None`` when there is no array data to flip).
        The sender's payload — often its own live weights — is never
        touched.  A message from a wire that verifies its own frames
        arrives unstamped; its structural digest is taken here, only
        for the frames that get corrupted."""
        bad = corrupt_copy(msg.payload, rng)
        if bad is None:
            return None
        if msg.crc is None and self.fabric.integrity:
            msg.crc = payload_crc32(msg.payload)
        self.stats.bitflips += 1
        return Message(msg.src, msg.dst, msg.tag, bad, msg.nbytes, crc=msg.crc)

    def _occupy(self, msg: Message) -> float:
        """Reserve the message's directed link; return transmit-done time.

        A link is serial: transmission starts at ``max(now, link busy
        until)`` and holds the link for ``fabric.link_delay`` seconds.
        Without a topology there is no serialization and this is simply
        ``now``."""
        now = time.monotonic()
        wire = self.fabric.link_delay(msg.src, msg.dst, msg.nbytes)
        if wire <= 0.0:
            return now
        key = (msg.src, msg.dst)
        done = max(now, self._link_busy.get(key, 0.0)) + wire
        self._link_busy[key] = done
        return done

    def next_event(self) -> Optional[float]:
        """Monotonic time the earliest limbo copy lands, or ``None``."""
        return self._limbo[0][0] if self._limbo else None

    def release(self, now: float) -> None:
        """Move every due limbo message into the mailbox.

        Per-channel sequence numbers gate delivery: a copy whose seq was
        already delivered is a duplicate and is discarded; a copy due
        before its channel predecessor waits in a pending buffer so FIFO
        per (src, dst, tag) survives arbitrary delays.  Every landing
        frame is CRC-verified first: a corrupt frame never reaches a
        mailbox — it is NACKed and retransmitted (with capped exponential
        backoff) until it lands clean or the flow's budget is exhausted.
        """
        delivered = 0
        while self._limbo and self._limbo[0][0] <= now:
            _, _, chan, seq, msg, is_retx = heapq.heappop(self._limbo)
            if is_retx:
                self._retx_inflight.discard((chan, seq))
            nxt = self._chan_next.get(chan, 0)
            pending = self._chan_pending.setdefault(chan, {})
            if seq < nxt or seq in pending:
                self.stats.duplicates_discarded += 1
                continue
            if msg.crc is not None and payload_crc32(msg.payload) != msg.crc:
                self._nack(chan, seq, msg, now)
                continue
            key = (chan, seq)
            if key in self._pristine:  # recovered: drop the NACK state
                del self._pristine[key]
                self._frame_attempts.pop(key, None)
            pending[seq] = msg
            while nxt in pending:
                self.fabric._deliver_locked(pending.pop(nxt))
                nxt += 1
                delivered += 1
            self._chan_next[chan] = nxt
        if delivered:
            self.stats.delivered += delivered
            self.fabric._cond.notify_all()

    def _nack(self, chan: Tuple, seq: int, msg: Message, now: float) -> None:
        """A frame failed CRC on delivery: NACK it and schedule the
        retransmission.

        The retransmission resends the pristine copy kept at admission,
        but rides the same lossy wire — it may be corrupted again, decided by
        the same pure RNG keyed on the frame identity and attempt number.
        Each flow has a cumulative retransmit budget; exhausting it
        poisons the flow and the blocked receiver raises
        :class:`CorruptFrameError` (a permanent failure, handed to the
        elastic shrink path by the worker driver).
        """
        pol, stats, fab = self.policy, self.stats, self.fabric
        stats.corrupt_frames += 1
        fab._m_heal["fabric_corrupt_frames"].add(1)
        fab.flight.rings[chan[1]].record(_flight.EV_CORRUPT_FRAME, chan[0], seq)
        key = (chan, seq)
        if key in self._retx_inflight:
            # a corrupt *duplicate* of a frame already being recovered:
            # the outstanding retransmission covers it.
            return
        used = self._flow_retx.get(chan, 0)
        if used >= pol.retransmit_budget:
            self._corrupt_flows[chan] = (
                f"frame seq={seq} keeps failing CRC and the flow's "
                f"retransmit budget ({pol.retransmit_budget}) is exhausted"
            )
            fab._cond.notify_all()
            return
        self._flow_retx[chan] = used + 1
        attempt = self._frame_attempts.get(key, 0) + 1
        self._frame_attempts[key] = attempt
        stats.nacks += 1
        stats.retransmits += 1
        stats.extra_wire_bytes += msg.nbytes
        fab._m_heal["fabric_retransmits"].add(1)
        fab.flight.rings[chan[1]].record(_flight.EV_NACK, chan[0], attempt)
        fab.flight.rings[chan[0]].record(_flight.EV_RETRANSMIT, chan[1], attempt)
        backoff = min(pol.retry_delay * (2 ** (attempt - 1)), pol.max_backoff)
        resend = self._pristine.get(key, msg)
        if pol.bitflip_prob > 0.0:
            rng = pol.flip_rng(*chan, seq, attempt)
            if rng.random() < pol.bitflip_prob:
                bad = self._corrupt(resend, rng)
                if bad is not None:
                    resend = bad
                    self._m_injected["bitflip"].add(1)
        self._retx_inflight.add(key)
        heapq.heappush(
            self._limbo,
            (now + backoff, next(self._tie), chan, seq, resend, True),
        )

    def check_flow(self, dst: int, src: int, tag: Tuple) -> None:
        """Raise if the ``src -> dst, tag`` flow exhausted its budget."""
        reason = self._corrupt_flows.get((src, dst, tag))
        if reason is not None:
            raise CorruptFrameError(
                f"rank {dst} receiving from rank {src} tag={tag}: {reason}"
            )
