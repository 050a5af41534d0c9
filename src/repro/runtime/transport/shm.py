"""Shared-memory wire primitives for the process transport.

Three small pieces, deliberately free of any repro-specific policy so
they can be unit-tested in isolation:

* :class:`ShmRing` — a single-producer/single-consumer circular *byte
  stream* over a shared-memory slice.  Positions are monotonically
  increasing u64 counters (``wpos``/``rpos``); the producer publishes
  ``wpos`` only after the payload bytes are copied in (and the consumer
  ``rpos`` only after they are copied out), so a reader never observes
  bytes that are not fully written — the seqlock-style ordering the
  frame headers rely on.  Frames may exceed the ring capacity: both
  ends stream partial chunks.

* the **frame codec** (:func:`encode_frame` / :class:`FrameDecoder`) —
  one fabric message per frame, checked in three stages so that no
  byte is trusted before its digest: the header carries a CRC32 of
  itself (verified before any length is used to allocate), a CRC32 of
  ``meta + blob`` (verified before ``pickle.loads`` sees them) and a
  CRC32 over every frame byte after the header, accumulated by the
  decoder as the out-of-band payload streams in — the PR-7 integrity
  frame, but priced at ``zlib.crc32`` memory bandwidth on the
  serialized bytes instead of a per-leaf structural walk, and covering
  exactly what the wire carried.  A frame that fails any of the three
  is a :class:`~repro.runtime.integrity.CorruptFrameError` raised by
  the decoder — never a hang on a garbled length, never whatever
  ``pickle`` makes of garbage.  Payloads are pickled with protocol 5: array bodies
  travel *out of band*.  A body resident in a :class:`ShmArena` region
  crosses as a ``(region, offset, nbytes, fmt)`` descriptor — zero
  bytes moved, the receiver wraps the same shared pages — while private
  bodies are appended raw after the blob and land in private
  ``np.empty`` arrays the receiver owns, so copied traffic never touches
  the receiving rank's pool or arena.  The same split
  (:func:`split_payload`) carries worker results back to the launcher,
  which rebuilds their arena-resident bodies as views of the segment it
  mapped — the final model is never copied.

* :class:`ShmArena` — per-rank bump regions of the same segment that
  back the :class:`BufferPool` miss allocator in each worker, making
  every pooled buffer addressable by every rank and therefore
  descriptor-shippable.  This is what makes the weight ring *zero-copy
  across processes*: after the first circulation warms the pools, a
  slot hop moves a ~hundred-byte frame regardless of model size.

* :class:`ControlBlock` — the shared fail-stop state: one abort flag +
  reason + originating rank (the first abort's) and a per-rank
  failed/reason/step record, written before the flag that publishes
  them.  Every fabric operation on every rank reads one small
  contiguous *disturb token* (abort byte + fail flags) and compares it
  against its cached copy, so the hot path costs one slice read, not a
  parse.

Frame layout (little-endian)::

    u32 seq          per-link frame counter (gap = stream corruption)
    u32 flags        bit 0: body_crc and crc present
    u32 meta_len     pickled (tag, logical_nbytes, buffer_specs)
    u32 blob_len     pickle-5 payload blob (out-of-band buffers elided)
    u32 payload_len  total out-of-band bytes following the blob
    u32 body_crc     CRC32 of meta + blob
    u32 crc          CRC32 of all frame bytes after the header
                     (body_crc continued over the payload)
    u32 header_crc   CRC32 of the seven words above (always present)
"""

from __future__ import annotations

import pickle
import struct
import threading
import warnings
import zlib
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..integrity import CorruptFrameError

__all__ = [
    "ControlBlock",
    "Frame",
    "FrameDecoder",
    "ShmArena",
    "ShmRing",
    "arena_offset",
    "encode_frame",
    "ring_segment_size",
    "ring_offset",
    "split_payload",
]

_FIELDS = struct.Struct("<IIIIIII")  # every header word but header_crc
_U32 = struct.Struct("<I")
_HEADER_BYTES = _FIELDS.size + _U32.size
FLAG_CRC = 1

_U64 = struct.Struct("<Q")


class ShmRing:
    """SPSC circular byte stream over a shared-memory slice.

    The slice starts with a 64-byte header (``wpos`` at offset 0,
    ``rpos`` at offset 8, the rest padding to keep the two counters on
    separate cache lines from the data) followed by ``capacity`` data
    bytes.  Exactly one process writes and one reads.
    """

    HEADER = 64

    def __init__(self, buf: memoryview, capacity: int, create: bool = False):
        if len(buf) < self.HEADER + capacity:
            raise ValueError("ring slice smaller than header + capacity")
        self._buf = buf
        self._cap = capacity
        self._data = buf[self.HEADER : self.HEADER + capacity]
        if create:
            buf[0:16] = b"\x00" * 16

    @property
    def capacity(self) -> int:
        return self._cap

    def _wpos(self) -> int:
        return _U64.unpack_from(self._buf, 0)[0]

    def _rpos(self) -> int:
        return _U64.unpack_from(self._buf, 8)[0]

    def readable(self) -> int:
        """Bytes the consumer could read right now."""
        return self._wpos() - self._rpos()

    def writable(self) -> int:
        """Bytes the producer could write right now."""
        return self._cap - (self._wpos() - self._rpos())

    def write_some(self, mv: memoryview) -> int:
        """Copy as much of ``mv`` as fits; returns bytes written.

        Producer side only.  The position is published *after* the data
        copy, so a concurrent reader never sees unwritten bytes.
        """
        w = self._wpos()
        n = min(len(mv), self._cap - (w - self._rpos()))
        if n <= 0:
            return 0
        off = w % self._cap
        first = min(n, self._cap - off)
        self._data[off : off + first] = mv[:first]
        if n > first:
            self._data[0 : n - first] = mv[first:n]
        _U64.pack_into(self._buf, 0, w + n)
        return n

    def read_into(self, mv: memoryview) -> int:
        """Fill as much of ``mv`` as available; returns bytes read.

        Consumer side only; publishes ``rpos`` after the copy so the
        producer cannot overwrite bytes still being read.
        """
        r = self._rpos()
        n = min(len(mv), self._wpos() - r)
        if n <= 0:
            return 0
        off = r % self._cap
        first = min(n, self._cap - off)
        mv[:first] = self._data[off : off + first]
        if n > first:
            mv[first:n] = self._data[0 : n - first]
        _U64.pack_into(self._buf, 8, r + n)
        return n


def ring_segment_size(world: int, control_bytes: int, link_bytes: int) -> int:
    """Total shared-segment size for a full mesh of directed links."""
    links = world * (world - 1)
    return control_bytes + links * (ShmRing.HEADER + link_bytes)


def ring_offset(
    src: int, dst: int, world: int, control_bytes: int, link_bytes: int
) -> int:
    """Byte offset of the ``src -> dst`` ring inside the segment."""
    if src == dst:
        raise ValueError("no ring for a self link")
    idx = src * (world - 1) + (dst if dst < src else dst - 1)
    return control_bytes + idx * (ShmRing.HEADER + link_bytes)


def arena_offset(
    rank: int, world: int, control_bytes: int, link_bytes: int, arena_bytes: int
) -> int:
    """Byte offset of ``rank``'s arena region (regions follow the rings)."""
    return (
        ring_segment_size(world, control_bytes, link_bytes)
        + rank * arena_bytes
    )


class ShmArena:
    """Per-rank bump allocator over the segment's shared arena regions.

    Each rank *allocates* only from its own region, but can *address*
    every rank's region: a pooled buffer that wandered here from a peer
    (delivered by descriptor, released into the local pool, re-acquired)
    is still shared memory, so forwarding it again costs one descriptor.
    ``alloc`` never recycles — the :class:`~repro.nn.params.BufferPool`
    free-list is the recycler, so a region's high-water mark is the peak
    number of live buffers, not cumulative traffic.  Exhaustion returns
    ``None`` (with one ``RuntimeWarning`` per arena, at the first time)
    and the caller falls back to private memory, which travels by copy.

    Every allocation reserves a power-of-two *span* (``span_nbytes``)
    even though the returned array is exact-sized.  Ring slots wander
    between ranks' pools with slightly different sizes per chunk, so the
    process-side pool recycles arena buffers by span class rather than
    exact size; rounding at the source guarantees any buffer of a class
    can satisfy any request of that class without overrunning into the
    next allocation.
    """

    ALIGN = 64

    @staticmethod
    def span_nbytes(nbytes: int) -> int:
        """The power-of-two span class covering ``nbytes``."""
        if nbytes <= ShmArena.ALIGN:
            return ShmArena.ALIGN
        return 1 << (nbytes - 1).bit_length()

    def __init__(self, regions: List[memoryview], own: int):
        self._regions = regions
        self._own = own
        self._off = 0
        self._overflowed = False
        self._lock = threading.Lock()
        spans: List[Tuple[int, int, int]] = []
        for idx, region in enumerate(regions):
            if len(region) == 0:
                continue
            base = np.frombuffer(region, dtype=np.uint8).__array_interface__[
                "data"
            ][0]
            spans.append((base, base + len(region), idx))
        self._spans = sorted(spans)

    @property
    def capacity(self) -> int:
        return len(self._regions[self._own])

    @property
    def used(self) -> int:
        return self._off

    def alloc(self, numel: int, dtype) -> Optional[np.ndarray]:
        """A flat shared-memory buffer from this rank's region, or
        ``None`` when the region is exhausted."""
        dt = np.dtype(dtype)
        nbytes = int(numel) * dt.itemsize
        if nbytes == 0:
            return np.empty(0, dtype=dt)
        span = self.span_nbytes(nbytes)
        region = self._regions[self._own]
        with self._lock:
            start = (self._off + self.ALIGN - 1) & ~(self.ALIGN - 1)
            if start + span > len(region):
                if not self._overflowed:
                    self._overflowed = True
                    warnings.warn(
                        f"rank {self._own}: shared arena exhausted "
                        f"({self._off} of {len(region)} bytes used, "
                        f"{span}-byte span requested); this and later "
                        f"buffers fall back to private memory and cross "
                        f"the wire by copy",
                        RuntimeWarning, stacklevel=2,
                    )
                return None
            self._off = start + span
        return np.frombuffer(region[start : start + nbytes], dtype=dt)

    def locate(self, raw: memoryview) -> Optional[Tuple[int, int]]:
        """``(region, offset)`` when ``raw`` lies wholly inside a shared
        arena region (any rank's), else ``None``."""
        if raw.nbytes == 0:
            return None
        addr = np.frombuffer(raw, dtype=np.uint8).__array_interface__["data"][0]
        for lo, hi, idx in self._spans:
            if lo <= addr and addr + raw.nbytes <= hi:
                return idx, addr - lo
        return None

    def view(self, region: int, offset: int, nbytes: int, dtype) -> np.ndarray:
        """Wrap ``nbytes`` at ``(region, offset)`` as a flat array —
        the receive side of a descriptor, zero bytes moved."""
        dt = np.dtype(dtype)
        if offset < 0 or offset + nbytes > len(self._regions[region]):
            raise ValueError(
                f"arena descriptor out of range: region {region} "
                f"offset {offset} nbytes {nbytes}"
            )
        return np.frombuffer(
            self._regions[region][offset : offset + nbytes], dtype=dt
        )


# -- frame codec -------------------------------------------------------------


class Frame:
    """One decoded wire frame (payload already rebuilt).

    ``crc`` is the header's declared digest (``None`` when the sender
    framed without one); ``crc_actual`` is the digest the decoder
    accumulated over the bytes that actually streamed in.
    """

    __slots__ = ("seq", "crc", "crc_actual", "tag", "nbytes", "payload")

    def __init__(self, seq: int, crc: Optional[int], crc_actual: Optional[int],
                 tag: Tuple, nbytes: int, payload: Any):
        self.seq = seq
        self.crc = crc
        self.crc_actual = crc_actual
        self.tag = tag
        self.nbytes = nbytes
        self.payload = payload


def split_payload(
    payload: Any, arena: Optional[ShmArena], private_out_of_band: bool = True
) -> Tuple[bytes, List[Tuple], List[memoryview]]:
    """Pickle-5 ``payload`` into ``(blob, specs, raws)``.

    Contiguous array bodies are elided from the blob.  A body that lives
    inside a shared arena region becomes a 4-tuple *descriptor* spec
    ``(region, offset, nbytes, fmt)`` — zero bytes moved, whoever maps
    the segment re-wraps the same memory (a receiving rank, or the
    launcher rebuilding a result as a view of the segment).  A private
    body becomes a 2-tuple copy spec ``(nbytes, fmt)`` with its bytes in
    ``raws`` (the wire appends them after the blob), or stays inside the
    blob when ``private_out_of_band`` is off (the result pipe, which has
    no out-of-band lane of its own).
    """
    specs: List[Tuple] = []
    raws: List[memoryview] = []

    def on_buffer(pb: pickle.PickleBuffer):
        raw = pb.raw()
        fmt = memoryview(pb).format or "B"
        loc = arena.locate(raw) if arena is not None else None
        if loc is not None:
            specs.append((loc[0], loc[1], raw.nbytes, fmt))
        elif private_out_of_band:
            specs.append((raw.nbytes, fmt))
            raws.append(raw)
        return loc is None and not private_out_of_band  # true: keep in band

    blob = pickle.dumps(payload, protocol=5, buffer_callback=on_buffer)
    return blob, specs, raws


def _map_descriptor(arena: ShmArena, spec: Tuple) -> np.ndarray:
    region, offset, nbytes, fmt = spec
    return arena.view(region, offset, nbytes, _dtype_for(fmt, nbytes))


def encode_frame(
    payload: Any,
    tag: Tuple,
    nbytes: int,
    seq: int,
    integrity: bool = True,
    arena: Optional[ShmArena] = None,
) -> List[memoryview]:
    """Serialize one message into an ordered list of byte chunks.

    The payload is split by :func:`split_payload`: arena-resident bodies
    cross as descriptors, anything else is appended raw after the blob,
    so a private buffer still crosses as exactly one memcpy into the
    ring.  With ``integrity`` the header carries a CRC32 over every
    chunk after the header itself — for descriptor payloads that is the
    descriptor, not the mapped bytes, mirroring the thread wire's
    by-reference handoff.  The header's own digest is always present.
    """
    blob, specs, raws = split_payload(payload, arena)
    meta = pickle.dumps((tag, nbytes, specs), protocol=4)
    payload_len = sum(r.nbytes for r in raws)
    body_crc = crc = flags = 0
    if integrity:
        body_crc = crc = zlib.crc32(blob, zlib.crc32(meta))
        for r in raws:
            crc = zlib.crc32(r, crc)
        flags = FLAG_CRC
    fields = _FIELDS.pack(
        seq, flags, len(meta), len(blob), payload_len, body_crc, crc
    )
    header = fields + _U32.pack(zlib.crc32(fields))
    return [memoryview(header), memoryview(meta), memoryview(blob)] + raws


def _dtype_for(fmt: str, nbytes: int) -> np.dtype:
    """Landing dtype for an out-of-band buffer; opaque formats fall back
    to bytes."""
    try:
        dt = np.dtype(fmt)
    except TypeError:
        return np.dtype("u1")
    if dt.itemsize == 0 or nbytes % dt.itemsize:
        return np.dtype("u1")
    return dt


class FrameDecoder:
    """Incremental frame reader for one inbound link.

    Drives a :class:`ShmRing` through the header -> meta/blob -> payload
    stages, keeping partial state between ``poll`` calls so a frame
    larger than the ring (or arriving in pieces) is reassembled without
    ever blocking the pump.  ``acquire(numel, dtype)`` supplies payload
    destinations (private ``np.empty`` arrays unless given), and the
    wire bytes land straight in them.  Each stage
    ends with its digest check (see the module docstring); a mismatch
    raises :class:`CorruptFrameError` and the stream is dead — there is
    no resynchronising a byte stream whose lengths cannot be trusted.
    """

    def __init__(
        self,
        ring: ShmRing,
        acquire: Callable[[int, np.dtype], np.ndarray] = np.empty,
        arena: Optional[ShmArena] = None,
    ):
        self._ring = ring
        self._acquire = acquire
        self._arena = arena
        self._hdr = memoryview(bytearray(_HEADER_BYTES))
        self._reset()

    def _reset(self) -> None:
        self._stage = 0  # 0 = header, 1 = meta+blob, 2 = payload
        self._have = 0
        self._seq = 0
        self._body_crc = 0
        self._crc: Optional[int] = None
        self._acc = 0  # running CRC32 over post-header bytes
        self._meta_len = 0
        self._payload_len = 0
        self._body: Optional[memoryview] = None
        self._tag: Tuple = ()
        self._nbytes = 0
        self._dests: List[np.ndarray] = []
        self._dest_views: List[memoryview] = []
        self._di = 0

    def poll(self) -> Optional[Frame]:
        """Advance the stream; returns one :class:`Frame` when a whole
        frame has landed, else ``None`` (partial state is kept)."""
        while True:
            if self._stage == 0:
                self._have += self._ring.read_into(self._hdr[self._have :])
                if self._have < len(self._hdr):
                    return None
                fields = self._hdr[: _FIELDS.size]
                if zlib.crc32(fields) != _U32.unpack_from(self._hdr, _FIELDS.size)[0]:
                    raise CorruptFrameError("frame header fails its own CRC")
                (self._seq, flags, self._meta_len, blob_len, self._payload_len,
                 self._body_crc, crc) = _FIELDS.unpack(fields)
                self._crc = crc if flags & FLAG_CRC else None
                self._body = memoryview(bytearray(self._meta_len + blob_len))
                self._have = 0
                self._stage = 1
            if self._stage == 1:
                body = self._body
                if self._have < len(body):
                    self._have += self._ring.read_into(body[self._have :])
                    if self._have < len(body):
                        return None
                if self._crc is not None:
                    self._acc = zlib.crc32(body)
                    if self._acc != self._body_crc:
                        raise CorruptFrameError(
                            f"frame seq {self._seq}: meta/blob CRC mismatch"
                        )
                self._tag, self._nbytes, specs = pickle.loads(
                    body[: self._meta_len]
                )
                copied = 0
                for spec in specs:
                    if len(spec) == 4:  # arena descriptor: re-map, no read
                        if self._arena is None:
                            raise RuntimeError(
                                "arena descriptor received on a link "
                                "decoded without an arena"
                            )
                        self._dests.append(_map_descriptor(self._arena, spec))
                        continue
                    buf_nbytes, fmt = spec
                    copied += buf_nbytes
                    dt = _dtype_for(fmt, buf_nbytes)
                    arr = self._acquire(buf_nbytes // dt.itemsize, dt)
                    self._dests.append(arr)
                    self._dest_views.append(memoryview(arr).cast("B"))
                if copied != self._payload_len:
                    raise CorruptFrameError(
                        f"frame seq {self._seq}: header announces "
                        f"{self._payload_len} payload bytes, meta {copied}"
                    )
                self._have = 0
                self._di = 0
                self._stage = 2
            # payload stage: fill each destination buffer in wire order,
            # folding landed bytes into the running digest as they arrive.
            while self._di < len(self._dest_views):
                view = self._dest_views[self._di]
                got = self._ring.read_into(view[self._have :])
                if got and self._crc is not None:
                    self._acc = zlib.crc32(
                        view[self._have : self._have + got], self._acc
                    )
                self._have += got
                if self._have < len(view):
                    return None
                self._have = 0
                self._di += 1
            if self._crc is not None and self._acc != self._crc:
                raise CorruptFrameError(
                    f"frame seq {self._seq} tag={self._tag}: payload CRC "
                    f"mismatch"
                )
            payload = pickle.loads(
                self._body[self._meta_len :],
                buffers=[memoryview(a) for a in self._dests],
            )
            frame = Frame(
                self._seq, self._crc,
                self._acc if self._crc is not None else None,
                self._tag, self._nbytes, payload,
            )
            self._reset()
            return frame


# -- shared fail-stop control state ------------------------------------------

_MAGIC = 0x57E1FE08  # "WeiPipe", PR 8
_ABORT_REASON_MAX = 252
_RANK_REASON_MAX = 144
_RANK_STRIDE = 176


class ControlBlock:
    """Abort/fail-stop state shared by every rank and the launcher.

    Writers fill the reason/step fields *before* setting the one-byte
    flag that publishes them, so a reader that sees the flag always
    sees a complete record.  ``disturb_token()`` returns the abort byte
    plus all fail flags as one small bytes object — the per-operation
    hot-path check is a slice copy and an equality compare.

    The tail of the block is the **clock-alignment handshake** region:
    one parent slot (the launcher's ``perf_counter`` epoch, published
    before fork) and one slot per rank (the child's own clock sample,
    taken right after reading the epoch).  Each slot is an 8-byte float
    plus a publish flag, same write-then-flag discipline as the fail
    records; :mod:`repro.obs.merge` turns the three readings into a
    per-rank clock offset with a recorded skew bound.
    """

    @staticmethod
    def size(world: int) -> int:
        reason_off = (16 + world + 7) & ~7
        ranks_end = reason_off + 4 + _ABORT_REASON_MAX + world * _RANK_STRIDE
        return ranks_end + 16 * (world + 1)

    def __init__(self, buf: memoryview, world: int, create: bool = False):
        need = self.size(world)
        if len(buf) < need:
            raise ValueError("control slice too small")
        self._mv = buf[:need]
        self.world = world
        self._flags_off = 16
        self._reason_off = (16 + world + 7) & ~7
        self._ranks_off = self._reason_off + 4 + _ABORT_REASON_MAX
        self._clock_off = self._ranks_off + world * _RANK_STRIDE
        if create:
            self._mv[:] = b"\x00" * need
            struct.pack_into("<II", self._mv, 0, _MAGIC, world)
        else:
            magic, w = struct.unpack_from("<II", self._mv, 0)
            if magic != _MAGIC or w != world:
                raise ValueError("control block header mismatch")

    # -- abort ---------------------------------------------------------------

    def abort(self, reason: str, rank: Optional[int] = None) -> None:
        """Publish an abort and the rank whose failure caused it (``None``:
        no rank, e.g. a join timeout).  The first abort's record wins: the
        ranks it poisons abort in turn, and must not overwrite the cause."""
        if self._mv[8]:
            return
        raw = reason.encode("utf-8", "replace")[:_ABORT_REASON_MAX]
        struct.pack_into("<hH", self._mv, self._reason_off,
                         -1 if rank is None else rank, len(raw))
        self._mv[self._reason_off + 4 : self._reason_off + 4 + len(raw)] = raw
        self._mv[8] = 1

    def aborted(self) -> Optional[str]:
        if not self._mv[8]:
            return None
        (n,) = struct.unpack_from("<H", self._mv, self._reason_off + 2)
        return bytes(
            self._mv[self._reason_off + 4 : self._reason_off + 4 + n]
        ).decode("utf-8", "replace")

    def abort_rank(self) -> Optional[int]:
        """The rank the published abort names, if any."""
        if not self._mv[8]:
            return None
        (rank,) = struct.unpack_from("<h", self._mv, self._reason_off)
        return None if rank < 0 else rank

    # -- fail-stop records ---------------------------------------------------

    def _rank_off(self, rank: int) -> int:
        return self._ranks_off + rank * _RANK_STRIDE

    def fail(self, rank: int, reason: str, step: Optional[int]) -> None:
        off = self._rank_off(rank)
        raw = reason.encode("utf-8", "replace")[:_RANK_REASON_MAX]
        struct.pack_into(
            "<qBBH", self._mv, off,
            step if step is not None else 0,
            1 if step is not None else 0,
            0,
            len(raw),
        )
        self._mv[off + 32 : off + 32 + len(raw)] = raw
        self._mv[self._flags_off + rank] = 1  # publish last

    def is_failed(self, rank: int) -> bool:
        return bool(self._mv[self._flags_off + rank])

    def failed(self) -> Dict[int, Tuple[str, Optional[int]]]:
        out: Dict[int, Tuple[str, Optional[int]]] = {}
        for r in range(self.world):
            if not self._mv[self._flags_off + r]:
                continue
            off = self._rank_off(r)
            step, has_step, _res, n = struct.unpack_from("<qBBH", self._mv, off)
            reason = bytes(self._mv[off + 32 : off + 32 + n]).decode(
                "utf-8", "replace"
            )
            out[r] = (reason, step if has_step else None)
        return out

    def fail_count(self) -> int:
        return sum(
            1 for r in range(self.world) if self._mv[self._flags_off + r]
        )

    def disturb_token(self) -> bytes:
        """Abort byte + fail flags, for the cached hot-path compare."""
        return bytes(self._mv[8 : self._flags_off + self.world])

    # -- progress ------------------------------------------------------------

    def set_progress(self, rank: int, step: int) -> None:
        off = self._rank_off(rank)
        struct.pack_into("<q", self._mv, off + 16, step)
        self._mv[off + 24] = 1

    def progress(self, rank: int) -> Optional[int]:
        off = self._rank_off(rank)
        if not self._mv[off + 24]:
            return None
        return struct.unpack_from("<q", self._mv, off + 16)[0]

    # -- clock-alignment handshake --------------------------------------------

    def publish_epoch(self, epoch: float) -> None:
        """Launcher side: publish the parent ``perf_counter`` epoch."""
        struct.pack_into("<d", self._mv, self._clock_off, epoch)
        self._mv[self._clock_off + 8] = 1

    def epoch(self) -> Optional[float]:
        if not self._mv[self._clock_off + 8]:
            return None
        return struct.unpack_from("<d", self._mv, self._clock_off)[0]

    def set_clock(self, rank: int, sample: float) -> None:
        """Child side: publish this rank's own clock sample."""
        off = self._clock_off + 16 * (rank + 1)
        struct.pack_into("<d", self._mv, off, sample)
        self._mv[off + 8] = 1

    def clock(self, rank: int) -> Optional[float]:
        off = self._clock_off + 16 * (rank + 1)
        if not self._mv[off + 8]:
            return None
        return struct.unpack_from("<d", self._mv, off)[0]
