"""Named-parameter containers with flat pack/unpack.

WeiPipe ships whole layers of weights (and weight gradients) around the
ring as single contiguous buffers, and FSDP shards flat buffers across
workers.  :class:`ParamStruct` is the common currency: an ordered mapping
``name -> ndarray`` that can be packed to / unpacked from one flat
vector with a stable layout, so every strategy exchanges exactly the
bytes a real implementation would.

Arena backing (DESIGN.md §10): a struct may additionally own one flat
contiguous buffer — the *arena* — with every named array a view into
it.  The arena **is** the packed wire representation, so ``pack()`` /
``unpack_from()`` degrade from O(numel) concatenations to O(1) view
handoffs, and a :class:`BufferPool` recycles arenas across ring turns so
the steady-state hot path allocates nothing.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

__all__ = ["ParamStruct", "BufferPool"]


class BufferPool:
    """Thread-safe free-list of flat buffers, keyed by ``(numel, dtype)``.

    ``acquire`` hands out a recycled 1-D buffer when one of the exact
    size/dtype is free, else allocates (a *miss* — ``allocations`` counts
    these).  ``release`` returns a buffer to the free list.

    Ownership contract: a buffer handed to ``release`` must have no live
    readers or writers — in the weight ring that is guaranteed by the
    turn protocol (a slot's D message only arrives after its sender
    finished computing with the slots it forwarded, see DESIGN.md §10),
    not by the pool itself.  The pool never zeroes recycled memory;
    callers that need zeros must clear explicitly.
    """

    __slots__ = (
        "_lock", "_free", "hits", "misses", "releases", "bytes_allocated",
        "arena_overflow_allocs", "arena_overflow_bytes", "backend", "allocator",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._free: Dict[Tuple[int, np.dtype], List[np.ndarray]] = {}
        self.hits = 0
        self.misses = 0
        self.releases = 0
        self.bytes_allocated = 0
        #: misses the ``allocator`` declined (arena exhausted): those
        #: buffers are private memory and cross the process wire by copy.
        self.arena_overflow_allocs = 0
        self.arena_overflow_bytes = 0
        #: which transport this pool serves ("thread" in-process; the shm
        #: fabric stamps "process") — carried into ``as_dict`` so bench
        #: artefacts attribute pool behaviour to a backend.
        self.backend = "thread"
        #: optional miss allocator ``(numel, dtype) -> ndarray | None``.
        #: The process transport points this at its shared-memory arena so
        #: every pooled buffer is arena-resident and ships between ranks
        #: as an (owner, offset) descriptor instead of a byte copy; a
        #: ``None`` return (arena exhausted) falls back to private memory.
        self.allocator = None

    @property
    def allocations(self) -> int:
        """Fresh buffers created so far (== cache misses)."""
        return self.misses

    def acquire(self, numel: int, dtype) -> np.ndarray:
        key = (int(numel), np.dtype(dtype))
        with self._lock:
            stack = self._free.get(key)
            if stack:
                self.hits += 1
                return stack.pop()
            self.misses += 1
            self.bytes_allocated += key[0] * key[1].itemsize
        alloc = self.allocator
        if alloc is not None:
            buf = alloc(key[0], key[1])
            if buf is not None:
                return buf
            with self._lock:
                self.arena_overflow_allocs += 1
                self.arena_overflow_bytes += key[0] * key[1].itemsize
        return np.empty(key[0], dtype=key[1])

    def release(self, buf: np.ndarray) -> None:
        flat = buf.reshape(-1)
        with self._lock:
            self._free.setdefault((int(flat.size), flat.dtype), []).append(flat)
            self.releases += 1

    def as_dict(self) -> Dict[str, int]:
        with self._lock:
            free = sum(len(v) for v in self._free.values())
        return {
            "backend": self.backend,
            "hits": self.hits,
            "misses": self.misses,
            "allocations": self.misses,
            "releases": self.releases,
            "bytes_allocated": self.bytes_allocated,
            "arena_overflow_allocs": self.arena_overflow_allocs,
            "arena_overflow_bytes": self.arena_overflow_bytes,
            "free_buffers": free,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BufferPool({self.as_dict()})"


class ParamStruct:
    """An ordered, named collection of NumPy arrays.

    Supports elementwise arithmetic (used for gradient accumulation and
    optimizer updates), flat packing (used for ring messages and
    sharding) and structural cloning.

    A struct may be *arena-backed* (see :meth:`to_arena`): all arrays are
    then views into one contiguous flat buffer, making ``pack`` and flat
    arithmetic O(1)/single-op.  Rebinding a name to a different array
    (``ps[k] = new``) silently drops the arena — correctness is kept,
    only the fast path is lost; in-place writes (``ps[k][...] = x``,
    ``ps[k] += g``) keep it.
    """

    __slots__ = ("_data", "_arena", "_layout")

    def __init__(self, data: Dict[str, np.ndarray] | None = None):
        self._data: Dict[str, np.ndarray] = dict(data or {})
        self._arena: Optional[np.ndarray] = None
        self._layout: Optional[Tuple] = None

    @classmethod
    def _from_parts(
        cls,
        data: Dict[str, np.ndarray],
        arena: Optional[np.ndarray],
        layout: Optional[Tuple],
    ) -> "ParamStruct":
        ps = cls.__new__(cls)
        ps._data = data
        ps._arena = arena
        ps._layout = layout
        return ps

    @classmethod
    def from_arena(cls, layout, arena: np.ndarray) -> "ParamStruct":
        """An arena-backed struct of ``layout`` — ``(name, shape)`` pairs
        in storage order — whose arrays are views into the flat buffer
        ``arena``; the caller hands over ownership of it."""
        return _rebuild_arena_ps(tuple((k, tuple(s)) for k, s in layout), arena)

    # -- pickling (process-transport wire format) ---------------------------

    def __reduce__(self):
        """Arena-backed structs serialize as (layout, arena): one flat
        buffer that pickle protocol 5 ships out of band — a weight slot
        crosses the process wire as a single memcpy, not one copy per
        named array.  Plain structs fall back to the data dict."""
        if self._arena is not None:
            return (_rebuild_arena_ps, (self._layout_key(), self._arena))
        return (ParamStruct, (self._data,))

    # -- mapping protocol ---------------------------------------------------

    def __getitem__(self, name: str) -> np.ndarray:
        return self._data[name]

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        if self._data.get(name) is not value:
            # a name now points outside the arena (or the key set grew):
            # the flat layout no longer covers this struct.
            self._arena = None
            self._layout = None
        self._data[name] = value

    def __contains__(self, name: str) -> bool:
        return name in self._data

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def keys(self) -> List[str]:
        return list(self._data.keys())

    def items(self) -> List[Tuple[str, np.ndarray]]:
        return list(self._data.items())

    def values(self) -> List[np.ndarray]:
        return list(self._data.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}:{tuple(v.shape)}" for k, v in self._data.items())
        tag = ", arena" if self._arena is not None else ""
        return f"ParamStruct({inner}{tag})"

    # -- structure ----------------------------------------------------------

    @property
    def numel(self) -> int:
        """Total number of scalar elements across all arrays."""
        if self._arena is not None:
            return int(self._arena.size)
        return sum(int(v.size) for v in self._data.values())

    def nbytes(self, bytes_per_element: int) -> int:
        """Logical message size if elements were stored at the given width."""
        return self.numel * bytes_per_element

    @property
    def arena(self) -> Optional[np.ndarray]:
        """The backing flat buffer, or ``None`` when not arena-backed."""
        return self._arena

    @property
    def common_dtype(self) -> Optional[np.dtype]:
        """The shared dtype of all arrays, or ``None`` if they differ."""
        vals = iter(self._data.values())
        first = next(vals, None)
        if first is None:
            return None
        dt = first.dtype
        for v in vals:
            if v.dtype != dt:
                return None
        return dt

    def _layout_key(self) -> Tuple:
        lk = self._layout
        if lk is None:
            lk = self._layout = tuple(
                (k, v.shape) for k, v in self._data.items()
            )
        return lk

    def _arena_views(
        self, buf: np.ndarray
    ) -> Dict[str, np.ndarray]:
        out: Dict[str, np.ndarray] = {}
        offset = 0
        for k, v in self._data.items():
            n = int(v.size)
            out[k] = buf[offset : offset + n].reshape(v.shape)
            offset += n
        return out

    def to_arena(self, pool: Optional[BufferPool] = None) -> "ParamStruct":
        """Copy into an arena-backed struct (one contiguous buffer).

        Requires a uniform dtype across arrays.  With ``pool`` the buffer
        is recycled from / accounted in the pool.
        """
        dtype = self.common_dtype
        if dtype is None:
            raise TypeError(
                "to_arena requires a uniform dtype across all arrays"
            )
        n = self.numel
        buf = pool.acquire(n, dtype) if pool is not None else np.empty(n, dtype=dtype)
        views = self._arena_views(buf)
        for k, v in self._data.items():
            np.copyto(views[k], v)
        return ParamStruct._from_parts(views, buf, self._layout_key())

    def clone(self, pool: Optional[BufferPool] = None) -> "ParamStruct":
        """A deep copy; with ``pool``, arena-backed on a buffer acquired
        from it — unless the arrays differ in dtype, which has no flat
        form and is copied array by array."""
        if pool is not None and self.common_dtype is not None:
            return self.to_arena(pool)
        if self._arena is not None:
            buf = self._arena.copy()
            return ParamStruct._from_parts(
                self._arena_views(buf), buf, self._layout_key()
            )
        return ParamStruct({k: v.copy() for k, v in self._data.items()})

    def zeros_like(self, pool: Optional[BufferPool] = None) -> "ParamStruct":
        dtype = self.common_dtype
        if dtype is not None and (pool is not None or self._arena is not None):
            n = self.numel
            if pool is not None:
                buf = pool.acquire(n, dtype)
                buf[...] = 0.0
            else:
                buf = np.zeros(n, dtype=dtype)
            return ParamStruct._from_parts(
                self._arena_views(buf), buf, self._layout_key()
            )
        return ParamStruct(
            {k: np.zeros_like(v) for k, v in self._data.items()}
        )

    def astype(self, dtype) -> "ParamStruct":
        return ParamStruct(
            {k: v.astype(dtype) for k, v in self._data.items()}
        )

    def map(self, fn) -> "ParamStruct":
        """Apply ``fn`` to every array, returning a new struct."""
        return ParamStruct({k: fn(v) for k, v in self._data.items()})

    # -- arithmetic ---------------------------------------------------------

    def add_(self, other: "ParamStruct", scale: float = 1.0) -> "ParamStruct":
        """In-place ``self += scale * other`` (matching keys required)."""
        a, b = self._arena, other._arena
        if (
            a is not None
            and b is not None
            and a.dtype == b.dtype
            and self._layout_key() == other._layout_key()
        ):
            if scale == 1.0:
                a += b
            else:
                a += scale * b
            return self
        if self._data.keys() != other._data.keys():
            raise KeyError("ParamStruct key mismatch in add_")
        for k, v in self._data.items():
            o = other._data[k]
            v += o if scale == 1.0 else scale * o
        return self

    def scale_(self, scale: float) -> "ParamStruct":
        if self._arena is not None:
            self._arena *= scale
            return self
        for k in self._data:
            self._data[k] *= scale
        return self

    def zero_(self) -> "ParamStruct":
        if self._arena is not None:
            self._arena[...] = 0.0
            return self
        for k in self._data:
            self._data[k][...] = 0.0
        return self

    # -- flat packing -------------------------------------------------------

    def pack(self, dtype=np.float32) -> np.ndarray:
        """All arrays (in key order) as one flat vector.

        Arena-backed structs return the arena itself when the dtype
        matches — zero copies; treat the result as **read-only** (or
        consumed by :meth:`unpack_from`), since it aliases this struct's
        storage.  Otherwise falls back to an allocating concatenation.
        """
        if self._arena is not None and self._arena.dtype == np.dtype(dtype):
            return self._arena
        if not self._data:
            return np.zeros(0, dtype=dtype)
        return np.concatenate(
            [v.reshape(-1).astype(dtype, copy=False) for v in self._data.values()]
        )

    def pack_into(self, out: np.ndarray) -> np.ndarray:
        """Pack into a caller-provided flat buffer (no allocation)."""
        if out.size != self.numel:
            raise ValueError(
                f"out buffer has {out.size} elements, expected {self.numel}"
            )
        flat = out.reshape(-1)
        if self._arena is not None and self._arena.dtype == flat.dtype:
            np.copyto(flat, self._arena)
            return out
        offset = 0
        for v in self._data.values():
            n = int(v.size)
            flat[offset : offset + n] = v.reshape(-1)
            offset += n
        return out

    def unpack_from(self, flat: np.ndarray) -> "ParamStruct":
        """A structural copy of ``self`` filled from a flat vector.

        When ``flat`` is 1-D, contiguous and already of every array's
        dtype, the result is arena-backed *on ``flat`` itself* (zero
        copies) — the caller hands over ownership of ``flat``.  Otherwise
        the values are copied out, as before.
        """
        if flat.size != self.numel:
            raise ValueError(
                f"flat buffer has {flat.size} elements, expected {self.numel}"
            )
        dtype = self.common_dtype
        if (
            dtype is not None
            and flat.ndim == 1
            and flat.dtype == dtype
            and flat.flags.c_contiguous
        ):
            return ParamStruct._from_parts(
                self._arena_views(flat), flat, self._layout_key()
            )
        out: Dict[str, np.ndarray] = {}
        offset = 0
        for k, v in self._data.items():
            n = int(v.size)
            out[k] = flat[offset : offset + n].reshape(v.shape).astype(
                v.dtype, copy=False
            ).copy()
            offset += n
        return ParamStruct(out)

    # -- comparison (testing) -------------------------------------------------

    def allclose(self, other: "ParamStruct", rtol=1e-7, atol=1e-9) -> bool:
        if self.keys() != other.keys():
            return False
        return all(
            np.allclose(self[k], other[k], rtol=rtol, atol=atol)
            for k in self._data
        )

    def max_abs_diff(self, other: "ParamStruct") -> float:
        if self.keys() != other.keys():
            raise KeyError("ParamStruct key mismatch")
        diffs = [
            float(np.max(np.abs(self[k] - other[k]))) if self[k].size else 0.0
            for k in self._data
        ]
        return max(diffs) if diffs else 0.0


def _rebuild_arena_ps(layout: Tuple, arena: np.ndarray) -> ParamStruct:
    """Unpickle target for arena-backed structs: rebuild the named views
    over the (possibly zero-copy, out-of-band) arena buffer."""
    data: Dict[str, np.ndarray] = {}
    offset = 0
    for name, shape in layout:
        n = 1
        for s in shape:
            n *= int(s)
        data[name] = arena[offset : offset + n].reshape(shape)
        offset += n
    return ParamStruct._from_parts(data, arena, layout)
