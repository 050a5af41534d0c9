"""Per-layer probes: public functions of each layer, timed from outside.

Every probe runs at the workload's own shapes (one microbatch, one
weight slot) and reports best-of-``K`` per-call time inside a span named
``probe.<module>``.  Nothing here reaches into a layer's internals: the
probes only call names the modules export.  Each probe returns
``{metric name: value}``; the unit of a name is in ``BENCHMARK.json``.
"""

from __future__ import annotations

import tracemalloc
from time import perf_counter
from typing import Any, Callable, Dict, List

import numpy as np

from repro.core.weipipe import slot_chunk_ids
from repro.nn import BufferPool, functional as F
from repro.nn.accounting import layer_fwd_flops
from repro.nn.attention import (
    attention_bwd,
    attention_fwd,
    flash_attention_bwd,
    flash_attention_fwd,
)
from repro.nn.layer import (
    init_layer_weights,
    layer_bwd_input,
    layer_bwd_weight,
    layer_fwd,
)
from repro.obs import NULL_RANK_TRACER, FlightRecorder, MetricsRegistry, Tracer
from repro.parallel.common import TrainSpec, microbatch
from repro.runtime import Fabric, Message, payload_crc32, payload_nbytes, run_workers
from repro.runtime.transport.shm import (
    FrameDecoder,
    ShmArena,
    ShmRing,
    encode_frame,
)

from spans import SpanRecorder

__all__ = ["run_probes", "launch_noop", "Timer"]

K = 3
MIB = 1 << 20


class Timer:
    """Best-of-``K`` per-call seconds, ``budget_s`` of wall per function.

    ``once`` (the ``--quick`` mode) times a single call.
    """

    def __init__(self, budget_s: float, once: bool):
        self.budget_s = budget_s
        self.once = once
        #: repetitions of a measurement that times itself.
        self.reps = 1 if once else K

    def best(self, fn: Callable[[], Any]) -> float:
        t0 = perf_counter()
        fn()
        best = perf_counter() - t0
        if self.once:
            return best
        inner = min(max(int(self.budget_s / (K * max(best, 1e-9))), 1), 20000)
        for _ in range(self.reps):
            t0 = perf_counter()
            for _ in range(inner):
                fn()
            best = min(best, (perf_counter() - t0) / inner)
        return best


def _noop(comm) -> None:
    return None


def launch_noop(world: int, backend) -> float:
    """Wall of an empty ``run_workers`` launch (fork, segment, join)."""
    t0 = perf_counter()
    run_workers(world, _noop, backend=backend)
    return perf_counter() - t0


def _mbps(nbytes: int, seconds: float) -> float:
    return nbytes / seconds / 1e6


# -- repro.nn -----------------------------------------------------------------


def _probe_nn(spec: TrainSpec, t: Timer, rng) -> Dict[str, float]:
    cfg = spec.cfg
    g, s, h = spec.microbatch_size, cfg.seq_len, cfg.hidden
    w = init_layer_weights(h, cfg.ffn, rng, cfg.dtype)
    cos, sin = spec.rope()
    x = rng.standard_normal((g, s, h)).astype(cfg.dtype)
    dy = rng.standard_normal((g, s, h)).astype(cfg.dtype)

    def fwd():
        return layer_fwd(w, x, cfg.n_heads, cos, sin, cfg.flash_attention,
                         cfg.flash_block)

    t_fwd = t.best(fwd)
    _, cache = fwd()
    t_bin = t.best(lambda: layer_bwd_input(w, dy, cache))
    _, wcache = layer_bwd_input(w, dy, cache)
    t_bw = t.best(lambda: layer_bwd_weight(cache, wcache))
    tracemalloc.start()
    fwd()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "nn.layer_fwd_us": t_fwd * 1e6,
        "nn.layer_bwd_input_us": t_bin * 1e6,
        "nn.layer_bwd_weight_us": t_bw * 1e6,
        "nn.layer_fwd_gflops": layer_fwd_flops(cfg, g)["total"] / t_fwd / 1e9,
        "nn.layer_fwd_alloc_mb": peak / 1e6,
    }


def _probe_attention(spec: TrainSpec, t: Timer, rng) -> Dict[str, float]:
    cfg = spec.cfg
    shape = (spec.microbatch_size, cfg.n_heads, cfg.seq_len, cfg.head_dim)
    q, k, v, dout = (rng.standard_normal(shape).astype(cfg.dtype) for _ in range(4))
    if cfg.flash_attention:
        def fwd():
            return flash_attention_fwd(q, k, v, block=cfg.flash_block)
        bwd = flash_attention_bwd
    else:
        def fwd():
            return attention_fwd(q, k, v)
        bwd = attention_bwd
    t_fwd = t.best(fwd)
    _, cache = fwd()
    return {
        "nn.attention_fwd_us": t_fwd * 1e6,
        "nn.attention_bwd_us": t.best(lambda: bwd(dout, cache)) * 1e6,
    }


def _probe_functional(spec: TrainSpec, t: Timer, rng) -> Dict[str, float]:
    cfg = spec.cfg
    g, s, h = spec.microbatch_size, cfg.seq_len, cfg.hidden
    x = rng.standard_normal((g, s, h)).astype(cfg.dtype)
    gain = np.ones(h, dtype=cfg.dtype)
    _, c_norm = F.rmsnorm_fwd(x, gain)
    logits = rng.standard_normal((g, s, cfg.vocab)).astype(cfg.dtype)
    targets = rng.integers(0, cfg.vocab, size=(g, s))

    def xent():
        _, c = F.cross_entropy_fwd(logits, targets)
        return F.cross_entropy_bwd(1.0, c)

    # the FFN up-projection: the widest GEMM of the layer.
    w_up = rng.standard_normal((h, cfg.ffn)).astype(cfg.dtype)
    x2d = x.reshape(g * s, h)
    flops = 2.0 * g * s * h * cfg.ffn
    linear = flops / t.best(lambda: F.linear_fwd(x, w_up)) / 1e9
    roofline = flops / t.best(lambda: np.matmul(x2d, w_up)) / 1e9
    return {
        "nn.rmsnorm_fwd_us": t.best(lambda: F.rmsnorm_fwd(x, gain)) * 1e6,
        "nn.rmsnorm_bwd_us": t.best(lambda: F.rmsnorm_bwd(x, c_norm)) * 1e6,
        "nn.cross_entropy_us": t.best(xent) * 1e6,
        "nn.linear_fwd_gflops": linear,
        "nn.matmul_roofline_gflops": roofline,
        "nn.linear_roofline_frac": linear / roofline,
    }


# -- one weight slot: params, optimizer, data, integrity ----------------------


def _probe_params(chunk, t: Timer) -> Dict[str, float]:
    """``chunk`` is a plain (non-arena) ParamStruct as ``init_chunks``
    returns it; its arena twin is what circulates on the ring."""
    nbytes = payload_nbytes(chunk)
    dtype = chunk.common_dtype
    flat = np.empty(chunk.numel, dtype=dtype)
    arena_a = chunk.to_arena()
    arena_b = chunk.to_arena()
    pool = BufferPool()
    pool.release(pool.acquire(chunk.numel, dtype))

    return {
        "params.pack_mbps": _mbps(nbytes, t.best(lambda: chunk.pack(dtype))),
        "params.pack_into_mbps": _mbps(nbytes, t.best(lambda: chunk.pack_into(flat))),
        "params.unpack_from_mbps": _mbps(
            nbytes, t.best(lambda: chunk.unpack_from(flat))),
        "params.to_arena_us": t.best(chunk.to_arena) * 1e6,
        "params.add__mbps": _mbps(
            nbytes, t.best(lambda: arena_a.add_(arena_b, scale=0.5))),
        "params.pool_cycle_ns": t.best(
            lambda: pool.release(pool.acquire(chunk.numel, dtype))) * 1e9,
    }


def _probe_optim(spec: TrainSpec, chunk, t: Timer) -> Dict[str, float]:
    opt = spec.make_optimizer()
    params = chunk.clone()
    grads = chunk.clone()
    state = opt.init_state(params)
    return {"optim.step_us": t.best(lambda: opt.step(params, grads, state)) * 1e6}


def _probe_data(spec: TrainSpec, t: Timer) -> Dict[str, float]:
    return {"data.microbatch_us": t.best(lambda: microbatch(spec, 0, 0)) * 1e6}


def _probe_integrity(slot, t: Timer) -> Dict[str, float]:
    return {"integrity.crc32_mbps": _mbps(payload_nbytes(slot),
                                          t.best(lambda: payload_crc32(slot)))}


# -- repro.runtime.transport.shm ----------------------------------------------


def _pump(ring: ShmRing, chunks: List[memoryview], drain: Callable[[], Any]) -> Any:
    """Stream ``chunks`` through ``ring``, calling ``drain`` whenever it
    fills and once more at the end; returns ``drain``'s last value."""
    out = None
    for mv in chunks:
        mv = mv.cast("B")
        while len(mv):
            n = ring.write_some(mv)
            mv = mv[n:]
            if len(mv):
                out = drain()
    return drain() or out


def _probe_shm(slot, t: Timer) -> Dict[str, float]:
    nbytes = payload_nbytes(slot)
    tag = ("F", 0, 1)

    # the arena-resident twin: every chunk's buffer lives in the region.
    span = sum(ShmArena.span_nbytes(payload_nbytes(c)) + ShmArena.ALIGN
               for c in slot.values())
    arena = ShmArena([memoryview(bytearray(span))], own=0)
    resident = {
        i: c.unpack_from(c.pack_into(arena.alloc(c.numel, c.common_dtype)))
        for i, c in slot.items()
    }
    t_desc = t.best(lambda: encode_frame(resident, tag, nbytes, 0, True, arena))
    t_copy = t.best(lambda: encode_frame(slot, tag, nbytes, 0, True, None))

    ring = ShmRing(memoryview(bytearray(ShmRing.HEADER + MIB)), MIB, create=True)
    raw = [memoryview(c.arena).cast("B") for c in slot.values()]
    sink = memoryview(bytearray(MIB))
    t_ring = t.best(lambda: _pump(ring, raw, lambda: ring.read_into(sink)))

    pool = BufferPool()
    decoder = FrameDecoder(ring, pool.acquire)

    def roundtrip():
        frame = _pump(ring, encode_frame(slot, tag, nbytes, 0, True, None),
                      decoder.poll)
        for c in frame.payload.values():
            pool.release(c.arena)
        return frame

    frame = roundtrip()
    if frame.crc != frame.crc_actual or any(
        not np.array_equal(frame.payload[i].arena, slot[i].arena) for i in slot
    ):
        raise AssertionError("frame round trip did not reproduce the slot")
    t_round = t.best(roundtrip)

    small = ShmArena.span_nbytes(64 * 4) + ShmArena.ALIGN
    n_alloc = 1 if t.once else 2000

    def alloc_many():
        a = ShmArena([memoryview(bytearray(small * n_alloc))], own=0)
        t0 = perf_counter()
        for _ in range(n_alloc):
            a.alloc(64, np.float32)
        return (perf_counter() - t0) / n_alloc

    return {
        "shm.encode_desc_us": t_desc * 1e6,
        "shm.encode_copy_mbps": _mbps(nbytes, t_copy),
        "shm.ring_copy_mbps": _mbps(nbytes, t_ring),
        "shm.frame_roundtrip_mbps": _mbps(nbytes, t_round),
        "shm.arena_alloc_ns": min(alloc_many() for _ in range(t.reps)) * 1e9,
    }


# -- repro.runtime.communicator / transport -----------------------------------


def _pingpong(comm, n: int, payload) -> float:
    peer = 1 - comm.rank
    t0 = perf_counter()
    for i in range(n):
        if comm.rank == 0:
            comm.send(payload, peer, ("ping", i))
            comm.recv(peer, ("pong", i))
        else:
            comm.recv(peer, ("ping", i))
            comm.send(payload, peer, ("pong", i))
    return (perf_counter() - t0) / n


def _stream(comm, n: int, payload) -> float:
    """One-way: rank 0 sends ``n`` buffers, rank 1 acknowledges the last."""
    t0 = perf_counter()
    if comm.rank == 0:
        for i in range(n):
            comm.send(payload, 1, ("s", i))
        comm.recv(1, ("ack",))
    else:
        for i in range(n):
            comm.recv(0, ("s", i))
        comm.send(0, 0, ("ack",))
    return perf_counter() - t0


def _probe_fabric(slot, t: Timer) -> Dict[str, float]:
    out: Dict[str, float] = {}
    fab = Fabric(2)
    kib = np.zeros(256, dtype=np.float32)

    def post_take(payload, nbytes):
        fab.post(Message(0, 1, ("p",), payload, nbytes))
        return fab.take(1, 0, ("p",), 1.0)

    out["fabric.post_take_us"] = t.best(lambda: post_take(kib, 1024)) * 1e6
    nbytes = payload_nbytes(slot)
    out["fabric.post_take_slot_mbps"] = _mbps(
        nbytes, t.best(lambda: post_take(slot, nbytes)))

    mib = np.zeros(MIB // 4, dtype=np.float32)
    n_pp, n_st = (2, 2) if t.once else (200, 24)
    for backend in ("thread", "process"):
        # rank 0's clock: it sees both the first send and the last reply.
        rtt = min(
            run_workers(2, lambda c: _pingpong(c, n_pp, kib), backend=backend)[0]
            for _ in range(t.reps)
        )
        wall = min(
            run_workers(2, lambda c: _stream(c, n_st, mib), backend=backend)[0]
            for _ in range(t.reps)
        )
        out[f"fabric.pingpong_us.{backend}"] = rtt * 1e6
        out[f"fabric.stream_mbps.{backend}"] = _mbps(n_st * MIB, wall)
    return out


def _probe_transport(t: Timer) -> Dict[str, float]:
    reps = 1 if t.once else 5
    return {
        f"transport.launch_s.{backend}": float(
            np.median([launch_noop(2, backend) for _ in range(reps)]))
        for backend in ("thread", "process")
    }


# -- repro.obs ----------------------------------------------------------------


def _probe_obs(t: Timer) -> Dict[str, float]:
    n = 1 if t.once else 1000

    def spans(rank_tracer):
        def loop():
            for _ in range(n):
                with rank_tracer.span("probe", "probe"):
                    pass
        return loop

    def fresh_tracer_loop():
        # a fresh buffer each repetition: events are kept, not dropped.
        spans(Tracer().rank(0))()

    recorder = FlightRecorder(0)
    counter = MetricsRegistry().counter("probe_total")

    def record():
        for _ in range(n):
            recorder.record(1, 2, 3)

    def inc():
        for _ in range(n):
            counter.add(1)

    return {
        "obs.tracer_span_ns": t.best(fresh_tracer_loop) / n * 1e9,
        "obs.null_span_ns": t.best(spans(NULL_RANK_TRACER)) / n * 1e9,
        "obs.flight_record_ns": t.best(record) / n * 1e9,
        "obs.metrics_inc_ns": t.best(inc) / n * 1e9,
    }


def run_probes(spec: TrainSpec, world: int, seed: int, timer: Timer,
               spans: SpanRecorder) -> Dict[str, float]:
    """Every layer probe once, each inside its own span."""
    rng = np.random.default_rng(seed)
    chunks = spec.init_chunks()
    slot = {i: chunks[i].to_arena()
            for i in slot_chunk_ids(0, world, spec.cfg.n_layers)}
    probes = [
        ("probe.nn", lambda: _probe_nn(spec, timer, rng)),
        ("probe.nn.attention", lambda: _probe_attention(spec, timer, rng)),
        ("probe.nn.functional", lambda: _probe_functional(spec, timer, rng)),
        ("probe.nn.params", lambda: _probe_params(chunks[0], timer)),
        ("probe.optim", lambda: _probe_optim(spec, chunks[0], timer)),
        ("probe.parallel.common", lambda: _probe_data(spec, timer)),
        ("probe.runtime.integrity", lambda: _probe_integrity(slot, timer)),
        ("probe.runtime.transport.shm", lambda: _probe_shm(slot, timer)),
        ("probe.runtime.communicator", lambda: _probe_fabric(slot, timer)),
        ("probe.runtime.transport", lambda: _probe_transport(timer)),
        ("probe.obs", lambda: _probe_obs(timer)),
    ]
    out: Dict[str, float] = {}
    for name, fn in probes:
        with spans.span(name):
            out.update(fn())
    return out
