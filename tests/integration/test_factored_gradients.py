"""Below the regime boundary every loop that keeps whole gradients forms
them from factor bundles — and they still agree bit for bit.

The cell is an anti-regime shape: 8 tokens a microbatch against
``H = 64``, so every chunk is factored (``chunk_factored``).  There the
ring circulates no ``D``: each backward on a slot another rank owns posts
its bundles to the owner, which forms the slot's gradient once per
iteration with one GEMM per weight over the stacked tokens — the same
formation serial and the pipeline stage run.  So every ring row, on
either wire and at either width, equals serial and ``1f1b`` exactly; the
message table prices the new ``factors`` row and the missing ``D``; and
the arena holds the B slot and the staged bundles, whose float bodies
cross the process wire as descriptors.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import FP32, FP64, MIXED, Adam, MasterWeightOptimizer, ModelConfig, TrainSpec, train
from repro.core.api import ZOO, strategy_names
from repro.core.weipipe import ring_pool_bytes, train_weipipe
from repro.nn.model import chunk_factored, chunk_param_count
from repro.nn.params import BufferPool
from repro.runtime import Fabric, ProcessTransport
from repro.runtime.transport.shm import ShmArena, split_payload
from repro.testing import check_ledger, compare_train_results

PRECISION = {"fp64": (FP64, np.float64), "fp32": (FP32, np.float32)}
#: every ring record at P = 2 and 4; the two-level ring needs 2 x 2.
RINGS = [(name, world) for name in strategy_names(family="ring") for world in (2, 4)
         if not (ZOO[name].hier and world == 2)]


def _cell(precision=FP64, dtype=np.float64, **kw):
    cfg = ModelConfig(hidden=64, n_layers=4, n_heads=4, seq_len=8, vocab=29, dtype=dtype)
    return TrainSpec(cfg=cfg, n_microbatches=4, microbatch_size=1, iters=2,
                     precision=precision, **kw)


def test_the_cell_is_below_the_boundary():
    cfg = _cell().cfg
    assert all(chunk_factored(cfg, i, cfg.seq_len) for i in range(cfg.n_layers))


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("precision", sorted(PRECISION))
def test_every_ring_row_equals_serial_and_1f1b_bitwise(precision, backend):
    spec = _cell(*PRECISION[precision])
    ref = train(spec, "serial", 1)
    for world in (2, 4):
        got = train(spec, "1f1b", world, backend=backend)
        assert compare_train_results(got, ref, tol=0) is None, ("1f1b", world)
    for name, world in RINGS:
        got = train(spec, name, world, backend=backend)
        assert compare_train_results(got, ref, tol=0) is None, (name, world)


def test_mixed_rings_stay_at_the_mixed_tolerance():
    # the staging copy quantises each bundle: both wires agree bitwise
    spec = _cell(MIXED, np.float32, make_optimizer=lambda: MasterWeightOptimizer(
        Adam(lr=3e-3), MIXED))
    ref = train(spec, "serial", 1)
    for name, world in RINGS:
        got = train(spec, name, world)
        np.testing.assert_allclose(got.losses, ref.losses, rtol=1e-2)
        for chunk in got.chunks:
            assert all(np.isfinite(a).all() for a in chunk.values()), name
        proc = train(spec, name, world, backend="process")
        assert compare_train_results(proc, got, tol=0) is None, (name, world)


@pytest.mark.parametrize("name", ["weipipe-naive", "weipipe-interleave", "weipipe-zb",
                                  "1f1b", "zb1", "dp"])
@pytest.mark.parametrize("world", [2, 4])
def test_the_message_table_prices_the_factored_wire(name, world):
    spec = _cell()
    wire = Fabric(world)
    train(spec, name, world, fabric=wire)
    assert check_ledger(name, spec, world, wire) is None
    kinds = wire.metrics.total("fabric_messages_total", label="kind")
    if ZOO[name].family == "ring":
        assert kinds.get("factors") and not kinds.get("D"), kinds


def test_the_process_wire_matches_the_table_too():
    spec = _cell(FP32, np.float32)
    wire = ProcessTransport()
    train(spec, "weipipe-interleave", 2, fabric=wire)
    assert check_ledger("weipipe-interleave", spec, 2, wire) is None


def _bundle_floats(cfg, i, tokens):
    """Float elements of chunk ``i``'s factor bundle, from the shapes: each
    linear's input (``3H + F`` a token) and output gradient (``5H + 2F``),
    the two norm gains; the embedding's gradient on the first chunk (its
    token ids are not floats); the head's input and gradient and the
    final norm's gain on the last."""
    h, f = cfg.hidden, cfg.ffn
    n = tokens * (8 * h + 3 * f) + 2 * h
    n += tokens * h * (i == 0)
    return n + (tokens * (h + cfg.vocab) + h) * (i == cfg.n_layers - 1)


def test_the_arena_holds_the_b_slot_and_the_staged_bundles():
    # each rank draws its B slot, and one staged buffer per backward on a
    # slot it does not own: N / P microbatches on each of the P - 1 others
    spec = _cell()
    cfg, tokens = spec.cfg, spec.cfg.seq_len
    itemsize = np.dtype(cfg.dtype).itemsize
    for world in (2, 4):
        predicted = [ring_pool_bytes(spec, world, r) for r in range(world)]

        def chunks(slot):
            return [i for i in range(cfg.n_layers) if i * world // cfg.n_layers == slot]

        expected = [
            sum(ShmArena.span_nbytes(chunk_param_count(cfg, i) * itemsize)
                for i in chunks((r - 1) % world))
            + spec.n_microbatches // world * sum(
                ShmArena.span_nbytes(itemsize * sum(_bundle_floats(cfg, i, tokens)
                                                    for i in chunks(slot)))
                for slot in range(world) if slot != (r - 1) % world)
            for r in range(world)
        ]
        assert predicted == expected
        pt = ProcessTransport()
        res = train_weipipe(spec, world, fabric=pt)
        assert [p["arena_used"] for p in pt.pools_by_rank] == predicted
        assert res.extra["arena_overflow_allocs"] == 0
        allocs = res.extra["pool_allocs_by_iter"]
        assert allocs[-1] - allocs[0] == 0, allocs


@pytest.mark.parametrize("mode", ["interleave", "zero-bubble"])
@pytest.mark.parametrize("backend", ["thread", "process"])
def test_the_staged_bundles_return_to_the_pool_every_iteration(backend, mode):
    # a staged buffer is drawn per shipped unit and released after the
    # loss gather: iteration 0 draws them all, every later one reuses them
    spec = replace(_cell(), iters=3)
    world = 2
    units = (world - 1) * spec.n_microbatches // world  # shipped per rank and iteration
    wire = Fabric(world) if backend == "thread" else ProcessTransport()
    train_weipipe(spec, world, mode=mode, fabric=wire)
    pools = ([wire.shared_pool(BufferPool).as_dict()] if backend == "thread"
             else wire.pools_by_rank)
    ranks = world if backend == "thread" else 1  # the thread wire's pool is shared
    for pool in pools:
        assert pool["releases"] == spec.iters * units * ranks, pool
        assert pool["free_buffers"] == units * ranks, pool


def test_every_float_body_of_a_factors_frame_is_an_arena_descriptor(monkeypatch, tmp_path):
    # the ranks inherit the spy at fork: it splits each frame's payload
    # the way the codec does and logs what every body became
    from repro.runtime.transport import process

    log = tmp_path / "frames"
    encode = process.encode_frame

    def spy(payload, tag, nbytes, seq, integrity=True, arena=None):
        if tag[0] == "factors":
            _, specs, _ = split_payload(payload, arena)
            floats = [s for s in specs if np.dtype(s[-1]).kind == "f"]
            with open(log, "a") as f:
                f.write(f"{len(floats)} {sum(len(s) == 4 for s in floats)}\n")
        return encode(payload, tag, nbytes, seq, integrity=integrity, arena=arena)

    monkeypatch.setattr(process, "encode_frame", spy)
    spec = _cell(FP32, np.float32)
    world = 4
    ref = train_weipipe(spec, world)
    got = train_weipipe(spec, world, fabric=ProcessTransport())
    assert compare_train_results(got, ref, tol=0) is None
    frames = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
    # one hop per backward on a foreign slot: (P - 1) N / P a rank and iteration
    assert len(frames) == spec.iters * world * (world - 1) * spec.n_microbatches // world
    assert all(n > 0 and descriptors == n for n, descriptors in frames), frames
