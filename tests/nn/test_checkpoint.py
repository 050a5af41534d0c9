"""Recomputation must be numerically invisible and actually drop caches."""

import statistics
import tracemalloc
from time import perf_counter

import numpy as np
import pytest

import repro.nn.checkpoint as checkpoint_mod
from repro.nn import (
    CheckpointedChunk,
    ModelConfig,
    chunk_bwd,
    chunk_bwd_input,
    chunk_bwd_weight,
    chunk_fwd,
    init_model,
    rope_tables,
)
from repro.nn import functional as F
from repro.nn.accounting import tensor_bytes
from repro.nn.checkpoint import checkpoint_elements
from repro.sim import A800, WorkloadDims
from repro.sim.costmodel import CostModel, ExecConfig

CFG = ModelConfig(hidden=16, n_layers=2, n_heads=2, seq_len=5, vocab=11)
RNG = np.random.default_rng(9)


def _run(recompute: bool):
    chunks = init_model(CFG, seed=2)
    cos, sin = rope_tables(CFG)
    ck = CheckpointedChunk(CFG, recompute=recompute)
    tokens = RNG.integers(0, CFG.vocab, size=(2, CFG.seq_len))
    targets = np.roll(tokens, -1, axis=1)

    x = tokens
    states = []
    for i in range(CFG.n_layers):
        x, st = ck.fwd(i, chunks[i], x, cos, sin)
        states.append(st)
    loss, c_loss = F.cross_entropy_fwd(x, targets)
    dy = F.cross_entropy_bwd(1.0, c_loss)
    grads = []
    for i in range(CFG.n_layers - 1, -1, -1):
        dy, g = ck.bwd(i, chunks[i], dy, states[i])
        grads.append(g)
    return loss, grads, states


class TestCheckpoint:
    def test_recompute_matches_full(self):
        RNG_STATE = np.random.default_rng(9)
        global RNG
        RNG = np.random.default_rng(9)
        loss_f, grads_f, _ = _run(False)
        RNG = np.random.default_rng(9)
        loss_r, grads_r, _ = _run(True)
        assert loss_f == loss_r
        for gf, gr in zip(grads_f, grads_r):
            for name in gf.keys():
                np.testing.assert_array_equal(gf[name], gr[name])

    def test_full_state_holds_cache(self):
        global RNG
        RNG = np.random.default_rng(9)
        _, _, states = _run(False)
        for st in states:
            assert st[0] == "full"

    def test_decoupled_bw_with_recompute(self):
        chunks = init_model(CFG, seed=2)
        cos, sin = rope_tables(CFG)
        rng = np.random.default_rng(4)
        tokens = rng.integers(0, CFG.vocab, size=(1, CFG.seq_len))
        x = tokens
        ck_r = CheckpointedChunk(CFG, recompute=True)
        ck_f = CheckpointedChunk(CFG, recompute=False)
        states_r, states_f = [], []
        xf = x
        for i in range(CFG.n_layers):
            xr, sr = ck_r.fwd(i, chunks[i], x, cos, sin)
            xf, sf = ck_f.fwd(i, chunks[i], xf, cos, sin)
            x = xr
            states_r.append(sr)
            states_f.append(sf)
        dy = rng.normal(size=x.shape)
        for i in range(CFG.n_layers - 1, 0, -1):
            dxr, cache_r, wc_r = ck_r.bwd_input(i, chunks[i], dy, states_r[i])
            dxf, cache_f, wc_f = ck_f.bwd_input(i, chunks[i], dy, states_f[i])
            np.testing.assert_array_equal(dxr, dxf)
            gr = ck_r.bwd_weight(i, cache_r, wc_r)
            gf = ck_f.bwd_weight(i, cache_f, wc_f)
            for name in gf.keys():
                np.testing.assert_array_equal(gr[name], gf[name])
            dy = dxr


# -- the newest forward's cache is kept until the next checkpointed op --------

def _same(a, b):
    """Bit-for-bit equality of nested caches (tuples / dicts / arrays)."""
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype
                and a.shape == b.shape and a.tobytes() == b.tobytes())
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if hasattr(a, "keys"):  # ParamStruct
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a.keys())
    return a == b


def _copy_of(state):
    """An equal state tuple that is not the one ``fwd`` returned."""
    other = tuple(list(state))
    assert other is not state and _same(other, state)
    return other


def _setup(dtype, flash, hidden=16, seq=8, layers=2, vocab=11, g=2):
    cfg = ModelConfig(hidden=hidden, n_layers=layers, n_heads=2, seq_len=seq,
                      vocab=vocab, dtype=dtype, flash_attention=flash,
                      flash_block=4 if seq <= 8 else 128)
    chunks = init_model(cfg, seed=2)
    cos, sin = rope_tables(cfg)
    tokens = np.random.default_rng(5).integers(0, vocab, size=(g, seq))
    return cfg, chunks, cos, sin, tokens, np.roll(tokens, -1, axis=1)


def _fwd_loss_bwd(ck, cfg, chunks, cos, sin, tokens, targets, forced=False,
                  split=False):
    """forward-all -> loss -> backward-all, as a serial microbatch runs
    it; ``forced`` hands every backward a copy of its state, which must
    miss the warm entry and replay."""
    x = tokens
    states = []
    for i in range(cfg.n_layers):
        x, st = ck.fwd(i, chunks[i], x, cos, sin)
        states.append(st)
    loss, c_loss = F.cross_entropy_fwd(x, targets)
    del x
    dy = F.cross_entropy_bwd(1.0, c_loss)
    out = []
    for i in range(cfg.n_layers - 1, -1, -1):
        st = _copy_of(states[i]) if forced else states[i]
        if split:
            dy, cache, wcache = ck.bwd_input(i, chunks[i], dy, st)
            out.append((dy, cache, wcache, ck.bwd_weight(i, cache, wcache)))
        else:
            dy, g = ck.bwd(i, chunks[i], dy, st)
            out.append((dy, g))
    return loss, out


def _arrays(obj):
    """Every ndarray reachable through tuples / dicts / ParamStructs."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item)
    elif isinstance(obj, dict) or hasattr(obj, "keys"):
        for key in obj.keys():
            yield from _arrays(obj[key])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestCheckpointState:
    """What a checkpoint pins while its microbatch is in flight."""

    def _states(self, dtype, flash, g=2):
        cfg, chunks, cos, sin, tokens, _ = _setup(dtype, flash, layers=3, g=g)
        ck = CheckpointedChunk(cfg, recompute=True)
        x = tokens
        for i in range(cfg.n_layers):
            x_in = x
            x, state = ck.fwd(i, chunks[i], x, cos, sin)
            # the warm entry is this very forward's full cache
            yield cfg, i, x_in, state, ck._warm[1]

    def test_flash_state_is_input_plus_attention_output_and_lse(self, dtype):
        g = 2
        for cfg, i, x_in, state, cache in self._states(dtype, True, g):
            tag, x, cos, sin, kept, seam = state
            assert tag == "recompute" and x is x_in and len(kept) == 2
            assert seam is None
            out, lse = kept
            assert out.shape == (g, cfg.n_heads, cfg.seq_len, cfg.head_dim)
            assert lse.shape == (g, cfg.n_heads, cfg.seq_len)
            assert out.dtype == lse.dtype == dtype
            gs = g * cfg.seq_len
            held = [x, out, lse]
            assert sorted(map(id, _arrays(state))) == sorted(
                map(id, held + [cos, sin]))
            if i > 0:  # chunk 0's x is the (G, S) token ids
                assert sum(a.size for a in held) == (
                    2 * gs * cfg.hidden + gs * cfg.n_heads)
            # the pair owns its bytes: keeping it pins neither q / k / v
            # nor any other entry of the cache it was taken from (``wo``'s
            # input is a view of ``out``: the same bytes, not more).
            assert out.base is None and lse.base is None
            for a in held:
                for b in _arrays(cache):
                    assert (b is a or b.base is a
                            or not np.shares_memory(a, b))

    def test_materialised_state_is_the_input_alone(self, dtype):
        for _cfg, _i, x_in, state, _cache in self._states(dtype, False):
            tag, x, cos, sin, kept, seam = state
            assert tag == "recompute" and x is x_in and kept == () and seam is None
            assert sorted(map(id, _arrays(state))) == sorted(
                map(id, [x, cos, sin]))

    @pytest.mark.parametrize("flash", [False, True])
    def test_the_rules_bytes_are_what_a_state_pins(self, dtype, flash):
        """``checkpoint_elements`` — what the memory model charges per
        layer — is what a state pins beside the shared RoPE tables."""
        g = 2
        for cfg, i, _x, state, _cache in self._states(dtype, flash, g):
            if i == 0:
                continue  # chunk 0's x is the (G, S) token ids
            pinned = tensor_bytes(state) - tensor_bytes(state[2:4])
            dims = WorkloadDims(hidden=cfg.hidden, n_layers=cfg.n_layers,
                                seq_len=cfg.seq_len, microbatch=g, n_microbatches=1,
                                n_heads=cfg.n_heads, vocab=cfg.vocab)
            exec_cfg = ExecConfig(flash_attention=flash,
                                  act_bytes=np.dtype(dtype).itemsize)
            assert CostModel(dims, A800, exec_cfg).checkpoint_bytes() == pinned == (
                checkpoint_elements(g * cfg.seq_len, cfg.hidden, cfg.n_heads, flash)
                * np.dtype(dtype).itemsize)


@pytest.mark.parametrize("idx", [0, 1, 2], ids=["first", "interior", "last"])
@pytest.mark.parametrize("split", [False, True], ids=["fused", "split"])
@pytest.mark.parametrize("flash", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_selective_replay_rebuilds_the_whole_forwards_cache(
    dtype, flash, split, idx
):
    """A replay skips the attention core (its output was kept) and the
    GEMMs only the chunk output needs; what it hands the backward is the
    cache a whole second forward builds, bit for bit."""
    cfg, chunks, cos, sin, tokens, _ = _setup(dtype, flash, layers=3)
    ck = CheckpointedChunk(cfg, recompute=True)
    x = tokens
    for i in range(idx + 1):
        x_in = x
        x, state = ck.fwd(i, chunks[i], x, cos, sin)
    w = chunks[idx]
    dy = np.random.default_rng(3).standard_normal(x.shape).astype(dtype)

    y_full, cache_full = chunk_fwd(cfg, idx, w, x_in, cos, sin)
    assert _same(y_full, x)
    forced = _copy_of(state)
    if split:
        dx, cache, wcache = ck.bwd_input(idx, w, dy, forced)
        assert _same(cache, cache_full)
        dx_full, wcache_full = chunk_bwd_input(cfg, idx, w, dy, cache_full)
        assert _same((dx, wcache), (dx_full, wcache_full))
        assert _same(ck.bwd_weight(idx, cache, wcache),
                     chunk_bwd_weight(cfg, idx, cache_full, wcache_full))
    else:
        assert _same(ck.bwd(idx, w, dy, forced),
                     chunk_bwd(cfg, idx, w, dy, cache_full))
    assert (ck.kept, ck.replayed) == (0, 1)


@pytest.mark.parametrize("flash", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestWarmCache:
    @pytest.mark.parametrize("split", [False, True])
    def test_warm_path_is_bit_identical_to_forced_replay(self, dtype, flash, split):
        args = _setup(dtype, flash)
        warm = CheckpointedChunk(args[0], recompute=True)
        cold = CheckpointedChunk(args[0], recompute=True)
        loss_w, out_w = _fwd_loss_bwd(warm, *args, split=split)
        loss_c, out_c = _fwd_loss_bwd(cold, *args, forced=True, split=split)
        assert loss_w == loss_c
        # dx, grads and, on the split path, (cache, wcache) themselves
        assert _same(out_w, out_c)
        n = args[0].n_layers
        assert (warm.kept, warm.replayed) == (1, n - 1)
        assert (cold.kept, cold.replayed) == (0, n)

    def test_warm_entry_is_gone_before_any_forward_allocates(
        self, dtype, flash, monkeypatch
    ):
        args = _setup(dtype, flash, layers=3)
        ck = CheckpointedChunk(args[0], recompute=True)
        entries = []
        real = checkpoint_mod.chunk_fwd

        def spy(*a, **k):
            entries.append(ck._warm)
            return real(*a, **k)

        monkeypatch.setattr(checkpoint_mod, "chunk_fwd", spy)
        _fwd_loss_bwd(ck, *args)
        _fwd_loss_bwd(ck, *args, forced=True)
        assert len(entries) == 3 + 2 + 3 + 3
        assert all(e is None for e in entries)
        assert ck._warm is None  # the last backward dropped it too

    def test_second_microbatch_evicts_the_first(self, dtype, flash):
        cfg, chunks, cos, sin, tokens, _ = _setup(dtype, flash, layers=1)
        ck = CheckpointedChunk(cfg, recompute=True)
        _, st_a = ck.fwd(0, chunks[0], tokens, cos, sin)
        y, st_b = ck.fwd(0, chunks[0], tokens[::-1], cos, sin)
        dy = np.ones_like(y)
        ck.bwd(0, chunks[0], dy, st_a)  # not the newest forward: replays
        assert (ck.kept, ck.replayed) == (0, 1)
        ck.bwd(0, chunks[0], dy, st_b)  # a's backward dropped b's entry
        assert (ck.kept, ck.replayed) == (0, 2)

    def test_full_cache_mode_counts_nothing(self, dtype, flash):
        args = _setup(dtype, flash)
        ck = CheckpointedChunk(args[0], recompute=False)
        _fwd_loss_bwd(ck, *args)
        assert (ck.kept, ck.replayed, ck._warm) == (0, 0, None)


@pytest.mark.parametrize("vocab", [256, 4096])
@pytest.mark.parametrize("flash", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_warm_path_peak_memory_is_the_replay_paths(
    dtype, flash, vocab, monkeypatch
):
    """Keeping the newest cache across the loss costs no peak: the
    replay would hold the same bytes at the moment the peak is set (the
    last chunk's backward).  And a replay that resumes from the kept
    attention output peaks no higher than a whole second forward plus
    the bytes kept — one ``out`` + ``logsumexp`` per chunk in flight."""
    args = _setup(dtype, flash, hidden=64, seq=256, layers=3, vocab=vocab, g=1)

    def peak(forced):
        ck = CheckpointedChunk(args[0], recompute=True)
        _fwd_loss_bwd(ck, *args, forced=forced)  # warm the heap and BLAS
        tracemalloc.start()
        try:
            _fwd_loss_bwd(ck, *args, forced=forced)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    selective = peak(forced=True)
    assert peak(forced=False) <= 1.02 * selective

    cfg = args[0]
    gs = cfg.seq_len  # g = 1
    stash = cfg.n_layers * gs * (cfg.hidden + cfg.n_heads) * flash
    stash *= np.dtype(dtype).itemsize
    monkeypatch.setattr(checkpoint_mod, "chunk_kept", lambda cache: ())
    monkeypatch.setattr(  # the whole forward again
        checkpoint_mod, "chunk_fwd",
        lambda *a, replay=None, seam=None: chunk_fwd(*a, seam=seam))
    # tracemalloc also counts the state tuples: a page of slack
    assert selective <= peak(forced=True) + stash + 4096


@pytest.mark.timing
def test_a_flash_replay_costs_well_under_its_forward():
    """At the long-context layer shape (G S >> 12 H) the streaming core is
    most of a forward, and a replay does not run it.  Each timing is read
    against the suite's matmul burst taken just before it (a slow moment
    of the box slows both), median of k."""
    cfg = ModelConfig(hidden=64, n_layers=3, n_heads=2, seq_len=1024,
                      vocab=256, dtype=np.float32, flash_attention=True)
    w = init_model(cfg, seed=2)[1]
    cos, sin = rope_tables(cfg)
    x = np.random.default_rng(5).standard_normal(
        (1, cfg.seq_len, cfg.hidden)).astype(np.float32)
    ck = CheckpointedChunk(cfg, recompute=True)
    _, state = ck.fwd(1, w, x, cos, sin)
    a = np.random.default_rng(0).standard_normal((1024, 1024)).astype(np.float32)
    out = np.empty_like(a)

    def scaled(fn):
        """Seconds of ``fn`` times the burst's matmuls per second."""
        t0, n = perf_counter(), 0
        while perf_counter() - t0 < 0.02:
            np.matmul(a, a, out=out)
            n += 1
        rate = n / (perf_counter() - t0)
        t0 = perf_counter()
        fn()
        return (perf_counter() - t0) * rate

    fwd, replay = [], []
    for _ in range(9):
        fwd.append(scaled(lambda: ck.fwd(1, w, x, cos, sin)))
        replay.append(scaled(lambda: ck._materialize(1, w, _copy_of(state))))
    assert ck.replayed == 9
    assert statistics.median(replay) < 0.6 * statistics.median(fwd)
