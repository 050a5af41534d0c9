"""fp32 stays fp32: every array a compute path produces has ``cfg.dtype``.

Under NumPy >= 2 promotion (NEP 50) a NumPy *scalar* is not weak:
``float32_array * np.float64(x)`` is float64.  One ``1.0 / np.sqrt(d)``
in the attention core once ran everything downstream of it — the rest
of the layer, every later layer, the head and half the weight gradients —
in fp64 with an fp64 x fp32 cast per GEMM.  These checks walk every
output, cache and gradient, so a promotion anywhere fails loudly.
"""

import numpy as np
import pytest

from repro import FP32, FP64, Adam, TrainSpec, train
from repro.nn import ModelConfig, init_model, model_loss_and_grads, rope_tables
from repro.nn.layer import layer_bwd_input, layer_bwd_weight, layer_fwd
from repro.nn.model import chunk_bwd, chunk_fwd
from repro.parallel import common
from repro.parallel.sequence_parallel import SPSeam
from repro.parallel.tensor_parallel import TPSeam, split_layer_weights
from repro.runtime.launcher import run_workers

RNG = np.random.default_rng(5)

DTYPES = pytest.mark.parametrize("dtype", [np.float32, np.float64])
FLASH = pytest.mark.parametrize("flash", [True, False])


def _cfg(dtype, flash):
    return ModelConfig(
        hidden=16, n_layers=2, n_heads=2, seq_len=8, vocab=17,
        flash_attention=flash, flash_block=4, dtype=dtype,
    )


def float_dtypes(obj):
    """Dtypes of every floating ndarray / NumPy scalar reachable from
    ``obj`` through tuples, lists, dicts and ParamStructs."""
    found = set()
    stack = [obj]
    while stack:
        item = stack.pop()
        if isinstance(item, (np.ndarray, np.generic)):
            if np.issubdtype(item.dtype, np.floating):
                found.add(item.dtype)
        elif isinstance(item, (tuple, list)):
            stack.extend(item)
        elif hasattr(item, "values"):  # dict, ParamStruct
            stack.extend(item.values())
    return found


@DTYPES
@FLASH
def test_layer_passes_preserve_dtype(dtype, flash):
    cfg = _cfg(dtype, flash)
    w = init_model(cfg, seed=1)[0]
    cos, sin = rope_tables(cfg)
    x = RNG.normal(size=(2, cfg.seq_len, cfg.hidden)).astype(dtype)

    y, cache = layer_fwd(
        w, x, cfg.n_heads, cos, sin, flash, cfg.flash_block
    )
    dx, wcache = layer_bwd_input(w, np.ones_like(y), cache)
    grads = layer_bwd_weight(cache, wcache)

    want = {np.dtype(dtype)}
    for name, obj in (
        ("y", y), ("cache", cache), ("dx", dx),
        ("wcache", wcache), ("grads", grads),
    ):
        assert float_dtypes(obj) == want, name


@DTYPES
@FLASH
def test_model_loss_and_grads_preserve_dtype(dtype, flash):
    cfg = _cfg(dtype, flash)
    chunks = init_model(cfg, seed=1)
    tokens = RNG.integers(0, cfg.vocab, size=(2, cfg.seq_len))
    _, grads = model_loss_and_grads(cfg, chunks, tokens, tokens)
    assert float_dtypes(grads) == {np.dtype(dtype)}


@DTYPES
@FLASH
def test_tensor_and_sequence_parallel_layers_preserve_dtype(dtype, flash):
    """The TP and SP seams on the shared chunk code: a forward and a
    backward of every chunk through each seam, on two ranks."""
    # SP's seam owns the attention core; flash only selects TP's kernel.
    policy = FP32 if dtype == np.float32 else FP64
    spec = TrainSpec(cfg=_cfg(dtype, flash), precision=policy)
    cfg = spec.cfg
    tokens = RNG.integers(0, cfg.vocab, size=(2, cfg.seq_len))
    cos, sin = spec.rope()

    def passes(chunks, x, cos, sin, seam):
        caches, outs = [], []
        for i, w in enumerate(chunks):
            x, cache = chunk_fwd(cfg, i, w, x, cos, sin, seam=seam(i))
            caches.append(cache)
        dy = np.ones_like(x)
        for i in reversed(range(cfg.n_layers)):
            dy, grads = chunk_bwd(cfg, i, chunks[i], dy, caches[i])
            outs.append((dy, grads))
        return float_dtypes((x, caches, outs))

    def probe(comm):
        full = init_model(cfg, seed=1)
        shards = [split_layer_weights(c, comm.rank, comm.world_size) for c in full]
        found = passes(
            shards, tokens, cos, sin, lambda i: TPSeam(comm, spec, (0, 0, i))
        )
        sl = slice(comm.rank * cfg.seq_len // 2, (comm.rank + 1) * cfg.seq_len // 2)
        return found | passes(
            full, tokens[:, sl], cos[sl], sin[sl],
            lambda i: SPSeam(comm, spec, (0, 0, i)),
        )

    for found in run_workers(2, probe):
        assert found == {np.dtype(dtype)}


def test_fp32_serial_training_stays_fp32(monkeypatch):
    """One fp32 ``train`` call: the raw per-microbatch gradients (before
    they are folded into the fp32 accumulator, which would hide a
    promotion) and the final weights are all float32."""
    seen = set()
    quantize_grads = common.quantize_grads

    def spy(grads, policy):
        seen.update(float_dtypes(grads))
        return quantize_grads(grads, policy)

    monkeypatch.setattr(common, "quantize_grads", spy)
    spec = TrainSpec(
        cfg=_cfg(np.float32, flash=True), n_microbatches=2, iters=2,
        precision=FP32, make_optimizer=lambda: Adam(lr=1e-3),
    )
    result = train(spec, "serial", 1)
    assert seen == {np.dtype(np.float32)}
    assert float_dtypes(result.chunks) == {np.dtype(np.float32)}
