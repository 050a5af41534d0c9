"""Microbenchmarks of the functional substrate (real wall-clock timings).

These measure the NumPy engine itself — layer forward/backward, flash
vs materialised attention, ring collectives, and a full WeiPipe
iteration on the message-passing runtime — so regressions in the
substrate show up as benchmark deltas.
"""

import numpy as np
import pytest

from repro import FP64, ModelConfig, TrainSpec, train
from repro.nn.attention import attention_fwd, flash_attention_fwd
from repro.nn.layer import init_layer_weights, layer_bwd, layer_fwd
from repro.nn.rope import rope_angles
from repro.runtime import all_reduce, run_workers

RNG = np.random.default_rng(0)


@pytest.fixture(scope="module")
def layer_setup():
    h, ffn, nh, s, g = 128, 344, 8, 256, 2
    w = init_layer_weights(h, ffn, RNG)
    x = RNG.normal(size=(g, s, h))
    cos, sin = rope_angles(s, h // nh)
    return w, x, nh, cos, sin


def test_layer_forward(benchmark, layer_setup):
    w, x, nh, cos, sin = layer_setup
    benchmark(lambda: layer_fwd(w, x, nh, cos, sin))


def test_layer_backward(benchmark, layer_setup):
    w, x, nh, cos, sin = layer_setup
    y, cache = layer_fwd(w, x, nh, cos, sin)
    dy = RNG.normal(size=y.shape)
    benchmark(lambda: layer_bwd(w, dy, cache))


def test_attention_materialised(benchmark):
    q = RNG.normal(size=(1, 8, 512, 32))
    k = RNG.normal(size=(1, 8, 512, 32))
    v = RNG.normal(size=(1, 8, 512, 32))
    benchmark(lambda: attention_fwd(q, k, v))


def test_attention_flash(benchmark):
    q = RNG.normal(size=(1, 8, 512, 32))
    k = RNG.normal(size=(1, 8, 512, 32))
    v = RNG.normal(size=(1, 8, 512, 32))
    benchmark(lambda: flash_attention_fwd(q, k, v, block=128))


def test_ring_all_reduce(benchmark):
    def run():
        return run_workers(
            4, lambda comm: all_reduce(comm, np.zeros(100_000))
        )

    benchmark.pedantic(run, rounds=3, iterations=1)


def _weipipe_iteration():
    cfg = ModelConfig(hidden=32, n_layers=4, n_heads=4, seq_len=32, vocab=64)
    spec = TrainSpec(
        cfg=cfg, n_microbatches=8, microbatch_size=2, iters=1, precision=FP64
    )
    return train(spec, "weipipe-interleave", 4)


def test_weipipe_functional_iteration(benchmark):
    result = benchmark.pedantic(_weipipe_iteration, rounds=3, iterations=1)
    assert len(result.losses) == 1


def _f1b1_functional_iteration():
    cfg = ModelConfig(hidden=32, n_layers=4, n_heads=4, seq_len=32, vocab=64)
    spec = TrainSpec(
        cfg=cfg, n_microbatches=8, microbatch_size=2, iters=1, precision=FP64
    )
    return train(spec, "1f1b", 4)


def test_1f1b_functional_iteration(benchmark):
    result = benchmark.pedantic(_f1b1_functional_iteration, rounds=3, iterations=1)
    assert len(result.losses) == 1


def _weipipe_zb_functional_iteration():
    cfg = ModelConfig(hidden=32, n_layers=4, n_heads=4, seq_len=32, vocab=64)
    spec = TrainSpec(
        cfg=cfg, n_microbatches=8, microbatch_size=2, iters=1, precision=FP64
    )
    return train(spec, "weipipe-zb", 4)


def test_weipipe_zb_functional_iteration(benchmark):
    result = benchmark.pedantic(
        _weipipe_zb_functional_iteration, rounds=3, iterations=1
    )
    assert len(result.losses) == 1
