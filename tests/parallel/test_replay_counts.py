"""How many chunk forwards one iteration really runs, per strategy.

With recomputation on, a backward whose forward was the worker's very
previous checkpointed op takes the cache that forward left instead of
replaying it (``repro.nn.checkpoint``): once per microbatch on every
strategy whose newest forward is also its next backward — all but
GPipe, whose first backward is microbatch 0.  The counts are exact, and
``TrainResult.extra["recompute"]`` must agree with a spy on the one
function a replay calls.
"""

import numpy as np
import pytest

import repro.nn.checkpoint as checkpoint_mod
from repro import FP64, ModelConfig, TrainSpec, train

L, N = 4, 4

CELLS = [
    ("serial", 1),
    ("dp", 2),
    ("fsdp", 2),
    ("1f1b", 2),
    ("1f1b", 4),
    ("weipipe-naive", 2),
    ("weipipe-interleave", 2),
    ("weipipe-interleave", 4),
    ("weipipe-zb", 2),
    ("weipipe-hier", 4),  # 2x2 groups
    ("gpipe", 2),
]


@pytest.fixture
def forwards(monkeypatch):
    """Counts calls of ``chunk_fwd`` made through the checkpoint (the
    thread backend runs every rank in this interpreter)."""
    calls = []
    real = checkpoint_mod.chunk_fwd

    def spy(cfg, idx, *a, **k):
        calls.append(idx)
        return real(cfg, idx, *a, **k)

    monkeypatch.setattr(checkpoint_mod, "chunk_fwd", spy)
    return calls


def _train(strategy, world, recompute):
    cfg = ModelConfig(hidden=16, n_layers=L, n_heads=2, seq_len=8, vocab=17)
    spec = TrainSpec(cfg=cfg, n_microbatches=N, microbatch_size=1, iters=1,
                     recompute=recompute, precision=FP64)
    return train(spec, strategy, world)


@pytest.mark.parametrize("strategy,world", CELLS)
def test_recompute_replays_all_but_the_newest_forward(strategy, world, forwards):
    res = _train(strategy, world, recompute=True)
    kept = 0 if strategy == "gpipe" else N
    assert len(forwards) == 2 * N * L - kept
    assert res.extra["recompute"] == {"replayed": N * L - kept, "kept": kept}
    assert np.isfinite(res.losses[0])


@pytest.mark.parametrize("strategy,world", CELLS)
def test_without_recompute_every_chunk_forwards_once(strategy, world, forwards):
    res = _train(strategy, world, recompute=False)
    assert len(forwards) == N * L
    assert res.extra["recompute"] == {"replayed": 0, "kept": 0}
