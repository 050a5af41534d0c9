"""How many chunk forwards one iteration really runs, per strategy.

With recomputation on, a backward whose forward was the worker's very
previous checkpointed op takes the cache that forward left instead of
replaying it (``repro.nn.checkpoint``): once per microbatch on every
strategy whose newest forward is also its next backward — not GPipe,
whose first backward is microbatch 0, nor ZB1 / ZB2, whose last stage
forwards the next microbatch before each B.  The checkpoint rule
(``replayed_chunks`` over ``rank_programs``) predicts the counts
exactly, and ``TrainResult.extra["recompute"]`` must agree with it and
with a spy on the one function a replay calls.

A replay is also smaller than a forward: the checkpoint kept the
streaming attention core's output, so the core runs in forwards only,
and the GEMM whose result only the chunk output needs is not issued.
"""

import threading

import numpy as np
import pytest

import repro.nn.checkpoint as checkpoint_mod
import repro.nn.functional as functional_mod
import repro.nn.layer as layer_mod
from repro import FP64, ModelConfig, TrainSpec, train
from repro.core.api import rank_programs, strategy_names
from repro.nn.checkpoint import replayed_chunks
from repro.parallel.elastic import train_elastic
from repro.sim.runner import exec_for

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
    ("zb1", 2),
    ("zb2", 4),
]

#: the cells' kept caches, by hand: one per microbatch but where the
#: newest forward is never the next backward's.
KEPT = {"gpipe": 0, "zb1": 0, "zb2": 0}


def rule(strategy, world):
    """The checkpoint rule's ledger for one iteration of ``strategy``."""
    programs, units = rank_programs(strategy, world, N)
    replayed = sum(sum(replayed_chunks(ops, L // units)) for ops in programs)
    return {"replayed": replayed, "kept": N * L - replayed}


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


def _train(strategy, world, recompute, flash=False):
    cfg = ModelConfig(hidden=16, n_layers=L, n_heads=2, seq_len=8, vocab=17,
                      flash_attention=flash)
    spec = TrainSpec(cfg=cfg, n_microbatches=N, microbatch_size=1, iters=1,
                     recompute=recompute, precision=FP64)
    return train(spec, strategy, world)


@pytest.mark.parametrize("strategy,world", CELLS)
def test_recompute_replays_all_but_the_newest_forward(strategy, world, forwards):
    res = _train(strategy, world, recompute=True)
    kept = KEPT.get(strategy, N)
    assert len(forwards) == 2 * N * L - kept
    assert res.extra["recompute"] == {"replayed": N * L - kept, "kept": kept}
    assert res.extra["recompute"] == rule(strategy, world)
    assert np.isfinite(res.losses[0])


@pytest.mark.parametrize("strategy", ["1f1b", "weipipe-interleave"])
def test_the_elastic_ledger_sums_its_steps_like_the_plain_call(strategy):
    """``train_elastic`` (``--checkpoint-every`` / ``--resume``) runs one
    loop per step: its ledger is theirs summed over steps and ranks."""
    cfg = ModelConfig(hidden=16, n_layers=L, n_heads=2, seq_len=8, vocab=17)
    spec = TrainSpec(cfg=cfg, n_microbatches=N, microbatch_size=1, iters=2,
                     recompute=True, precision=FP64)
    plain = train(spec, strategy, 2)
    elastic = train_elastic(spec, strategy, 2)
    assert elastic.extra["recompute"] == plain.extra["recompute"]
    assert plain.extra["recompute"]["replayed"] > 0


@pytest.mark.parametrize("strategy", strategy_names(full_cache=True))
def test_full_cache_runtimes_are_priced_without_recompute(strategy):
    """TP and SP keep full caches: their runtimes refuse ``recompute``, and
    the simulator's policy runs them without it."""
    with pytest.raises(ValueError, match="recomputation"):
        _train(strategy, 2, recompute=True)
    assert not exec_for(strategy).recompute


@pytest.mark.parametrize("strategy,world", CELLS)
def test_without_recompute_every_chunk_forwards_once(strategy, world, forwards):
    res = _train(strategy, world, recompute=False)
    assert len(forwards) == N * L
    assert res.extra["recompute"] == {"replayed": 0, "kept": 0}


@pytest.mark.parametrize("strategy,world", CELLS)
def test_a_replay_skips_the_attention_core_and_the_output_gemm(
    strategy, world, monkeypatch
):
    """Counts, no clock: the streaming core runs ``N L`` times a step
    (it was once more per replay), and per chunk forward ``linear_fwd``
    is issued 7 times (q k v o gate up down; +1 for the logits on the
    last chunk), per replay 6 — no down projection — or on the last
    chunk, whose final norm reads the layer output, 7: no logits."""
    here = threading.local()  # the thread backend's ranks share the module
    cores, gemms = [], []

    real_core = layer_mod.flash_attention_fwd
    real_linear = functional_mod.linear_fwd
    real_chunk = checkpoint_mod.chunk_fwd

    def core(*a, **k):
        cores.append(1)
        return real_core(*a, **k)

    def linear(*a, **k):
        here.n = getattr(here, "n", 0) + 1
        return real_linear(*a, **k)

    def chunk(cfg, idx, *a, replay=None, **k):
        before = getattr(here, "n", 0)
        out = real_chunk(cfg, idx, *a, replay=replay, **k)
        gemms.append((idx == L - 1, replay is not None, here.n - before))
        return out

    monkeypatch.setattr(layer_mod, "flash_attention_fwd", core)
    monkeypatch.setattr(functional_mod, "linear_fwd", linear)
    monkeypatch.setattr(checkpoint_mod, "chunk_fwd", chunk)

    res = _train(strategy, world, recompute=True, flash=True)
    kept = KEPT.get(strategy, N)
    assert res.extra["recompute"] == {"replayed": N * L - kept, "kept": kept}
    assert len(cores) == N * L
    issued = {(last, replayed): set() for last in (0, 1) for replayed in (0, 1)}
    for last, replayed, n in gemms:
        issued[last, replayed].add(n)
    assert issued[False, False] == {7} and issued[True, False] == {8}
    assert issued[False, True] == {6}
    # the last chunk replays only where no cache is kept: elsewhere it is
    # the kept one
    assert issued[True, True] == ({7} if strategy in KEPT else set())
    assert sum(r for _, r, _ in gemms) == N * L - kept
