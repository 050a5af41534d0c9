"""A rank draws only the weights it owns.

Every chunk has its own init stream, ``TrainSpec.init_chunks(ids)``
returns only what is asked for, and the ring / pipeline workers ask for
their own slot / stage — so across all ranks of a launch every chunk is
drawn exactly once, not once per rank.  The ring's forward copy reaches
its home through the inject path (``tests/integration`` keeps the result
bit-identical to serial; here the *work* is counted).
"""

import threading
from collections import Counter

import numpy as np
import pytest

from repro import FP32, FP64, MIXED, ModelConfig, ParamStruct, TrainSpec, train
from repro.core.weipipe import train_weipipe
from repro.nn.model import init_chunk
from repro.parallel import common
from repro.runtime import Topology

WORLD, LAYERS = 4, 8


def _spec(dtype=np.float64, precision=FP64, **kw):
    cfg = ModelConfig(
        hidden=16, n_layers=LAYERS, n_heads=2, seq_len=8, vocab=29, dtype=dtype
    )
    return TrainSpec(
        cfg=cfg, n_microbatches=WORLD, microbatch_size=1, iters=2,
        precision=precision, **kw,
    )


@pytest.fixture
def drawn(monkeypatch):
    """Counter of chunk indices drawn through ``init_chunk`` by any
    thread (workers of the thread backend share the interpreter)."""
    counts: Counter = Counter()
    lock = threading.Lock()

    def counting(cfg, seed, idx, *pool):
        with lock:
            counts[idx] += 1
        return init_chunk(cfg, seed, idx, *pool)

    monkeypatch.setattr(common, "init_chunk", counting)
    return counts


ONCE_EACH = {i: 1 for i in range(LAYERS)}


class TestEveryChunkIsDrawnOnce:
    @pytest.mark.parametrize(
        "strategy", ["weipipe-interleave", "weipipe-zb", "weipipe-naive", "1f1b"]
    )
    def test_flat_ring_and_pipeline(self, drawn, strategy):
        train(_spec(), strategy, WORLD)
        assert dict(drawn) == ONCE_EACH

    def test_hier_ring(self, drawn):
        train_weipipe(_spec(), WORLD, topology=Topology.grid(WORLD, "2x2"))
        assert dict(drawn) == ONCE_EACH

    def test_serial_draws_the_model_once(self, drawn):
        train(_spec(), "serial", 1)
        assert dict(drawn) == ONCE_EACH

    def test_resumed_ring_draws_nothing(self, drawn):
        spec = _spec()
        start = spec.init_chunks()
        drawn.clear()
        train(_spec(initial_chunks=start), "weipipe-interleave", WORLD)
        assert not drawn


class TestInitChunksByIds:
    @pytest.mark.parametrize(
        "dtype,precision",
        [(np.float64, FP64), (np.float32, FP32), (np.float64, MIXED)],
        ids=["fp64", "fp32", "mixed"],
    )
    def test_subset_equals_the_full_list(self, dtype, precision):
        spec = _spec(dtype, precision)
        full = spec.init_chunks()
        assert len(full) == LAYERS
        ids = [5, 0, 7]
        for i, c in zip(ids, spec.init_chunks(ids)):
            assert c.keys() == full[i].keys()
            for k in c.keys():
                assert np.array_equal(c[k], full[i][k]), (i, k)

    def test_ids_draw_only_those(self, drawn):
        _spec().init_chunks([2, 3])
        assert dict(drawn) == {2: 1, 3: 1}

    def test_initial_chunks_clone_only_what_is_asked(self, monkeypatch):
        start = _spec().init_chunks()
        spec = _spec(initial_chunks=start)
        cloned = []
        real_clone = ParamStruct.clone

        def spy(self, pool=None):
            cloned.append(next(i for i, c in enumerate(start) if c is self))
            return real_clone(self, pool)

        monkeypatch.setattr(ParamStruct, "clone", spy)
        got = spec.init_chunks([6, 1])
        assert cloned == [6, 1]
        for i, c in zip([6, 1], got):
            for k in c.keys():
                assert np.array_equal(c[k], start[i][k])
                assert not np.shares_memory(c[k], start[i][k])

    def test_initial_chunks_must_match_the_model(self):
        spec = _spec(initial_chunks=_spec().init_chunks()[:-1])
        with pytest.raises(ValueError, match="initial_chunks"):
            spec.init_chunks([0])
