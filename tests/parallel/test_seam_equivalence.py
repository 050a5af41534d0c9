"""TP and SP run the serial chunk code through a seam.

At world 1 every seam point is a one-rank collective, so both strategies
must equal ``serial`` bit for bit, under every precision policy.  At
world 2 the wire ledger pins what the seams send: one all-reduce per
row-parallel output and column-parallel input gradient for TP, the K/V
all-gathers and dK/dV reduce-scatters for SP.
"""

import pytest

from repro import FP32, FP64, MIXED, ModelConfig, TrainSpec, train
from repro.runtime import Fabric
from repro.testing import compare_train_results

CFG = ModelConfig(hidden=16, n_layers=3, n_heads=4, seq_len=8, vocab=29, ffn=16)


def _spec(precision):
    return TrainSpec(cfg=CFG, n_microbatches=4, microbatch_size=2, iters=2,
                     precision=precision)


@pytest.mark.parametrize("precision", [FP32, FP64, MIXED], ids=["fp32", "fp64", "mixed"])
@pytest.mark.parametrize("strategy", ["tp", "sp"])
def test_world_one_is_serial_bit_for_bit(strategy, precision):
    ref = train(_spec(precision), "serial", 1)
    got = train(_spec(precision), strategy, 1)
    assert compare_train_results(got, ref, tol=0) is None


@pytest.mark.parametrize("strategy, nbytes, messages", [
    ("tp", 414_720, 387),
    ("sp", 401_952, 224),
])
def test_wire_ledger_at_world_two(strategy, nbytes, messages):
    fabric = Fabric(2)
    train(_spec(FP64), strategy, 2, fabric=fabric)
    assert fabric.metrics.total("fabric_bytes_total") == nbytes
    assert fabric.metrics.total("fabric_messages_total") == messages
