"""A resumed optimizer state reaches every strategy.

Serial trains two iterations with Adam; every strategy in the zoo then
resumes from serial's weights and optimizer state (``initial_chunks`` /
``initial_opt_state``) and must land where serial's own resumed run
lands, at ``test_equivalence.py``'s FP64 tolerance.  A strategy that
drops the state and resumes from a fresh one lands ~1e-2 away.
"""

from dataclasses import replace

import pytest

from repro import FP64, Adam, ModelConfig, TrainSpec, train
from repro.core import ZOO
from repro.testing import compare_train_results

CFG = ModelConfig(hidden=16, n_layers=4, n_heads=2, seq_len=8, vocab=29)
#: test_equivalence.py's assert_matches: rtol 1e-9, atol 1e-11.
TOL = (1e-9, 1e-11, 0.0, 0.0)


@pytest.fixture(scope="module")
def resumed():
    spec = TrainSpec(cfg=CFG, n_microbatches=8, microbatch_size=2, iters=2,
                     precision=FP64, make_optimizer=lambda: Adam(lr=1e-2))
    first = train(spec, "serial", 1)
    spec = replace(spec, initial_chunks=first.chunks,
                   initial_opt_state=first.extra["opt_state"], start_iteration=2)
    return spec, train(spec, "serial", 1)


@pytest.mark.parametrize("name", list(ZOO))
def test_resume_matches_serial(name, resumed):
    spec, ref = resumed
    s = ZOO[name]
    world = 1 if s.family == "serial" else s.differential_world or 4
    got = train(spec, name, world)
    assert compare_train_results(got, ref, tol=TOL) is None
