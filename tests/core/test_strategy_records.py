"""Every strategy record's fields say what the code does.

One parametrized check per :data:`repro.core.ZOO` record, at toy shapes:
each flag is read against the runtime, the elastic driver or the
simulator it describes, so a record that drifts from its code fails here
— there is no second table for it to agree with.
"""

from dataclasses import replace

import pytest

from repro import ModelConfig, TrainSpec, train, train_elastic
from repro.core import RING_SCHEDULES, ZOO
from repro.obs import Tracer
from repro.parallel.pipeline import PIPELINE_SCHEDULES
from repro.runtime import Fabric
from repro.sim import WorkloadDims, exec_for, nvlink_cluster, run_cell

CFG = ModelConfig(hidden=8, n_layers=2, n_heads=2, seq_len=4, vocab=11)
SPEC = TrainSpec(cfg=CFG, n_microbatches=2, microbatch_size=1, iters=1)
#: a spec whose size named by ``divides`` the world of 2 does not divide.
ODD = {
    "layers": replace(SPEC, cfg=replace(CFG, n_layers=3)),
    "heads": replace(SPEC, cfg=replace(CFG, hidden=12, n_heads=3)),
    "ffn": replace(SPEC, cfg=replace(CFG, ffn=15)),
    "seq": replace(SPEC, cfg=replace(CFG, seq_len=5)),
    "microbatches": replace(SPEC, n_microbatches=3),
}


def _world(s) -> int:
    return 1 if s.family == "serial" else 2


@pytest.mark.parametrize("name", list(ZOO))
def test_record_flags_match_the_code(name):
    s = ZOO[name]
    world = _world(s)
    assert s.name == name

    # full_cache <=> the runtime and the elastic driver refuse recompute;
    # every record trains under both
    for run in (train, train_elastic):
        if s.full_cache:
            with pytest.raises(ValueError, match="does not implement recomputation"):
                run(replace(SPEC, recompute=True), name, world)
        else:
            assert run(replace(SPEC, recompute=True), name, world).losses
        assert run(SPEC, name, world).losses
    assert exec_for(name).recompute == (not s.full_cache and not s.split_backward)

    # simulated => a traced run carries the spans reconcile() reads, so a
    # plan's live validation can gate it
    if s.simulated:
        tracer = Tracer()
        train(SPEC, name, world, fabric=Fabric(world, tracer=tracer))
        spans = {e["name"] for e in tracer.events()}
        assert {"F", "B", "iteration"} <= spans

    # divides <=> the runtime refuses a world that does not divide the
    # size, in the parent, before any worker starts
    for dim, spec in ODD.items():
        if dim in s.divides:
            with pytest.raises(ValueError, match="divisible"):
                train(spec, name, world)
        else:
            assert train(spec, name, world).losses


@pytest.mark.parametrize("name", list(ZOO))
def test_record_rows_exist_where_they_point(name):
    s = ZOO[name]
    if s.family == "ring":
        assert s.schedule in RING_SCHEDULES
    elif s.family == "pipeline":
        assert s.schedule in PIPELINE_SCHEDULES
    else:
        assert s.schedule is None and not s.hier

    dims = WorkloadDims(hidden=64, n_layers=4, seq_len=64, microbatch=1,
                        n_microbatches=4)
    cluster = nvlink_cluster(4, gpus_per_node=2)
    if s.simulated:
        assert run_cell(name, dims, cluster, exec_for(name)).makespan > 0
    else:
        with pytest.raises(ValueError, match="unknown simulated strategy"):
            run_cell(name, dims, cluster)
