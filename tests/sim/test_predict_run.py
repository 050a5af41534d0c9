"""The one wall model: a calibrated GPU through the DES builders.

``CostModel.calibrated`` fits a GPU to a measured layer forward; the
schedule builders re-create their ``CostModel`` from ``cluster.gpu``, so
the per-op overhead must ride on the device — the A800 keeps its
1.5 ms, a calibrated GPU has none — or every op of a predicted run is
priced ``OP_OVERHEAD`` above the measurement it was fitted to.
"""

import pytest

from repro.runtime import LinkSpec
from repro.sim import A800, Cluster, WorkloadDims, build_schedule, run_cell
from repro.sim.costmodel import CostModel, ExecConfig
from repro.sim.hardware import OP_OVERHEAD
from repro.sim.runner import FREE_LINK, predict_run

DIMS = WorkloadDims(hidden=64, n_layers=4, seq_len=32, microbatch=2,
                    n_microbatches=4, n_heads=2, vocab=64)
NOREC = ExecConfig(recompute=False)
T_FWD = 2.5e-3


def _calibrated_cluster(world: int) -> Cluster:
    return Cluster(gpu=CostModel.calibrated(DIMS, T_FWD, NOREC).gpu, nodes=1,
                   gpus_per_node=world, intra=FREE_LINK, inter=FREE_LINK)


@pytest.mark.parametrize("world", [1, 2])
@pytest.mark.parametrize("schedule", ["gpipe", "1f1b"])
def test_a_calibrated_gpu_keeps_its_calibration_through_the_builder(
        schedule, world):
    built = build_schedule(schedule, DIMS, _calibrated_cluster(world), NOREC)
    layers = DIMS.n_layers // world
    forwards = [t for t in built.graph.tasks.values() if t.meta.get("kind") == "F"]
    assert len(forwards) == world * DIMS.n_microbatches
    assert all(t.duration == pytest.approx(layers * T_FWD, rel=1e-12)
               for t in forwards)


def test_the_1f1b_makespan_is_the_calibrated_closed_form():
    """On free links 1F1B runs ``N + P - 1`` F + B slots of ``3 L/P``
    forwards each — exactly, with no overhead per op."""
    world = 2
    rep = run_cell("1f1b", DIMS, _calibrated_cluster(world), NOREC)
    steps = DIMS.n_microbatches + world - 1
    assert rep.makespan == pytest.approx(
        steps * 3 * (DIMS.n_layers // world) * T_FWD, rel=1e-12)


def test_the_a800_keeps_its_op_overhead():
    cm = CostModel(DIMS, A800, NOREC)
    flops_s = cm.flops_fwd_layer() / (A800.flops * cm.efficiency())
    assert A800.op_overhead == OP_OVERHEAD == 1.5e-3
    assert cm.t_fwd_layer() == pytest.approx(flops_s + OP_OVERHEAD)
    assert CostModel.calibrated(DIMS, T_FWD, NOREC).gpu.op_overhead == 0.0


def test_predict_run_fits_its_model_and_prices_the_charged_links():
    run = {"strategy": "weipipe-interleave", "world": 2, "recompute": False,
           "dims": {"hidden": 64, "n_layers": 4, "seq_len": 32,
                    "microbatch": 2, "n_microbatches": 4, "n_heads": 2,
                    "vocab": 64}}
    model, cluster, free = predict_run(run, T_FWD)
    assert model.t_fwd_layer() == pytest.approx(T_FWD)
    assert model.dims == DIMS and model.cfg.recompute is False
    assert cluster.intra is cluster.inter is FREE_LINK
    slow = LinkSpec("slow", bandwidth=1e6, latency=1e-4)
    run["links"] = {"intra": slow.as_dict(), "inter": slow.as_dict()}
    _, cluster, priced = predict_run(run, T_FWD)
    assert cluster.inter == slow
    assert priced.makespan > free.makespan
    assert priced.comm_bytes_total == free.comm_bytes_total > 0


def test_predict_run_prices_the_bytes_a_default_spec_posts():
    """A default ``TrainSpec`` keeps float64 arrays under the FP32 policy,
    whose wire ledgers 4-byte activations: the trace records the policy's
    widths, so the run's DES prices what the message table (and the
    wire) says one iteration posts, not the arrays' 8 bytes."""
    from repro import ModelConfig, TrainSpec
    from repro.obs import trace_metadata
    from repro.testing import table_ledger

    spec = TrainSpec(cfg=ModelConfig(hidden=16, n_layers=4, n_heads=2, seq_len=16,
                                     vocab=17), n_microbatches=4, microbatch_size=2)
    rep = predict_run(trace_metadata("1f1b", 2, spec), T_FWD)[2]
    assert rep.comm_bytes_total == table_ledger("1f1b", spec, 2)["iteration"] == 16400
