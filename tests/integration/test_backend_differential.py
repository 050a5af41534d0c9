"""Backend differential: every strategy, thread vs process, bit for bit.

A transport changes how frames move between ranks, never what is
computed — so the process backend must reproduce the thread backend's
loss curves and final weights *exactly*, across every strategy, world
size and precision (satellite gate for the pluggable transport layer;
see DESIGN.md §14).  The companion pool test is the per-backend
zero-steady-state-allocation gate: after warmup neither backend's
BufferPool may keep allocating.

Every cell of the matrix is also gated on the message table (DESIGN
§23): both wires' per-kind byte and message ledgers, and the DES's bytes
per iteration, equal what the strategy's ``POSTS`` rows say.  The
records the matrix leaves out get that gate on the thread wire here.
"""

from dataclasses import replace

import pytest

from repro import FP32, FP64, ModelConfig, TrainSpec, train
from repro.core.api import ZOO
from repro.nn.params import BufferPool
from repro.runtime import Fabric, ProcessTransport, Topology
from repro.testing import (
    check_ledger,
    compare_train_results,
    default_differential_spec,
    default_differential_strategies,
    run_backend_differential,
    table_ledger,
)


def test_backend_differential_all_strategies_bitwise():
    report = run_backend_differential()
    # every strategy x each world <= its cap x fp64/fp32: 8 strategies,
    # TP capped at P=2 on the default 2-head model -> 30 cells.
    expected = sum(
        len([w for w in (2, 4) if w <= cap]) * 2
        for cap in default_differential_strategies().values()
    )
    assert report.runs == expected
    assert report.ok, report.summary()


#: the simulated records the default matrix leaves out, at each world
#: they run at; ``weipipe-hier`` at P = 4 on its 2x2 grid, checked per
#: link class.
LEFT_OUT = [(name, world) for name in ("gpipe", "zb2", "dp", "weipipe-hier")
            for world in (2, 4)]


@pytest.mark.parametrize("precision", [FP64, FP32], ids=["fp64", "fp32"])
@pytest.mark.parametrize("name, world", LEFT_OUT)
def test_message_table_gates_the_records_the_matrix_leaves_out(name, world, precision):
    assert name not in default_differential_strategies()
    spec = replace(default_differential_spec(), precision=precision)
    topology = Topology.grid(world, "2x2") if ZOO[name].hier and world == 4 else None
    wire = Fabric(world, topology=topology)
    train(spec, name, world, fabric=wire)
    assert check_ledger(name, spec, world, wire, topology) is None
    if topology is not None:  # both link classes carry traffic, refs cross
        links = table_ledger(name, spec, world, topology)["link"]
        assert set(links) == {"intra", "inter"}
        assert links["inter"][0] < links["intra"][0]


def test_message_table_gate_catches_a_drifted_row(monkeypatch):
    """A row that misstates its size — the ring's D at the arrays' 8-byte
    width, not the fp32 wire's 4 — fails the gate."""
    from repro.core.weipipe import RingLoop

    spec = replace(default_differential_spec(), precision=FP32)
    wire = Fabric(2)
    train(spec, "weipipe-interleave", 2, fabric=wire)
    rows = tuple(replace(p, width="dtype") if p.kind == "D" else p for p in RingLoop.POSTS)
    monkeypatch.setattr(RingLoop, "POSTS", rows)
    assert "wire ledger" in check_ledger("weipipe-interleave", spec, 2, wire)


def test_backend_differential_reports_divergence():
    # harness self-test: a strategy whose process run cannot match the
    # thread run must land in failures, not pass silently.  Different
    # data seeds guarantee different losses.
    from repro.testing import default_differential_spec

    spec = default_differential_spec()

    def lying_runner(cell_spec, world, fabric):
        from repro.core.api import ZOO
        from repro.runtime.transport import ProcessTransport

        if isinstance(fabric, ProcessTransport):
            from dataclasses import replace

            cell_spec = replace(cell_spec, data_seed=cell_spec.data_seed + 1)
        return train(cell_spec, "1f1b", world, fabric=fabric)

    import repro.core.api as api

    api.ZOO["_lying"] = api.Strategy("_lying", "pipeline", schedule="1f1b")
    try:
        report = run_backend_differential(
            strategies={"_lying": (2, lying_runner)}, worlds=(2,), precisions=("fp64",)
        )
    finally:
        del api.ZOO["_lying"]
    assert not report.ok
    assert "bitwise" in report.failures[0].message


def test_backend_pools_reach_steady_state():
    # small configuration on a quiet wire: the gate is about allocation
    # behaviour, not throughput.
    spec = TrainSpec(
        cfg=ModelConfig(hidden=16, n_layers=4, n_heads=2, seq_len=8, vocab=16),
        n_microbatches=8, microbatch_size=1, iters=6, seed=7, precision=FP64,
    )
    wires = {"thread": Fabric(4), "process": ProcessTransport()}
    results = {
        name: train(spec, "weipipe-interleave", 4, fabric=wire)
        for name, wire in wires.items()
    }
    assert compare_train_results(results["process"], results["thread"], tol=0) is None
    assert (wires["thread"].metrics.total("fabric_bytes_total")
            == wires["process"].metrics.total("fabric_bytes_total"))
    pools = {
        "thread": wires["thread"].shared_pool(BufferPool).as_dict(),
        "process": wires["process"].pool,
    }
    # the ring draws its slots from the pool at construction and refreshes
    # forward copies in place: zero allocations per iteration once warm.
    # the thread pool may demand a few stragglers while ranks interleave
    # (see tests/integration/test_overlap.py).
    allocs = {name: r.extra["pool_allocs_by_iter"] for name, r in results.items()}
    assert allocs["process"][-1] - allocs["process"][-2] == 0
    for name in ("thread", "process"):
        assert allocs[name][-1] - allocs[name][0] <= 4, (name, allocs[name])
        assert pools[name]["backend"] == name
        assert pools[name]["allocations"] > 0
    # the process pool draws its buffers from the shared arena.
    assert pools["process"].get("arena_used", 0) > 0
