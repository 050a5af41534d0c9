"""Properties of the pipeline stage programs, and their three consumers.

``stage_program`` is a pure function, so — like ``tests/core/test_schedule.py``
does for the ring — we verify exhaustively what the stage worker relies on:

* completeness — every microbatch gets exactly one ``F``, one ``B``, and
  one ``W`` iff the schedule splits its backward;
* ordering — ``F < B < W`` per microbatch, and each kind in microbatch
  order (the ``("act", it, mb)`` / ``("bgrad", it, mb)`` channels are FIFO);
* liveness — the ``P`` programs run to completion under the fabric's
  semantics (buffered send, blocking receive);
* the documented peaks of the one liveness walk.

Then that the runtime and the DES builder read this description rather
than a copy of it (the memory model's reading is ``tests/sim/test_memory.py``),
and that every record — each runs the shared loop's op bodies — traces
its own ``core.api.rank_programs`` program.
"""

from itertools import product

import pytest

from repro import FP64, ModelConfig, Tracer, TrainSpec, train
from repro.core.api import ZOO, rank_programs
from repro.core.schedule import liveness, ring_schedule, turn_ops
from repro.parallel.pipeline import PIPELINE_SCHEDULES, splits_backward, stage_program
from repro.runtime import Fabric
from repro.sim.costmodel import ExecConfig, WorkloadDims
from repro.sim.engine import simulate
from repro.sim.hardware import nvlink_cluster
from repro.sim.schedules import build_schedule

SCHEDULES = list(PIPELINE_SCHEDULES)
#: every test below also sweeps N in 1..12 (and every rank) per cell.
GRID = list(product(SCHEDULES, range(1, 7)))
N_MBS = range(1, 13)
CFG = ModelConfig(hidden=16, n_layers=4, n_heads=4, seq_len=8, vocab=23)
#: every record on a traced fabric: serial on its one rank, the others
#: at two world sizes.
TRACED = [
    (name, world, n_mb)
    for name, s in ZOO.items()
    for world, n_mb in ([(1, 4)] if s.family == "serial" else [(2, 4), (4, 8)])
]


def peaks(program):
    """Per-field maxima ``(held, pending)`` of the program's walk."""
    held, pending = zip(*liveness(program))
    return max(held), max(pending)


def run_programs(schedule, world, n_mb):
    """Execute the ``world`` programs together: a send is buffered, ``F``
    on stage ``r > 0`` blocks until stage ``r-1`` ran that ``F``, ``B`` on
    stage ``r < P-1`` until stage ``r+1`` ran that ``B``.  Returns False on
    deadlock."""
    programs = [stage_program(schedule, world, r, n_mb) for r in range(world)]
    pc = [0] * world
    done = set()
    progressed = True
    while progressed:
        progressed = False
        for r, prog in enumerate(programs):
            while pc[r] < len(prog):
                kind, mb = prog[pc[r]]
                if kind == "F" and r > 0 and ("F", r - 1, mb) not in done:
                    break
                if kind == "B" and r < world - 1 and ("B", r + 1, mb) not in done:
                    break
                done.add((kind, r, mb))
                pc[r] += 1
                progressed = True
    return all(pc[r] == len(programs[r]) for r in range(world))


class TestProgramProperties:
    @pytest.mark.parametrize("schedule, world", GRID)
    def test_complete_and_ordered(self, schedule, world):
        kinds = "FBW" if splits_backward(schedule) else "FB"
        for n_mb, rank in product(N_MBS, range(world)):
            prog = stage_program(schedule, world, rank, n_mb)
            for kind in "FBW":
                mbs = [mb for k, mb in prog if k == kind]
                # exactly once each, in microbatch order
                assert mbs == (list(range(n_mb)) if kind in kinds else []), (n_mb, rank)
            pos = {op: i for i, op in enumerate(prog)}
            for mb in range(n_mb):
                order = [pos[(kind, mb)] for kind in kinds]
                assert order == sorted(order), (n_mb, rank, mb)

    @pytest.mark.parametrize("schedule, world", GRID)
    def test_no_deadlock(self, schedule, world):
        for n_mb in N_MBS:
            assert run_programs(schedule, world, n_mb), n_mb

    @pytest.mark.parametrize("schedule, world", GRID)
    def test_walked_liveness_matches_closed_forms(self, schedule, world):
        depth, _ = PIPELINE_SCHEDULES[schedule]
        for n_mb, rank in product(N_MBS, range(world)):
            prog = stage_program(schedule, world, rank, n_mb)
            walked = list(liveness(prog))
            assert walked[-1] == (0, 0), (n_mb, rank)
            held, pending = peaks(prog)
            if schedule == "gpipe":
                assert held == n_mb, (n_mb, rank)
            if schedule == "1f1b":
                assert held == min(n_mb, world - rank), (n_mb, rank)
            if splits_backward(schedule):
                # the warmup, one steady-state forward, and each W one B
                # behind
                assert held == min(n_mb, depth(world, rank, n_mb) + 1), (n_mb, rank)
                assert pending == min(n_mb, 2), (n_mb, rank)
            else:
                assert pending == 0, (n_mb, rank)

    def test_unknown_schedule(self):
        with pytest.raises(ValueError, match="unknown pipeline schedule"):
            stage_program("2f2b", 4, 0, 8)


class TestConsumersReadTheProgram:
    @pytest.mark.parametrize("name, world, n_mb", TRACED)
    def test_runtime_ledgers_and_span_order(self, name, world, n_mb):
        """Every rank of every record traces the ops of its
        ``core.api.rank_programs`` program in order, and a ring's each in
        the turn the ring's table puts it."""
        spec = TrainSpec(
            cfg=CFG, n_microbatches=n_mb, microbatch_size=2, iters=2, precision=FP64
        )
        tracer = Tracer()
        result = train(spec, name, world, fabric=Fabric(world, tracer=tracer))
        events = list(tracer.events())
        record = ZOO[name]
        programs, _ = rank_programs(name, world, n_mb)
        for rank, prog in enumerate(programs):
            if record.family in ("pipeline", "ring"):
                # the ledgers count units: the walk's per-field maxima
                assert (
                    result.extra["peak_inflight"][rank],
                    result.extra["peak_pending_w"][rank],
                ) == peaks(prog)
            elif "microbatches" in record.divides:
                # a dp / fsdp rank's unit k is its microbatch r + kP
                prog = [(kind, rank + k * world) for kind, k in prog]
            ops = [
                e for e in events
                if e["pid"] == rank and e["cat"] == "compute"
                and e["name"] not in ("accum", "update")  # the ring's D work
            ]
            if record.family == "ring":
                total, task_fn = ring_schedule(record.schedule, world, n_mb)
                turns = [
                    (t, kind, unit)
                    for t in range(total) for kind, unit in turn_ops(task_fn(rank, t))
                ]
                assert [(kind, unit) for _, kind, unit in turns] == prog
                spans = [
                    (e["args"]["turn"], e["name"], (e["args"]["slot"], e["args"]["mb"]))
                    for e in ops
                ]
                assert spans == turns * spec.iters
                continue
            spans = [(e["args"]["it"], e["name"], e["args"]["mb"]) for e in ops]
            assert spans == [
                (it, kind, mb) for it in range(spec.iters) for kind, mb in prog
            ]
        iterations = [e for e in events if e["name"] == "iteration"]
        assert len(iterations) == world * spec.iters
        if record.family == "pipeline":
            assert all(e["args"]["schedule"] == record.schedule for e in iterations)

    @pytest.mark.parametrize("overlap", [True, False])
    @pytest.mark.parametrize("world, n_mb", [(1, 3), (2, 4), (4, 8), (6, 5)])
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_des_stage_order(self, schedule, world, n_mb, overlap):
        dims = WorkloadDims(
            hidden=64, n_layers=world, seq_len=128, microbatch=1, n_microbatches=n_mb
        )
        exec_cfg = ExecConfig(recompute=not splits_backward(schedule), overlap=overlap)
        built = build_schedule(schedule, dims, nvlink_cluster(world, world), exec_cfg)
        sim = simulate(built.graph)
        for rank in range(world):
            ran = sorted(
                (t for t in built.graph.tasks.values() if t.meta.get("worker") == rank),
                key=lambda t: sim.start[t.id],
            )
            assert [(t.meta["kind"], t.meta["mb"]) for t in ran] == stage_program(
                schedule, world, rank, n_mb
            )
