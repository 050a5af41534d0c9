"""Properties of the ring turn table, and its consumers.

The ring twin of ``tests/parallel/test_pipeline_program.py``.  Every row
of ``RING_SCHEDULES`` is *symbolically executed* the way the one ring
engine runs it (``_WeiPipeWorker._ring_turns``): ``P`` straight-line
per-rank programs of blocking waits, buffered sends and the turn's ops in
``turn_ops`` order, with the slots tracked as the objects that actually
travel — not through the placement law — so what is checked is what the
engine relies on:

* no deadlock under buffered-send / blocking-consume, at either posting
  point (``overlap`` early or late);
* exactly ``2 W + 1 D`` per hop per turn;
* every op finds the slot it names in its hands, and the circulating
  ``D`` of that slot under every weight-gradient contribution;
* F before B per (microbatch, chunk), forwards in layer order, backwards
  in reverse; on split rows each B has exactly one W, on the same worker
  and slot, exactly ``P`` turns later (Zero Bubble's B-before-W);
* every slot home at iteration end, each ``D`` holding one contribution
  per microbatch per chunk.

Then that the runtime, the DES builder and the memory walk all read this
table rather than a copy of it — and that the planner has no time model
of its own: its number for a whole-world plan is the DES's for the same
table cell.
"""

from collections import Counter
from importlib import import_module
from itertools import product
from types import SimpleNamespace

import pytest

from repro import FP64, ModelConfig, Tracer, TrainSpec, train
from repro.core.api import RING_STRATEGIES
from repro.core.schedule import (
    RING_SCHEDULES,
    TurnTask,
    bwd_home,
    bwd_slot_held,
    fwd_home,
    fwd_slot_held,
    liveness,
    ring_program,
    ring_schedule,
    ring_splits_backward,
    turn_ops,
)
from repro.core.weipipe import slot_chunk_ids
from repro.experiments.configs import (
    TABLE2_ROWS,
    TABLE3_ROWS,
    exec_for,
    make_dims,
    table2_cluster,
    table3_cluster,
)
from repro.plan import ClusterSpec, ModelSpec, PlanSpec, evaluate_candidate
from repro.plan.search import Candidate
from repro.runtime import WREF_NBYTES, Fabric
from repro.sim import SIM_STRATEGIES, run_cell
from repro.sim.costmodel import CostModel, ExecConfig, WorkloadDims
from repro.sim.engine import simulate
from repro.sim.hardware import pcie_ethernet_cluster

MODES = list(RING_SCHEDULES)
#: mode x P <= 5 x L/P <= 2; every test sweeps N in {P, 2P, 3P} per cell.
GRID = list(product(MODES, range(1, 6), (1, 2)))


def table_ops(mode, world, n_mb, worker):
    """Worker's flat op sequence ``(turn, kind, slot, mb)`` off the table."""
    total, task_fn = ring_schedule(mode, world, n_mb)
    return [
        (t, kind, slot, mb)
        for t in range(total)
        for kind, (slot, mb) in turn_ops(task_fn(worker, t))
    ]


def execute(mode, world, lps, n_mb, early):
    """Run the ``world`` rank programs together; returns the ledgers, or
    None on deadlock.

    A rank's program per turn ``t`` is the engine's: wait F and B (tag
    ``t``), [early: forward the held F and B as tag ``t + 1``], the
    turn's ops, wait D, add the turn's weight grads into it, [late:
    forward F and B], send D — and the final hop ``t == total`` only
    waits.  A send is buffered; a wait blocks until its message exists.
    """
    total, task_fn = ring_schedule(mode, world, n_mb)
    split = ring_splits_backward(mode)
    n_layers = world * lps
    # what each rank holds: slot ids travel, D is a Counter of chunk ids.
    held = [
        {"F": fwd_slot_held(p, 0, world), "B": bwd_slot_held(p, 0, world)}
        for p in range(world)
    ]
    for p in range(world):
        held[p]["D"] = (held[p]["B"], Counter())
    mailbox = {}  # (dst, flow, turn) -> payload
    sent = Counter()  # (src, dst, turn) -> flows
    done = [set() for _ in range(world)]  # (kind, mb, chunk)
    b_turn, w_turn = {}, {}

    def send(p, flow, t):
        dst = (p + 1) % world
        mailbox[(dst, flow, t)] = held[p][flow]
        sent[(p, dst, t, flow)] += 1

    def run_ops(p, t):
        grads = []
        for kind, (slot, mb) in turn_ops(task_fn(p, t)):
            flow = "F" if kind == "F" else "B"
            assert held[p][flow] == slot, (p, t, kind, slot, held[p])
            assert mb % world == p  # a microbatch never leaves its worker
            ids = slot_chunk_ids(slot, world, n_layers)
            for i in ids if kind == "F" else reversed(ids):
                if kind == "F":
                    assert i == 0 or ("F", mb, i - 1) in done[p]
                elif kind == "B":
                    assert ("F", mb, i) in done[p]
                    assert i == n_layers - 1 or ("B", mb, i + 1) in done[p]
                else:
                    assert ("B", mb, i) in done[p]
                assert (kind, mb, i) not in done[p]
                done[p].add((kind, mb, i))
                if kind == ("W" if split else "B"):
                    grads.append(i)
            if kind == "B":
                b_turn[(p, slot, mb)] = t
            if kind == "W":
                w_turn[(p, slot, mb)] = t
        return grads

    def program(p):
        for t in range(total + 1):
            if t > 0:
                for flow in "FB":
                    yield (p, flow, t)
                    held[p][flow] = mailbox.pop((p, flow, t))
            last = t == total
            if early and not last:
                send(p, "F", t + 1)
                send(p, "B", t + 1)
            grads = [] if last else run_ops(p, t)
            if t > 0:
                yield (p, "D", t)
                held[p]["D"] = mailbox.pop((p, "D", t))
            d_slot, d_sum = held[p]["D"]
            assert d_slot == held[p]["B"]  # D rides with its backward slot
            for i in grads:
                assert i in slot_chunk_ids(d_slot, world, n_layers)
                d_sum[i] += 1
            if last:
                return
            if not early:
                send(p, "F", t + 1)
                send(p, "B", t + 1)
            send(p, "D", t + 1)

    progs = [program(p) for p in range(world)]
    waiting = [next(g, None) for g in progs]
    progressed = True
    while progressed:
        progressed = False
        for p in range(world):
            while waiting[p] is not None and waiting[p] in mailbox:
                waiting[p] = next(progs[p], None)
                progressed = True
    if any(w is not None for w in waiting):
        return None
    assert not mailbox
    return {"held": held, "sent": sent, "done": done, "total": total,
            "b_turn": b_turn, "w_turn": w_turn}


class TestTableProperties:
    @pytest.mark.parametrize("early", [True, False], ids=["early", "late"])
    @pytest.mark.parametrize("mode, world, lps", GRID)
    def test_symbolic_execution(self, mode, world, lps, early):
        n_layers = world * lps
        split = ring_splits_backward(mode)
        for n_mb in (world, 2 * world, 3 * world):
            out = execute(mode, world, lps, n_mb, early)
            assert out is not None, f"deadlock at N={n_mb}"
            total = out["total"]
            # exactly 2 W + 1 D per hop per turn
            assert out["sent"] == Counter(
                {(p, (p + 1) % world, t, flow): 1
                 for p in range(world) for t in range(1, total + 1)
                 for flow in "FBD"}
            )
            # every slot home, every D complete
            assert total % world == 0
            for p, h in enumerate(out["held"]):
                assert fwd_home(h["F"], world) == p
                assert bwd_home(h["B"], world) == p
                d_slot, d_sum = h["D"]
                assert d_slot == h["B"]
                assert d_sum == Counter(
                    {i: n_mb for i in slot_chunk_ids(d_slot, world, n_layers)}
                )
            # every (microbatch, chunk) forwarded and backwarded once
            kinds = "FBW" if split else "FB"
            everything = set().union(*out["done"])
            assert everything == {
                (kind, mb, i)
                for kind in kinds for mb in range(n_mb) for i in range(n_layers)
            }
            # split rows: one W per B, same worker and slot, P turns on
            assert set(out["w_turn"]) == (set(out["b_turn"]) if split else set())
            for key, t in out["w_turn"].items():
                assert t == out["b_turn"][key] + world

    @pytest.mark.parametrize("mode", MODES)
    def test_turn_ops_order_is_b_f_w(self, mode):
        full = TurnTask(fwd=(0, 1), bwd=(2, 3), wpass=(2, 4))
        assert [k for k, _ in turn_ops(full)] == ["B", "F", "W"]
        assert turn_ops(TurnTask()) == ()
        assert turn_ops(TurnTask(fwd=(0, 1))) == (("F", (0, 1)),)

    def test_unknown_mode(self):
        for reader in (lambda m: ring_schedule(m, 2, 4), ring_splits_backward,
                       lambda m: ring_program(m, 2, 0, 4)):
            with pytest.raises(ValueError, match="unknown WeiPipe mode.*interleave"):
                reader("turbo")

    def test_ring_strategies_name_table_rows(self):
        assert {mode for mode, _ in RING_STRATEGIES.values()} == set(RING_SCHEDULES)


CFG = ModelConfig(hidden=16, n_layers=4, n_heads=2, seq_len=8, vocab=23)


class TestConsumersReadTheTable:
    @pytest.mark.parametrize("world, n_mb", [(2, 4), (4, 8)])
    @pytest.mark.parametrize("strategy", list(RING_STRATEGIES))
    def test_runtime_span_order_and_ledgers(self, strategy, world, n_mb):
        mode, _ = RING_STRATEGIES[strategy]
        spec = TrainSpec(
            cfg=CFG, n_microbatches=n_mb, microbatch_size=2, iters=2, precision=FP64
        )
        tracer = Tracer()
        result = train(spec, strategy, world, fabric=Fabric(world, tracer=tracer))
        events = list(tracer.events())
        for rank in range(world):
            spans = [
                (e["args"]["turn"], e["name"], e["args"]["slot"], e["args"]["mb"])
                for e in events
                if e["pid"] == rank and e["cat"] == "compute" and e["name"] in "FBW"
            ]
            assert spans == table_ops(mode, world, n_mb, rank) * spec.iters
            program = ring_program(mode, world, rank, n_mb)
            assert [(k, s, mb) for _, k, s, mb in table_ops(mode, world, n_mb, rank)] == [
                (k, s, mb) for k, (s, mb) in program
            ]
            # the ledgers count slot passes: the walk's per-field maxima
            held, pending = zip(*liveness(program))
            assert result.extra["peak_inflight"][rank] == max(held)
            assert result.extra["peak_pending_w"][rank] == max(pending)

    def test_unknown_mode_is_a_plain_value_error_from_the_parent(self):
        from repro.core.weipipe import train_weipipe

        spec = TrainSpec(cfg=CFG, n_microbatches=4, microbatch_size=1, iters=1)
        with pytest.raises(ValueError, match="unknown WeiPipe mode 'turbo'"):
            train_weipipe(spec, 2, mode="turbo")

    @pytest.mark.parametrize("overlap", [True, False])
    @pytest.mark.parametrize("world, gpn, n_mb", [(2, 2, 4), (4, 2, 8), (4, 4, 12), (6, 3, 6)])
    @pytest.mark.parametrize("strategy", list(RING_STRATEGIES))
    def test_des_turn_order_and_prices(self, strategy, world, gpn, n_mb, overlap):
        mode, hier = RING_STRATEGIES[strategy]
        dims = WorkloadDims(
            hidden=64, n_layers=2 * world, seq_len=128, microbatch=1, n_microbatches=n_mb
        )
        exec_cfg = ExecConfig(overlap=overlap)
        cluster = pcie_ethernet_cluster(world, gpus_per_node=gpn)
        built = SIM_STRATEGIES[strategy](dims, cluster, exec_cfg)
        assert built.name == strategy
        sim = simulate(built.graph)
        cost = CostModel(dims, cluster.gpu, exec_cfg)
        for rank in range(world):
            ran = sorted(
                (t for t in built.graph.tasks.values()
                 if t.meta.get("kind") == "turn" and t.meta["worker"] == rank),
                key=lambda t: sim.start[t.id],
            )
            ops = [
                (t.meta["turn"], kind, slot, mb)
                for t in ran
                for kind, (slot, mb) in turn_ops(TurnTask(
                    fwd=t.meta["fwd"], bwd=t.meta["bwd"], wpass=t.meta.get("wpass")
                ))
            ]
            assert ops == table_ops(mode, world, n_mb, rank)
            # each op at its program-position price (a B with the replays
            # the checkpoint rule counts for it there)
            secs = cost.op_times(ring_program(mode, world, rank, n_mb), 2)
            for t in ran:
                assert t.duration == pytest.approx(sum(
                    sec for (tt, *_), sec in zip(ops, secs) if tt == t.meta["turn"]
                ))
        # the hier rule is the runtime's: on a hop that leaves a node a
        # weight slot crosses in full while the tag's turn is <= P
        for t in built.graph.tasks.values():
            if t.id[0] != "AW":
                continue
            crosses = cluster.node_of(t.meta["src"]) != cluster.node_of(t.meta["dst"])
            full = 2 * built.cost.weight_chunk_bytes(2)
            is_ref = hier and crosses and t.id[2] > world
            assert t.meta["nbytes"] == (2 * WREF_NBYTES if is_ref else full)



#: the 15 Table 2 / Table 3 cells: (planner cluster spec, the tables' cluster, row)
TABLE_CELLS = [
    (spec, cluster, row)
    for spec, cluster, rows in (
        (ClusterSpec(preset="nvlink", world=16), table2_cluster(), TABLE2_ROWS),
        (ClusterSpec(preset="pcie-eth", world=16), table3_cluster(), TABLE3_ROWS),
    )
    for row in rows
]


def plan_whole_world(strategy, cluster_spec, dims):
    """The planner's verdict on ``strategy`` at ``degree = world, dp = 1``
    for the model and batch of one table cell."""
    spec = PlanSpec(
        model=ModelSpec(
            hidden=dims.hidden, n_layers=dims.n_layers, seq_len=dims.seq_len,
            n_heads=dims.n_heads, vocab=dims.vocab,
            global_batch_sequences=dims.microbatch * dims.n_microbatches,
        ),
        cluster=cluster_spec,
    )
    world = cluster_spec.world
    cand = Candidate(
        strategy=strategy, world=world, degree=world, dp=1,
        microbatch=dims.microbatch, n_microbatches=dims.n_microbatches,
        precision="fp16",
    )
    return evaluate_candidate(cand, spec, float("inf"))


@pytest.mark.parametrize("strategy", list(SIM_STRATEGIES))
class TestThePlannerPricesOnTheSimulator:
    """A plan at ``degree = world, dp = 1`` and a Table 2 / 3 cell are the
    same number by construction: the planner hands ``run_cell`` the
    tables' own (dims, cluster, exec config) and reports its makespan."""

    def test_every_table_cell_reaches_run_cell_unchanged(self, strategy, monkeypatch):
        """All 15 cells, without paying for 180 simulations: what the
        planner asks the DES is what the tables ask it, and what comes
        back is the iteration time, bit for bit."""
        asked = []

        def spy(*args):
            asked.append(args)
            return SimpleNamespace(makespan=1.0 + 0.1 * len(asked))

        # (``repro.plan.search`` the attribute is the function)
        monkeypatch.setattr(import_module("repro.plan.search"), "run_cell", spy)
        for cluster_spec, cluster, (hidden, seq, g) in TABLE_CELLS:
            dims = make_dims(hidden, seq, g, cluster.world_size, strategy=strategy)
            ev = plan_whole_world(strategy, cluster_spec, dims)
            assert asked[-1] == (strategy, dims, cluster, exec_for(strategy))
            assert ev.iteration_s == 1.0 + 0.1 * len(asked)
        assert len(asked) == len(TABLE_CELLS) == 15

    def test_whole_world_plan_equals_the_des(self, strategy):
        """And for real on the first row of each table."""
        for cluster_spec, cluster, (hidden, seq, g) in (TABLE_CELLS[0], TABLE_CELLS[9]):
            dims = make_dims(hidden, seq, g, cluster.world_size, strategy=strategy)
            des = run_cell(strategy, dims, cluster, exec_for(strategy))
            ev = plan_whole_world(strategy, cluster_spec, dims)
            assert ev.iteration_s == des.makespan
            assert ev.tokens_per_s_per_gpu == pytest.approx(
                des.tokens_per_second_per_gpu, rel=1e-12
            )
            assert ev.peak_memory_bytes == des.peak_memory_bytes
