"""One DES builder: every simulated strategy's task graph from one walk of
its rank programs and its message table (DESIGN §21).

:func:`build_schedule` prices each rank's
:func:`~repro.core.api.rank_programs` program with
:meth:`~repro.sim.costmodel.CostModel.op_times`, one compute task per
step — an op; a ring turn (the ops :func:`~repro.core.schedule.turn_ops`
gives a turn of its ``ring_schedule``); or, where a collective wraps
each chunk, an op's layer (F in layer order, B in reverse) — and
expands each row of :func:`~repro.core.api.posts` by its ``(when, what,
peer)``:

* a collective around ``F`` / ``B``: a gather before each layer's op,
  no earlier than :data:`_AHEAD` compute tasks back, the rest after it;
  a compute task waits for the collectives of its own layer and
  microbatch issued before it;
* a hop to ``next`` / ``prev`` after its op, which the receiver's same
  op waits for — with the receiver's stall when the wire does not
  overlap (stock blocking send / recv stalls both ends);
* the ``turn`` rows' arrivals (:func:`.weipipe.add_arrivals`): weights
  prefetch one turn ahead, ``D`` leaves after the sender's
  weight-gradient turn, and a homing hop closes the iteration;
* the ``owner`` factors hop after each weight-gradient op on a slot
  another rank owns, into the owner's ``FORM``: below the regime
  boundary (``chunk_factored``) each rank forms its chunks' gradients
  once, from every microbatch's bundle;
* the ``end`` collectives after every rank's last compute (its ``FORM``
  where no update follows) and homing arrivals, and an ``end`` hop (the
  ring's inject) after the owner's update, which waits for them.

A loop whose iteration rows post no hop (dp / fsdp / tp / sp) runs the
same program on every rank: only rank 0 is walked, its collectives ride
the shared ``("net",)`` resource carrying the whole job's bytes, and
the metrics scale its stream up (``compute_workers=[0]``).  A record
that splits a size inside the layer (tp's heads, sp's positions)
computes ``1/P`` of each op.

The engine breaks ties on a resource by submission order, so the order
of the expansions is part of the schedule: the neighbour hops go in
before any compute (a blocking send or receive takes the stream ahead of
the rank's next op), the turn arrivals and the factor hops after it (the
ring's wire rides behind its turns).
"""

from __future__ import annotations

from ...core.api import ZOO, posts, rank_programs, strategy_names
from ...core.schedule import fwd_home, ring_schedule, slot_owner, turn_ops
from ...parallel.common import slot_chunk_ids
from ..costmodel import CostModel, ExecConfig, WorkloadDims
from ..engine import TaskGraph
from ..hardware import Cluster
from .base import BuiltSchedule, comm_resource, validate_divisible
from .collective import collective_task
from .weipipe import add_arrivals, arrived, turn_bytes

__all__ = ["build_schedule"]

#: gather row -> how many compute tasks back it may start: fsdp's
#: two-layer prefetch window (what ``sim.memory`` charges), sp's K/V need
#: the previous layer's output.
_AHEAD = {"fsdp-agf": 2, "fsdp-agb": 2, "sp-f": 1}

#: the ``WorkloadDims`` field of each size a record's ``divides`` names.
_SIZES = {"layers": "n_layers", "heads": "n_heads", "ffn": "ffn", "seq": "seq_len",
          "microbatches": "n_microbatches"}

#: sizes inside a layer: a record that splits one computes ``1/P`` of each op.
_WITHIN_LAYER = {"heads", "ffn", "seq"}

#: an owner's update, in forwards of its layers: elementwise optimizer math.
_UPDATE = 0.05


def build_schedule(
    strategy: str,
    dims: WorkloadDims,
    cluster: Cluster,
    exec_cfg: ExecConfig = ExecConfig(),
) -> BuiltSchedule:
    """The DES task graph of ``strategy`` on one evaluation cell."""
    s = ZOO.get(strategy)
    if s is None or not s.simulated:
        raise ValueError(
            f"unknown simulated strategy {strategy!r}; "
            f"choose from {strategy_names(simulated=True)}"
        )
    world, n_mb, overlap = cluster.world_size, dims.n_microbatches, exec_cfg.overlap
    for dim in s.divides:
        validate_divisible(getattr(dims, _SIZES[dim]), world, f"{dim} per rank")
    cost = CostModel(dims, cluster.gpu, exec_cfg)
    sizes, factored, t_fwd = cost.sizes(world), cost.factored(s.whole), cost.t_fwd_layer()
    rows = [post for post in posts(strategy) if post.when != "call"]
    turns = [post for post in rows if post.when == "turn"]
    owners = [post for post in rows if post.peer == "owner"]
    wraps = {kind: [post for post in rows if post.when == kind and post.what != "hop"]
             for kind in "FB"}
    symmetric = all(post.what != "hop" for post in rows)
    ranks = range(1 if symmetric else world)
    programs, units = rank_programs(strategy, world, n_mb)
    layers, wgrad = dims.n_layers // units, "W" if s.split_backward else "B"
    per_op = dims.n_layers if any(wraps.values()) else 1
    split = world if _WITHIN_LAYER & set(s.divides) else 1
    net = ("net",) if overlap else ("compute", 0)
    g = TaskGraph()

    # hops to a neighbour, pair by pair and microbatch by microbatch
    waits = {}  # (rank, kind, mb) -> the hops that op waits for
    for r in range(world - 1):
        legs = []
        for post in rows:
            if post.peer in ("next", "prev"):
                src, dst = (r, r + 1) if post.peer == "next" else (r + 1, r)
                nbytes = sizes.nbytes(post)
                legs.append((post, src, dst, nbytes, cluster.link(src, dst).time(nbytes),
                             comm_resource(cluster, src, dst, overlap)))
        for mb in range(n_mb):
            for post, src, dst, nbytes, secs, res in legs:
                op, got = (post.when, src, mb), waits.setdefault((dst, post.when, mb), [])
                got.append(g.add((post.kind, src, mb), res, secs, deps=(op,),
                                 kind="comm", nbytes=nbytes, src=src, dst=dst))
                if not overlap:
                    got.append(g.add(("stall", post.kind, src, mb), ("compute", dst), secs,
                                     deps=(op,), kind="recv-stall"))

    # every walked rank's steps, each with the collectives around it
    if turns:
        total, task_fn = ring_schedule(s.schedule, world, n_mb)
    who = {r: () if symmetric else (r,) for r in ranks}  # a task id's rank
    # an op's tasks: one per layer (F in layer order, B in reverse) where a
    # collective wraps each chunk, else the op as one
    parts = ({"F": [(i,) for i in range(per_op)], "B": [(i,) for i in reversed(range(per_op))]}
             if per_op > 1 else {kind: [()] for kind in ("F", "B", "W", "T")})
    ran, tails = {}, {}
    for r in ranks:
        secs = cost.op_times(programs[r], layers, all(factored))
        if turns:  # (label, unit, ops, seconds, meta) of each step
            steps, cursor = [], iter(secs)
            for t in range(total):
                task = task_fn(r, t)
                ops = turn_ops(task)
                steps.append(("T", t, ops, sum(next(cursor) for _ in ops),
                              dict(kind="turn", turn=t, fwd=task.fwd, bwd=task.bwd,
                                   wpass=task.wpass)))
        else:
            steps = [(kind, mb, ((kind, mb),), t, {"kind": kind, "mb": mb})
                     for (kind, mb), t in zip(programs[r], secs)]
        computes, issued, ran[r], tag, res = [], {}, [], who[r], ("compute", r)
        for label, unit, ops, t, meta in steps:
            t /= per_op * split
            around = wraps.get(label, ())
            for part in parts[label]:
                key = (*tag, unit, *part)
                mine = issued.setdefault(key, []) if per_op > 1 else ()
                for post in around:
                    if post.what == "all-gather":
                        ahead = _AHEAD[post.kind]
                        window = (computes[-ahead],) if len(computes) >= ahead else ()
                        mine.append(collective_task(g, (post.kind, *key), post, sizes,
                                                    cluster, net, window, key[-1]))
                deps = (*computes[-1:], *mine, *waits.get((r, label, unit), ()),
                        *(arrived(r, unit) if turns else ()))
                computes.append(g.add((label, *key), res, t,
                                      deps=deps, worker=r, **meta))
                for post in around:
                    if post.what != "all-gather":
                        mine.append(collective_task(g, (post.kind, *key), post, sizes,
                                                    cluster, net, (computes[-1],), key[-1]))
            ran[r].append((computes[-1], ops))
        tails[r] = computes[-1]

    if turns:
        def crossed(left: int, p: int, t: int) -> bool:
            # the runtime's boundary rule (DESIGN §12): a slot crosses a node
            # boundary in full while the tag's turn is within the first
            # revolution, then by reference
            return s.hier and t > world and cluster.node_of(left) != cluster.node_of(p)

        add_arrivals(g, cluster, overlap, total,
                     lambda p, t: any(kind == wgrad for kind, _ in ran[p][t][1]),
                     turn_bytes(sizes, crossed), homing=True)

    # factor bundles: each weight-gradient op's on a slot another rank
    # owns hops to that owner, whose FORM waits for all of them
    bundles = {r: [] for r in ranks}
    for post in owners:
        for r in ranks:
            for tid, ops in ran[r]:
                for kind, (slot, _) in ops:
                    owner, nbytes = slot_owner(slot, world), sizes.nbytes(post, slot)
                    if kind != wgrad or not nbytes:
                        continue
                    bundles[owner].append(tid if owner == r else g.add(
                        (post.kind, *tid[1:]), comm_resource(cluster, r, owner, overlap),
                        cluster.link(r, owner).time(nbytes), deps=(tid,),
                        kind="comm", nbytes=nbytes, src=r, dst=owner,
                    ))
    # each rank forms its chunks' factored gradients, every microbatch's at once
    formed = {}
    for r in ranks:
        home = (r - 1) % world if owners else r  # the unit whose gradient it forms
        n = (sum(factored[i] for i in slot_chunk_ids(home, units, dims.n_layers))
             * sum(kind == "B" for kind, _ in programs[r]))
        if n:
            form = g.add(("FORM", *who[r]), ("compute", r), n * t_fwd,
                         deps=tuple(bundles[r]) if owners else (tails[r],), kind="W", worker=r)
            formed[r] = (form,)
            if not owners:
                tails[r] = form

    # the end rows: the collectives after every rank's last compute, its
    # FORM (the ring forms before its loss gather) and homing arrivals; an
    # end hop after the owner's update
    last = tuple(d for r in ranks for d in (
        tails[r], *(formed.get(r, ()) if owners else ()), *(arrived(r, total) if turns else ())))
    syncs = tuple(
        collective_task(g, (post.kind, *part), post, sizes, cluster, net, last, *part)
        for post in rows if post.when == "end" and post.what != "hop"
        for part in ([(i,) for i in range(dims.n_layers)] if post.unit == "chunk" else [()])
    )
    injects = [post for post in rows if post.when == "end" and post.what == "hop"]
    for r in ranks if injects else ():
        g.add(("U", r), ("compute", r), _UPDATE * layers * t_fwd,
              deps=syncs + formed.get(r, ()), kind="update", worker=r)
        owned = (r - 1) % world
        target = fwd_home(owned, world)
        for post in injects:
            if target != r:
                nbytes = sizes.nbytes(post, owned)
                g.add(("INJ", r), comm_resource(cluster, r, target, overlap),
                      cluster.link(r, target).time(nbytes), deps=(("U", r),),
                      kind="comm", nbytes=nbytes, src=r, dst=target)
    return BuiltSchedule(
        name=strategy, graph=g, dims=dims, cluster=cluster, cost=cost,
        exec_cfg=exec_cfg, compute_workers=list(ranks),
    )
