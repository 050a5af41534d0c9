"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``strategies`` — one row per strategy record: its family / schedule
  and whether it is simulated and full-cache;
* ``train`` — train a small model on simulated workers and print the
  loss trajectory (functional layer; numerically real);
* ``explain`` — read a trace a run recorded with ``--trace``: validate
  it and print the analyzer's measured bubble ratio, overlap fraction,
  per-turn chunk accounting, the per-rank clock alignment of a
  process-backend run and the cost-model reconciliation;
* ``simulate`` — price one workload/strategy/cluster cell with the
  discrete-event simulator (throughput, memory, bubbles);
* ``table`` — regenerate paper Table 2, 3 or 4;
* ``figure`` — regenerate paper Figure 6, 7, 8 or 9;
* ``timeline`` — render a schedule as an ASCII Gantt chart;
* ``plan`` — auto-parallelism planner: enumerate the strategy × degree
  × microbatch × precision space for a model/cluster spec, prune on the
  analytic memory model, rank by the simulator's tokens/s, then run the
  top pick live and gate predicted-vs-measured wall clock through
  ``reconcile()`` (the ``repro.plan/v2`` report records the verdict);
* ``postmortem`` — render the flight-recorder bundle a failed launch
  left behind (reason, per-rank event rings, merged causal timeline);
* ``chaos-sweep`` — differential equivalence sweep: every strategy vs
  serial on a seeded chaos fabric; a failing seed is reported and
  ``--seed-start S --seeds 1`` replays exactly that adversary;
* ``crash-recovery`` — kill one worker mid-run with seeded chaos
  injection, let the survivors shrink the ring and finish, and verify
  the continuation bit-for-bit against a clean run from the rollback
  snapshot;
* ``self-heal`` — the transient-fault gauntlet: (1) the heal
  differential (every WeiPipe mode × world × precision under seeded
  bit-flip / link-flap / rank-stall schedules must be **bit-exact**
  with its clean twin), (2) a NIC-outage rejoin scenario (a rank is
  suspected, confirmed dead, the ring shrinks, then re-grows to the
  full world when the rank returns), and (3) a quiet-wire control
  (CRC framing on a clean wire must cause zero retransmits).
  ``chaos-sweep --faults storm`` adds the same transient faults (rows
  of :data:`repro.testing.HEAL_SCHEDULES`) to the classic
  serial-equivalence sweep;
* ``bench-crossover`` — the paper's crossover on the runtime: WeiPipe,
  1F1B and FSDP raced on a priced wire, with early vs late posting,
  flat vs hierarchical ring and thread vs process as cells of the same
  table (:mod:`repro.experiments.crossover`).

There is one way to record a trace and one way to read it.  Every run
command — ``train``, ``chaos-sweep``, ``self-heal``, ``crash-recovery``
and ``bench-crossover`` — accepts ``--trace PATH``
(write a Chrome trace of the run, for Perfetto / ``chrome://tracing``)
and ``--metrics-out PATH`` (dump the run's
:class:`~repro.obs.MetricsRegistry` as JSON); ``explain PATH`` reads the
trace.  Tracing is opt-in; without the flags the observability layer
stays in its null, zero-cost configuration.  On ``--backend process``
both artefacts are merged across the worker processes (one trace pid
per rank on one clock, label-aware metric reduction).  ``train`` and
``chaos-sweep`` share one set of model flags (:data:`_MODEL_FLAGS`).

``train`` additionally supports durable fault-tolerant runs under every
strategy: ``--checkpoint-every N`` writes atomic, checksummed
checkpoints from the elastic driver's commit hook, and ``--resume PATH``
continues a run — bit-exact (weights + optimizer + data cursor) when the
strategy matches the checkpoint, weights-only otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

__all__ = ["main", "build_parser", "model_argv"]

#: the model flags ``train`` and ``chaos-sweep`` share, as
#: ``(flag, owner, field)``: ``owner`` is ``cfg`` for a ``ModelConfig``
#: field and ``spec`` for a ``TrainSpec`` one.  The parser reads it
#: (``_add_model_flags``), ``_spec`` builds from it and
#: :func:`model_argv` renders a spec back into it, so a replay line
#: parses back to the spec it came from.
_MODEL_FLAGS = (
    ("--hidden", "cfg", "hidden"),
    ("--layers", "cfg", "n_layers"),
    ("--heads", "cfg", "n_heads"),
    ("--seq", "cfg", "seq_len"),
    ("--vocab", "cfg", "vocab"),
    ("--iters", "spec", "iters"),
    ("--microbatches", "spec", "n_microbatches"),
    ("--microbatch-size", "spec", "microbatch_size"),
)


def _owner(spec, owner: str):
    return spec.cfg if owner == "cfg" else spec


def model_argv(spec) -> str:
    """``spec``'s model as the flags ``train`` / ``chaos-sweep`` parse."""
    return " ".join(
        f"{flag} {getattr(_owner(spec, owner), name)}"
        for flag, owner, name in _MODEL_FLAGS
    )


def build_parser() -> argparse.ArgumentParser:
    from . import ModelConfig, TrainSpec
    from .testing import (
        DEFAULT_HEAL_MODES, HEAL_SCHEDULES, default_differential_spec,
    )

    parser = argparse.ArgumentParser(
        prog="repro",
        description="WeiPipe reproduction: functional training + cluster simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("strategies", help="list available strategies")

    p_train = sub.add_parser("train", help="train on simulated workers")
    p_train.add_argument("--strategy", default="weipipe-interleave")
    p_train.add_argument("--world", type=int, default=4)
    p_train.add_argument(
        "--groups", default=None, metavar="GxR",
        help="group shape of the fabric topology, e.g. 2x2 (world = G*R): "
             "builds a topology-carrying fabric; weipipe-hier runs its "
             "two-level ring on it and the run reports per-link-class "
             "traffic",
    )
    p_train.add_argument(
        "--dp", type=int, default=1,
        help="data-parallel replicas of the WeiPipe ring (2-D hybrid; "
             "ring size = world / dp, weipipe strategies only)",
    )
    _add_model_flags(p_train, TrainSpec(
        ModelConfig(hidden=32, n_layers=4, n_heads=4, seq_len=32, vocab=64),
        n_microbatches=8, microbatch_size=2, iters=5,
    ))
    p_train.add_argument("--lr", type=float, default=1e-2)
    p_train.add_argument("--clip-norm", type=float, default=None)
    p_train.add_argument(
        "--data", choices=["uniform", "markov"], default="uniform"
    )
    p_train.add_argument(
        "--precision", choices=["fp64", "fp32", "mixed"], default="fp64"
    )
    p_train.add_argument("--recompute", action="store_true")
    p_train.add_argument("--seed", type=int, default=0)
    _add_backend_flag(p_train)
    p_train.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="write a durable checkpoint every N committed iterations "
             "(implies fault-tolerant training)",
    )
    p_train.add_argument(
        "--checkpoint-path", default="checkpoint.npz",
        help="where --checkpoint-every writes (atomic rename; the "
             "previous checkpoint is never left half-written)",
    )
    p_train.add_argument(
        "--resume", default=None, metavar="PATH",
        help="resume from a checkpoint: bit-exact full-state resume when "
             "the strategy matches the one that saved it, weights-only "
             "(fresh optimizer) otherwise",
    )
    _add_obs_flags(p_train)

    p_ex = sub.add_parser(
        "explain",
        help="analyze a trace a run recorded with --trace: measured "
             "bubble, 2W+1D per-turn traffic, cost-model reconciliation",
    )
    p_ex.add_argument("trace", help="a Chrome trace written by --trace")
    p_ex.add_argument(
        "--analysis-out", default=None, metavar="PATH",
        help="dump the analyzer + reconciliation report as JSON",
    )

    p_sim = sub.add_parser("simulate", help="price one workload on a cluster")
    p_sim.add_argument("--strategy", default="weipipe-interleave")
    p_sim.add_argument("--world", type=int, default=16)
    p_sim.add_argument("--hidden", type=int, default=2048)
    p_sim.add_argument("--layers", type=int, default=32)
    p_sim.add_argument("--seq", type=int, default=8192)
    p_sim.add_argument("--microbatch", type=int, default=8)
    p_sim.add_argument("--microbatches", type=int, default=128)
    p_sim.add_argument(
        "--cluster", choices=["nvlink", "pcie-eth", "single-node"],
        default="nvlink",
    )
    p_sim.add_argument("--gpus-per-node", type=int, default=None)

    p_table = sub.add_parser("table", help="regenerate a paper table")
    p_table.add_argument("which", choices=["2", "3", "4"])
    p_table.add_argument("--no-memory", action="store_true")

    p_fig = sub.add_parser("figure", help="regenerate a paper scaling figure")
    p_fig.add_argument("which", choices=["6", "7", "8", "9"])

    p_ch = sub.add_parser(
        "chaos-sweep",
        help="differential equivalence sweep under a seeded chaos fabric",
    )
    p_ch.add_argument(
        "--seeds", type=int, default=5, help="number of chaos seeds to sweep"
    )
    p_ch.add_argument(
        "--seed-start", type=int, default=0,
        help="first chaos seed (use with --seeds 1 to replay a failure)",
    )
    p_ch.add_argument(
        "--strategies", default=None,
        help="comma-separated strategy names (default: the whole zoo)",
    )
    p_ch.add_argument(
        "--world", type=int, default=4,
        help="world size for strategies not in the default table",
    )
    _add_model_flags(p_ch, default_differential_spec())
    p_ch.add_argument(
        "--quiet-wire", action="store_true",
        help="disable all fault injection (control run on a clean wire)",
    )
    p_ch.add_argument(
        "--faults", type=_fault_rows, default=(), metavar="LIST",
        help="comma-separated rows of the heal differential's fault "
             f"table, merged left to right: {', '.join(HEAL_SCHEDULES)}",
    )
    _add_backend_flag(p_ch)
    _add_obs_flags(p_ch)

    p_sh = sub.add_parser(
        "self-heal",
        help="transient-fault gauntlet: bit-exact heal differential, "
             "NIC-outage rejoin scenario, quiet-wire zero-retransmit "
             "control",
    )
    p_sh.add_argument(
        "--modes", default=",".join(DEFAULT_HEAL_MODES),
        help="comma-separated WeiPipe modes for the heal differential",
    )
    p_sh.add_argument(
        "--worlds", default="2,4",
        help="comma-separated world sizes for the heal differential",
    )
    p_sh.add_argument(
        "--precisions", default="fp64,fp32",
        help="comma-separated precisions (fp64, fp32)",
    )
    p_sh.add_argument("--seed", type=int, default=0)
    p_sh.add_argument(
        "--strategy", default="weipipe-interleave",
        help="strategy of the rejoin scenario",
    )
    p_sh.add_argument(
        "--world", type=int, default=4,
        help="world size of the rejoin scenario and the quiet control",
    )
    p_sh.add_argument(
        "--flap-duration", type=float, default=0.45,
        help="seconds the victim rank's NIC stays down",
    )
    p_sh.add_argument(
        "--iters", type=int, default=None,
        help="iterations of the rejoin scenario (default: 8)",
    )
    p_sh.add_argument(
        "--skip-differential", action="store_true",
        help="run only the rejoin scenario and the quiet-wire control",
    )
    p_sh.add_argument(
        "--skip-rejoin", action="store_true",
        help="run only the differential and the quiet-wire control",
    )
    _add_obs_flags(p_sh)

    p_cr = sub.add_parser(
        "crash-recovery",
        help="kill a worker mid-run, recover on the shrunken ring, and "
             "verify the continuation bit-for-bit against a clean run",
    )
    p_cr.add_argument("--strategy", default="weipipe-interleave")
    p_cr.add_argument("--world", type=int, default=4)
    p_cr.add_argument("--seed", type=int, default=0)
    p_cr.add_argument(
        "--crash-rank", type=int, default=None,
        help="rank to kill (default: seeded choice)",
    )
    p_cr.add_argument(
        "--crash-at-post", type=int, default=None,
        help="kill the rank at its Nth message send (default: seeded "
             "choice inside the active phase)",
    )
    p_cr.add_argument(
        "--wire-chaos", action="store_true",
        help="also run full wire chaos (delay/reorder/drop/duplicate)",
    )
    p_cr.add_argument(
        "--no-verify", action="store_true",
        help="skip the differential check against a clean shrunken run",
    )
    p_cr.add_argument("--iters", type=int, default=None)
    _add_obs_flags(p_cr)

    p_cx = sub.add_parser(
        "bench-crossover",
        help="race WeiPipe, 1F1B and FSDP on a priced wire, with early vs "
             "late posting, flat vs hierarchical ring and thread vs process "
             "as cells of the same table; writes one JSON artefact",
    )
    p_cx.add_argument(
        "--reps", type=int, default=None,
        help="alternating repetitions per cell (default 10; 2 with --quick)",
    )
    p_cx.add_argument(
        "--quick", action="store_true",
        help="toy shapes: structural checks only, no timed verdicts",
    )
    p_cx.add_argument(
        "--out", default="BENCH_crossover.json",
        help="path of the JSON artefact",
    )
    _add_obs_flags(p_cx)

    p_plan = sub.add_parser(
        "plan",
        help="rank parallelism configs for a model/cluster spec and "
             "validate the top pick with a live reconciled run",
    )
    p_plan.add_argument(
        "--spec", default=None, metavar="PATH",
        help="planner spec JSON (model/cluster/space/validation "
             "sections); flags below override nothing when given",
    )
    p_plan.add_argument("--hidden", type=int, default=None)
    p_plan.add_argument("--layers", type=int, default=None)
    p_plan.add_argument("--seq-len", type=int, default=None)
    p_plan.add_argument("--heads", type=int, default=None)
    p_plan.add_argument("--vocab", type=int, default=None)
    p_plan.add_argument(
        "--global-batch", type=int, default=None,
        help="sequences per iteration, constant across candidates",
    )
    p_plan.add_argument(
        "--preset", choices=["nvlink", "pcie-eth", "single-node", "custom"],
        default=None,
    )
    p_plan.add_argument("--world", type=int, default=None)
    p_plan.add_argument("--gpus-per-node", type=int, default=None)
    p_plan.add_argument(
        "--memory-budget-gib", type=float, default=None,
        help="per-worker budget the pruner enforces (default: GPU HBM)",
    )
    p_plan.add_argument(
        "--strategies", default=None,
        help="comma-separated subset of the strategy zoo to search",
    )
    p_plan.add_argument(
        "--microbatches", default=None,
        help="comma-separated microbatch sizes to sweep",
    )
    p_plan.add_argument(
        "--top", type=int, default=10,
        help="how many ranked candidates to print",
    )
    p_plan.add_argument(
        "--no-validate", action="store_true",
        help="skip the live run of the top pick (report ranks only)",
    )
    p_plan.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the repro.plan/v2 report JSON here",
    )

    p_pm = sub.add_parser(
        "postmortem",
        help="render a flight-recorder post-mortem bundle (written "
             "automatically when a launch aborts, times out or a worker "
             "dies and REPRO_POSTMORTEM_DIR or postmortem_to is set)",
    )
    p_pm.add_argument(
        "bundle", help="path to a repro.postmortem/v1 JSON bundle"
    )
    p_pm.add_argument(
        "--last", type=int, default=20,
        help="events per rank in the merged causal timeline",
    )

    p_tl = sub.add_parser("timeline", help="render a schedule timeline")
    p_tl.add_argument(
        "schedule",
        help="a simulated strategy (see `repro strategies`; the rank-symmetric "
             "dp / fsdp / tp / sp draw rank 0), or one of the paper's "
             "conceptual Figure 3 / 4 diagrams: wzb1, wzb2",
    )
    p_tl.add_argument("--world", type=int, default=4)
    p_tl.add_argument("--microbatches", type=int, default=8)
    p_tl.add_argument("--width", type=int, default=96)
    return parser


def _add_backend_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--backend", choices=["thread", "process"], default="thread",
        help="execution backend: thread (every rank a thread of this "
             "interpreter; the only one with failure detectors and "
             "rejoin) or process (one process per rank over "
             "shared-memory rings; same chaos, tracing and metrics, "
             "merged across ranks)",
    )


def _add_model_flags(p: argparse.ArgumentParser, defaults) -> None:
    """The model flags, defaulting to ``defaults`` (a ``TrainSpec``)."""
    for flag, owner, name in _MODEL_FLAGS:
        p.add_argument(
            flag, type=int, dest=name, metavar=flag[2:].upper().replace("-", "_"),
            default=getattr(_owner(defaults, owner), name),
        )


def _model_kwargs(args, owner: Optional[str] = None) -> dict:
    """The model flags' values by field name (``owner`` picks one side)."""
    return {
        name: getattr(args, name)
        for _, o, name in _MODEL_FLAGS if owner in (None, o)
    }


def _spec(args):
    """The ``TrainSpec`` a command's flags describe: the model flags, and
    ``--precision`` / ``--seed`` / ``--recompute`` where the command has
    them (fp64, seed 0 and no recompute where it does not)."""
    from . import FP32, FP64, MIXED, ModelConfig, TrainSpec

    precision = {"fp64": FP64, "fp32": FP32, "mixed": MIXED}
    return TrainSpec(
        cfg=ModelConfig(**_model_kwargs(args, "cfg")),
        precision=precision[getattr(args, "precision", "fp64")],
        seed=getattr(args, "seed", 0),
        recompute=getattr(args, "recompute", False),
        **_model_kwargs(args, "spec"),
    )


def _fault_rows(text: str) -> List[str]:
    """``--faults``: comma-separated rows of ``HEAL_SCHEDULES``."""
    from .testing import HEAL_SCHEDULES

    rows = [r.strip() for r in text.split(",") if r.strip()]
    for row in rows:
        if row not in HEAL_SCHEDULES:
            raise argparse.ArgumentTypeError(
                f"unknown fault schedule {row!r}; choose from "
                f"{', '.join(HEAL_SCHEDULES)}"
            )
    return rows


def _chaos_policy(args):
    """The sweep's template policy: ``ChaosPolicy()`` (``--quiet-wire``:
    the quiet one) with the ``--faults`` rows merged left to right."""
    from dataclasses import replace

    from .runtime import ChaosPolicy
    from .testing import HEAL_SCHEDULES

    policy = ChaosPolicy.quiet() if args.quiet_wire else ChaosPolicy()
    for row in args.faults:
        policy = replace(policy, **HEAL_SCHEDULES[row])
    return policy


def _add_obs_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace", default=None, metavar="PATH", dest="trace_out",
        help="record a Chrome trace of the run and write it here "
             "(open in Perfetto or chrome://tracing; `repro explain` "
             "analyzes it)",
    )
    p.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="dump the run's metrics registry as JSON",
    )


def _obs(args, **metadata):
    """The ``(tracer, metrics)`` pair ``--trace`` / ``--metrics-out`` ask
    for, each ``None`` when not asked for."""
    from .obs import MetricsRegistry, Tracer

    return (
        Tracer(metadata=metadata) if args.trace_out is not None else None,
        MetricsRegistry() if args.metrics_out is not None else None,
    )


def _dump(args, tracer, metrics, transports=()) -> None:
    """Write what :func:`_obs` recorded.  A process transport keeps its
    own registry (its ranks', merged): each of ``transports`` folds into
    ``metrics`` first."""
    if tracer is not None:
        tracer.dump(args.trace_out)
        print(f"[trace written to {args.trace_out}]")
    if metrics is not None:
        for t in transports:
            metrics.merge(t.metrics.as_dict())
        metrics.dump(args.metrics_out)
        print(f"[metrics written to {args.metrics_out}]")


def _print_analysis(analysis: dict, reconciliation: Optional[dict]) -> None:
    s = analysis["summary"]
    cp = analysis["critical_path"]
    print(f"ranks               : {s['ranks']}")
    print(f"bubble ratio        : {s['bubble_ratio_mean']:.3f} mean, "
          f"{s['bubble_ratio_max']:.3f} max (measured)")
    print(f"idle-turn fraction  : {s['idle_turn_fraction_mean']:.3f}")
    print(f"overlap fraction    : {s['overlap_fraction_mean']:.3f} "
          "(wire waits hidden under peers' compute)")
    print(f"critical path       : rank {cp['rank']}  "
          f"wall {cp['wall_s'] * 1e3:.1f} ms = "
          f"compute {cp['compute_s'] * 1e3:.1f} + "
          f"wire {cp['wire_wait_s'] * 1e3:.1f} + "
          f"collective {cp['collective_s'] * 1e3:.1f} + "
          f"other {cp['other_s'] * 1e3:.1f}")
    pt = analysis.get("per_turn")
    if pt is not None:
        verdict = "2W+1D" if pt["uniform_2w_1d"] else "NON-UNIFORM"
        print(f"per-turn traffic    : {verdict} over {pt['turns_observed']} "
              f"(rank, iter, turn) groups")
    if reconciliation is not None:
        w = reconciliation["iteration_wall"]
        print(f"cost model (wall)   : predicted {w['predicted_s'] * 1e3:.1f} ms, "
              f"measured {w['measured_s'] * 1e3:.1f} ms "
              f"(ratio {w['ratio']:.2f}, tol {w['tolerance_factor']:.0f}x: "
              f"{'OK' if w['within_tolerance'] else 'OUT OF TOLERANCE'})")
        bf = reconciliation.get("b_over_f")
        if bf is not None:
            print(f"cost model (B/F)    : predicted {bf['predicted']:.2f}, "
                  f"measured {bf['measured']:.2f} "
                  f"({'OK' if bf['within_tolerance'] else 'OUT OF TOLERANCE'})")


def _cmd_strategies(args) -> int:
    from .core import ZOO

    rows = [("strategy", "family/schedule", "simulated", "full-cache")]
    for s in ZOO.values():
        kind = filter(None, (s.family, s.schedule, "two-level" if s.hier else None))
        flags = (s.simulated, s.full_cache)
        rows.append((s.name, "/".join(kind), *("yes" if f else "no" for f in flags)))
    widths = [max(map(len, column)) for column in zip(*rows)]
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return 0


def _cmd_train(args) -> int:
    from dataclasses import replace

    from . import MIXED, Adam, MasterWeightOptimizer, train, train_elastic
    from .data import MarkovCorpus
    from .io import load_checkpoint_state, save_checkpoint
    from .nn.model import model_param_count
    from .obs import trace_metadata
    from .parallel.elastic import compute_world

    spec = _spec(args)
    cfg = spec.cfg
    if args.precision == "mixed":
        make_opt = lambda: MasterWeightOptimizer(Adam(lr=args.lr), MIXED)
    else:
        make_opt = lambda: Adam(lr=args.lr)
    data = (
        MarkovCorpus(vocab=cfg.vocab, seed=args.seed)
        if args.data == "markov"
        else None
    )
    spec = replace(
        spec, make_optimizer=make_opt, clip_norm=args.clip_norm, data=data
    )

    durable = args.checkpoint_every is not None or args.resume is not None
    if durable and args.dp > 1:
        raise SystemExit(
            "--checkpoint-every/--resume are not supported with --dp > 1"
        )

    prior_losses: List[float] = []
    if args.resume is not None:
        ckpt = load_checkpoint_state(args.resume)
        if ckpt.cfg != cfg:
            raise SystemExit(
                f"checkpoint {args.resume} was trained with config "
                f"{ckpt.cfg}, which differs from the requested {cfg}; "
                "pass matching model flags"
            )
        ts = ckpt.train_state or {}
        if ts.get("strategy") == args.strategy and ckpt.opt_state is not None:
            spec = replace(
                spec,
                initial_chunks=ckpt.chunks,
                initial_opt_state=ckpt.opt_state,
                start_iteration=int(ts.get("next_iteration", 0)),
            )
            prior_losses = list(ts.get("losses", []))
            print(f"resuming (full state) from {args.resume} at iteration "
                  f"{spec.start_iteration}")
        else:
            spec = replace(spec, initial_chunks=ckpt.chunks)
            saved = ts.get("strategy", "<unknown>")
            print(f"resuming weights-only from {args.resume} (saved by "
                  f"strategy {saved!r}, requested {args.strategy!r}: "
                  "optimizer restarts)")

    def on_commit(completed: int, state, losses) -> None:
        if completed % args.checkpoint_every != 0 and completed != spec.iters:
            return
        save_checkpoint(
            args.checkpoint_path, cfg, state.chunks,
            metadata={"seed": args.seed},
            opt_state=state.opt_state,
            train_state={
                "next_iteration": spec.start_iteration + completed,
                "strategy": args.strategy,
                "losses": prior_losses + list(losses),
            },
        )

    topo = None
    if args.groups is not None:
        from .runtime import Topology, TopologyError

        try:
            topo = Topology.grid(args.world, args.groups)
        except TopologyError as e:
            raise SystemExit(str(e)) from None

    process = args.backend == "process"
    tracer, metrics = _obs(args, **trace_metadata(
        args.strategy, args.world, spec, topology=topo, backend=args.backend,
    ))
    fabric = None
    if process:
        from .runtime import ProcessTransport

        fabric = ProcessTransport(topology=topo, tracer=tracer)
    elif tracer is not None or metrics is not None or topo is not None:
        from .runtime import Fabric

        fabric = Fabric(args.world, tracer=tracer, metrics=metrics, topology=topo)

    if args.dp > 1 and args.strategy != "weipipe-interleave":
        raise SystemExit("--dp > 1 requires --strategy weipipe-interleave")
    try:
        if args.dp > 1:
            from .core.hybrid import train_weipipe_dp

            result = train_weipipe_dp(
                spec, ring_size=args.world // args.dp, dp_degree=args.dp,
                fabric=fabric,
            )
        elif durable:
            # the world the plain call accepts: all of it computes until
            # a rank is lost
            used = compute_world(args.strategy, spec, args.world)
            if used != args.world:
                raise ValueError(f"{args.strategy} computes on {used} of {args.world} "
                                 "ranks: the world must be divisible as without "
                                 "--checkpoint-every/--resume")
            result = train_elastic(
                spec, args.strategy, args.world, fabric=fabric,
                on_commit=on_commit if args.checkpoint_every is not None else None,
            )
        else:
            result = train(spec, args.strategy, args.world, fabric=fabric)
    except ValueError as e:
        # a configuration the strategy rejects before any worker starts
        print(f"train: {e}", file=sys.stderr)
        return 2
    print(f"strategy={args.strategy} world={args.world} dp={args.dp} "
          f"model={model_param_count(cfg):,} params")
    for i, loss in enumerate(result.losses):
        print(f"iter {spec.start_iteration + i:>4}: loss {loss:.6f}")
    if args.recompute and "recompute" in result.extra:
        print("recompute: replayed={replayed} kept={kept}".format(
            **result.extra["recompute"]))
    allocs = result.extra.get("pool_allocs_by_iter")
    if allocs and "arena_overflow_allocs" in result.extra:
        # the ring's pool ledger: on --backend process a non-zero
        # overflow means slots fell out of the arena and moved by copy.
        steady = allocs[-1] - allocs[-2] if len(allocs) > 1 else 0
        print(f"pool: steady_allocs_per_iter={steady} "
              f"arena_overflow_allocs={result.extra['arena_overflow_allocs']} "
              f"arena_overflow_bytes={result.extra['arena_overflow_bytes']}")
    if topo is not None:
        print(f"topology={args.groups} gateways={list(topo.gateways())}")
        nbytes = fabric.metrics.total("fabric_link_bytes_total", label="link")
        msgs = fabric.metrics.total("fabric_link_messages_total", label="link")
        for cls in sorted(nbytes):
            print(f"  {cls:<6}: {int(nbytes[cls]):,} bytes in "
                  f"{int(msgs[cls]):,} messages")
    if args.checkpoint_every is not None:
        print(f"checkpoint written to {args.checkpoint_path}")
    _dump(args, tracer, metrics, [fabric] if process else ())
    return 0


def _cmd_explain(args) -> int:
    from .obs import analyze_trace, load_trace, reconcile, validate_chrome_trace

    try:
        doc = load_trace(args.trace)
        problems = validate_chrome_trace(doc)
        analysis = None if problems else analyze_trace(doc)
    except (OSError, ValueError) as e:
        raise SystemExit(str(e)) from None
    if problems:
        for p in problems:
            print(f"schema error: {p}", file=sys.stderr)
        return 1
    meta = doc.get("metadata", {})
    shown = "".join(
        f"{k}={meta[k]} " for k in ("strategy", "world", "backend") if k in meta
    )
    print(f"{args.trace}: {shown}events={len(doc['traceEvents'])}")
    for r, info in sorted(meta.get("clock", {}).items(), key=lambda kv: int(kv[0])):
        print(f"clock rank {r}: offset {info['offset_s'] * 1e6:+.1f}us "
              f"+-{info['skew_bound_s'] * 1e6:.1f}us ({info['method']})")
    reconciliation = None
    try:
        reconciliation = reconcile(doc, analysis)
    except ValueError as e:
        print(f"reconciliation skipped: {e}")
    _print_analysis(analysis, reconciliation)
    if args.analysis_out is not None:
        with open(args.analysis_out, "w") as f:
            json.dump(
                {"analysis": analysis, "reconciliation": reconciliation},
                f, indent=2, sort_keys=True,
            )
            f.write("\n")
        print(f"[analysis written to {args.analysis_out}]")
    return 0


def _cmd_simulate(args) -> int:
    from .core import strategy_names
    from .experiments.configs import exec_for
    from .sim import WorkloadDims, nvlink_cluster, pcie_ethernet_cluster, run_cell

    if args.strategy not in strategy_names(simulated=True):
        raise SystemExit(
            f"simulate: unknown strategy {args.strategy!r}; "
            f"choose from {strategy_names(simulated=True)}"
        )
    if args.cluster == "nvlink":
        cluster = nvlink_cluster(args.world, gpus_per_node=args.gpus_per_node or 8)
    elif args.cluster == "pcie-eth":
        cluster = pcie_ethernet_cluster(args.world, gpus_per_node=args.gpus_per_node or 4)
    else:
        cluster = nvlink_cluster(args.world, gpus_per_node=args.world)
    dims = WorkloadDims(
        hidden=args.hidden, n_layers=args.layers, seq_len=args.seq,
        microbatch=args.microbatch, n_microbatches=args.microbatches,
    )
    rep = run_cell(args.strategy, dims, cluster, exec_for(args.strategy))
    print(f"strategy            : {rep.strategy}")
    print(f"cluster             : {args.cluster} ({args.world} GPUs)")
    print(f"model               : {dims.model_params / 1e9:.2f}B params, "
          f"S={dims.seq_len}, G={dims.microbatch}, N={dims.n_microbatches}")
    if rep.oom:
        print(f"result              : OOM ({rep.peak_memory_gb:.1f} GB > 80 GB)")
        return 1
    print(f"throughput          : {rep.tokens_per_second_per_gpu:,.1f} tokens/s/GPU")
    print(f"iteration time      : {rep.makespan * 1e3:,.1f} ms")
    print(f"bubble ratio        : {rep.bubble_ratio:.3f}")
    print(f"peak memory         : {rep.peak_memory_gb:.1f} GB")
    print(f"comm total          : {rep.comm_bytes_total / 2**30:.2f} GiB/iteration")
    print(f"peak link bandwidth : {rep.max_link_bytes_per_second / 1e9:.2f} GB/s")
    return 0


def _cmd_table(args) -> int:
    from .experiments import run_table2, run_table3, run_table4

    runner = {"2": run_table2, "3": run_table3, "4": run_table4}[args.which]
    print(runner().format(with_memory=not args.no_memory))
    return 0


def _cmd_figure(args) -> int:
    from .experiments import run_figure6, run_figure7, run_figure8, run_figure9

    runner = {
        "6": run_figure6, "7": run_figure7, "8": run_figure8, "9": run_figure9
    }[args.which]
    print(runner().format())
    return 0


def _cmd_chaos_sweep(args) -> int:
    from .runtime import Fabric, ProcessTransport
    from .testing import default_differential_strategies, run_differential

    defaults = default_differential_strategies()
    if args.strategies is None:
        strategies = defaults
    else:
        strategies = {
            name.strip(): defaults.get(name.strip(), args.world)
            for name in args.strategies.split(",")
            if name.strip()
        }
    seeds = range(args.seed_start, args.seed_start + args.seeds)
    # one shared tracer: every sweep point's rank-r events land on the
    # same pid-r timeline, in sweep order (on the process backend each
    # launch merges its per-rank spills into it).
    tracer, metrics = _obs(
        args, command="chaos-sweep", backend=args.backend,
        seeds=list(seeds), strategies=sorted(strategies),
    )
    transports = []

    def fabric_factory(world, pol):
        if args.backend == "thread":
            return Fabric(world, policy=pol, tracer=tracer, metrics=metrics)
        transports.append(ProcessTransport(policy=pol, tracer=tracer))
        return transports[-1]

    def progress(name: str, seed: int, failure: Optional[str]) -> None:
        status = "PASS" if failure is None else f"FAIL ({failure})"
        print(f"seed {seed:>4}  {name:<24} {status}")

    report = run_differential(
        strategies=strategies, chaos_seeds=seeds, spec=_spec(args),
        policy=_chaos_policy(args), fabric_factory=fabric_factory,
        progress=progress,
    )
    print(report.summary())
    _dump(args, tracer, metrics, transports)
    if metrics is not None:
        injected = metrics.total("chaos_injections_total", label="fault")
        print(f"injections: {injected}")
    return 0 if report.ok else 1


def _cmd_crash_recovery(args) -> int:
    from .testing import default_crash_spec, run_crash_recovery

    spec = None
    if args.iters is not None:
        spec = default_crash_spec(iters=args.iters)
    tracer, metrics = _obs(args, command="crash-recovery")
    report = run_crash_recovery(
        spec=spec,
        strategy=args.strategy,
        world=args.world,
        seed=args.seed,
        crash_rank=args.crash_rank,
        crash_at_post=args.crash_at_post,
        wire_chaos=args.wire_chaos,
        verify=not args.no_verify,
        tracer=tracer,
        metrics=metrics,
    )
    print(report.summary())
    _dump(args, tracer, metrics)
    return 0 if report.ok else 1


def _cmd_self_heal(args) -> int:
    from .testing import default_crash_spec, run_heal_differential, run_self_heal

    failed = False
    tracer, metrics = _obs(args, command="self-heal")

    if not args.skip_differential:
        print("== heal differential "
              "(transient faults must be bit-invisible) ==")

        def progress(cell: str, seed: int, failure) -> None:
            status = "PASS" if failure is None else f"FAIL ({failure})"
            print(f"  {cell:<40} {status}")

        report = run_heal_differential(
            modes=[m.strip() for m in args.modes.split(",") if m.strip()],
            worlds=[int(w) for w in args.worlds.split(",") if w.strip()],
            precisions=[p.strip() for p in args.precisions.split(",") if p.strip()],
            seed=args.seed,
            progress=progress,
        )
        print(report.summary())
        failed |= not report.ok

    if not args.skip_rejoin:
        print("\n== rejoin scenario (suspect -> confirm -> shrink -> "
              "re-grow) ==")
        spec = (
            default_crash_spec(iters=args.iters)
            if args.iters is not None else None
        )
        heal = run_self_heal(
            spec=spec, strategy=args.strategy, world=args.world,
            seed=args.seed, flap_duration=args.flap_duration,
            tracer=tracer, metrics=metrics,
        )
        print(heal.summary())
        failed |= not heal.ok

    print("\n== quiet-wire control (integrity framing must be free) ==")
    from . import train
    from .runtime import ChaosPolicy, Fabric
    from .testing import default_differential_spec

    fabric = Fabric(args.world, policy=ChaosPolicy.quiet(args.seed),
                    tracer=tracer, metrics=metrics)
    train(default_differential_spec(), args.strategy, args.world, fabric=fabric)
    retx = fabric._m_heal["fabric_retransmits"].value
    corrupt = fabric._m_heal["fabric_corrupt_frames"].value
    print(f"quiet wire: {fabric.chaos.posts} posts, "
          f"{retx:.0f} retransmits, {corrupt:.0f} corrupt frames")
    if retx != 0 or corrupt != 0:
        print("FAIL: the quiet wire retransmitted — CRC framing is not "
              "free on a clean wire")
        failed = True

    _dump(args, tracer, metrics)
    return 1 if failed else 0


def _cmd_bench_crossover(args) -> int:
    from .experiments.crossover import format_report, run_crossover

    tracer, metrics = _obs(args)
    reps = args.reps if args.reps is not None else (2 if args.quick else 10)
    report = run_crossover(reps=reps, quick=args.quick, tracer=tracer,
                           metrics=metrics)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(format_report(report))
    print(f"[saved to {args.out}]")
    _dump(args, tracer, metrics)
    return 0 if report["ok"] else 1


def _cmd_postmortem(args) -> int:
    from .obs.flight import load_postmortem, render_postmortem

    try:
        bundle = load_postmortem(args.bundle)
    except OSError as e:
        raise SystemExit(str(e)) from None
    except (ValueError, KeyError) as e:
        raise SystemExit(f"{args.bundle}: {e}") from None
    print(render_postmortem(bundle, last=args.last))
    return 0


def _cmd_timeline(args) -> int:
    from .core import strategy_names
    from .sim import (
        WorkloadDims, build_schedule, exec_for, nvlink_cluster, render_timeline,
    )
    from .sim.costmodel import ExecConfig
    from .sim.schedules import RING_FIGURES, build_ring_figure

    name = args.schedule
    choices = [*strategy_names(simulated=True), *RING_FIGURES]
    if name not in choices:
        raise SystemExit(
            f"timeline: unknown schedule {name!r}; choose from {choices}"
        )
    dims = WorkloadDims(
        hidden=1024, n_layers=args.world, seq_len=4096, microbatch=4,
        n_microbatches=args.microbatches,
    )
    cluster = nvlink_cluster(args.world, gpus_per_node=args.world)
    try:
        if name in RING_FIGURES:
            built = build_ring_figure(name, dims, cluster, ExecConfig(recompute=False))
        else:
            built = build_schedule(
                name, dims, cluster, ExecConfig(recompute=exec_for(name).recompute)
            )
    except ValueError as e:  # a size the world does not divide
        raise SystemExit(f"timeline {name}: {e}") from None
    print(render_timeline(built, width=args.width, title=name))
    return 0


def _cmd_plan(args) -> int:
    from .plan import (
        PlanSpecError,
        build_report,
        format_report,
        load_spec,
        search,
        validate_candidate,
        validate_plan_report,
    )
    from .plan.spec import ClusterSpec, ModelSpec, PlanSpec, SearchSpace

    try:
        if args.spec is not None:
            spec = load_spec(args.spec)
        else:
            model_kw = {
                k: v for k, v in {
                    "hidden": args.hidden, "n_layers": args.layers,
                    "seq_len": args.seq_len, "n_heads": args.heads,
                    "vocab": args.vocab,
                    "global_batch_sequences": args.global_batch,
                }.items() if v is not None
            }
            cluster_kw = {
                k: v for k, v in {
                    "preset": args.preset, "world": args.world,
                    "gpus_per_node": args.gpus_per_node,
                    "memory_budget_bytes": (
                        args.memory_budget_gib * 2**30
                        if args.memory_budget_gib is not None else None
                    ),
                }.items() if v is not None
            }
            space_kw = {}
            if args.strategies is not None:
                space_kw["strategies"] = tuple(
                    s.strip() for s in args.strategies.split(",") if s.strip()
                )
            if args.microbatches is not None:
                space_kw["microbatch_sizes"] = tuple(
                    int(g) for g in args.microbatches.split(",")
                )
            spec = PlanSpec(
                model=ModelSpec(**model_kw),
                cluster=ClusterSpec(**cluster_kw),
                space=SearchSpace(**space_kw),
            )
        result = search(spec)
    except (PlanSpecError, ValueError) as e:
        print(f"plan: {e}", file=sys.stderr)
        return 2
    verdict = None
    if result.feasible and not args.no_validate:
        verdict = validate_candidate(result.feasible[0], spec)
    report = build_report(spec, result, validation=verdict)
    problems = validate_plan_report(report)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
        print(f"wrote {args.out}")
    print(format_report(report, top=args.top))
    if problems:
        print("\nreport schema problems:", file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        return 1
    if not result.feasible:
        print("\nno feasible configuration fits the memory budget",
              file=sys.stderr)
        return 1
    if verdict is not None and not verdict["passed"]:
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # subcommand ``foo-bar`` runs ``_cmd_foo_bar(args)``
    return globals()["_cmd_" + args.command.replace("-", "_")](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
