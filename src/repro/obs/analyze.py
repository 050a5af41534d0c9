"""Trace analysis: measured bubble ratio, overlap, and cost-model deltas.

Input is a Chrome trace-event document produced by
:class:`repro.obs.Tracer` (the object form with ``traceEvents`` +
``metadata``).  Three layers of results:

* :func:`analyze_trace` — per-rank timeline statistics computed purely
  from span interval arithmetic: wall clock, busy (compute) time,
  **measured bubble ratio**, idle-turn fraction, wire-wait share,
  comm/compute overlap fraction, and a critical-path breakdown for the
  slowest rank.
* :func:`per_turn_chunks` — the measured per-turn message complement
  from ``send`` instants: for a WeiPipe ring every (rank, iteration,
  turn) must ship exactly one F + one B + one D chunk — the paper's
  ``2 W + 1 D`` claim, checked against the wire rather than a byte
  ledger.
* :func:`reconcile` — fit :class:`repro.sim.costmodel.CostModel` to the
  trace (calibrating effective throughput from the measured forward
  spans, see ``CostModel.calibrated``) and report predicted-vs-measured
  deltas for the backward/forward ratio and the iteration wall clock.

Definitions (documented as part of the schema, DESIGN.md §11):

* **bubble ratio** (per rank) = ``1 - busy / wall`` where ``busy`` is
  the interval *union* of ``compute``-category spans and ``wall`` the
  summed duration of the rank's ``iteration`` spans.  Unions make the
  metric robust to nested spans (a ``B`` span inside an ``update``).
* **idle-turn fraction** (per rank) = summed duration of ``turn`` spans
  flagged ``idle`` over summed duration of all ``turn`` spans — the
  schedule-level bubble, independent of clock resolution.
* **overlap fraction** (per rank) = fraction of this rank's wire-wait
  union during which at least one *other* rank runs compute.  On the
  threaded runtime a blocked receiver releases the interpreter, so this
  measures how much of the wait was hidden behind peers' useful work.

The reconciliation tolerances are deliberately loose and documented
(DESIGN.md §11): the runtime is threaded NumPy — op dispatch dominates
at test scale and BLAS kernels release the interpreter lock — so the
model's serialised-compute wall prediction brackets the measurement
within a factor ``WALL_TOL`` (default 3x) rather than matching it, and
the measured backward/forward span ratio lands near ~1.1x instead of
the flop-proportional 2x, inside ``RATIO_TOL`` (default 75%) relative
error.  The point of the gate is catching *structural* drift (a span
covering the wrong work, a calibration bug producing orders-of-magnitude
error), not validating the A800 constants on a laptop.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "load_trace",
    "analyze_trace",
    "heal_events",
    "per_turn_chunks",
    "link_traffic",
    "reconcile",
    "trace_metadata",
    "WALL_TOL",
    "RATIO_TOL",
    "HIER_TRAFFIC_TOL",
]

#: accepted factor between predicted and measured iteration wall clock.
WALL_TOL = 3.0
#: accepted relative error on the measured backward/forward span ratio.
RATIO_TOL = 0.75
#: accepted factor between the steady-state boundary-traffic prediction
#: and the measured per-turn cross-group bytes of a hierarchical trace.
#: The measurement includes the first-revolution full crossings and the
#: update pass's inject hop, which amortise to well under 2x for any
#: schedule with at least one steady round.
HIER_TRAFFIC_TOL = 2.0

WEIPIPE_FLOWS = ("F", "B", "D")


def load_trace(path: str) -> Dict:
    """Load a Chrome trace JSON document (object or bare-array form).
    A file that is not JSON, or not a trace, is a ``ValueError`` naming
    ``path``."""
    with open(path) as f:
        try:
            doc = json.load(f)
        except ValueError as e:
            raise ValueError(f"{path}: not JSON ({e})") from None
    if isinstance(doc, list):
        doc = {"traceEvents": doc, "metadata": {}}
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError(f"{path}: not a Chrome trace document")
    return doc


# -- interval arithmetic -------------------------------------------------------


def _union(intervals: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Merge possibly-overlapping [start, end) intervals."""
    if not intervals:
        return []
    intervals = sorted(intervals)
    out = [intervals[0]]
    for s, e in intervals[1:]:
        ls, le = out[-1]
        if s <= le:
            out[-1] = (ls, max(le, e))
        else:
            out.append((s, e))
    return out


def _total(intervals: List[Tuple[float, float]]) -> float:
    return sum(e - s for s, e in intervals)


def _intersect(
    a: List[Tuple[float, float]], b: List[Tuple[float, float]]
) -> List[Tuple[float, float]]:
    """Intersection of two already-merged interval lists."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        s = max(a[i][0], b[j][0])
        e = min(a[i][1], b[j][1])
        if s < e:
            out.append((s, e))
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return out


def _subtract(
    a: List[Tuple[float, float]], b: List[Tuple[float, float]]
) -> List[Tuple[float, float]]:
    """Parts of ``a`` not covered by ``b`` (both merged)."""
    out = []
    j = 0
    for s, e in a:
        cur = s
        while j < len(b) and b[j][1] <= cur:
            j += 1
        k = j
        while k < len(b) and b[k][0] < e:
            bs, be = b[k]
            if bs > cur:
                out.append((cur, bs))
            cur = max(cur, be)
            if cur >= e:
                break
            k += 1
        if cur < e:
            out.append((cur, e))
    return out


# -- link classification (topology-aware traces) -------------------------------


def _group_of_map(meta: Dict) -> Optional[Dict[int, int]]:
    """``rank -> group`` from trace metadata, or None for flat traces.

    Topology-aware runs record ``metadata["topology"]["groups"]`` (the
    :meth:`repro.runtime.Topology.as_dict` form); a bare
    ``metadata["groups"]`` list-of-lists is accepted too.
    """
    groups = (meta.get("topology") or {}).get("groups") or meta.get("groups")
    if not groups:
        return None
    return {int(r): gi for gi, g in enumerate(groups) for r in g}


def _link_class(src: int, dst: int, group_of: Dict[int, int]) -> str:
    if src == dst:
        return "local"
    return "intra" if group_of.get(src) == group_of.get(dst) else "inter"


def link_traffic(doc: Dict) -> Optional[Dict]:
    """Per-link-class traffic measured off ``send`` instants.

    Requires topology groups in the metadata (None otherwise).  Returns
    ``{"intra": {"bytes", "messages"}, "inter": {...}, "by_kind": {...}}``
    where ``by_kind`` splits the same bytes per link class *and* flow
    kind — the view the cross-group-traffic reconciliation reads.
    """
    group_of = _group_of_map(doc.get("metadata", {}))
    if group_of is None:
        return None
    totals: Dict[str, Dict[str, int]] = {}
    by_kind: Dict[str, Dict[str, Dict[str, int]]] = {}
    for ev in doc["traceEvents"]:
        if ev.get("ph") != "i" or ev.get("name") != "send":
            continue
        args = ev.get("args") or {}
        if "dst" not in args:
            continue
        cls = _link_class(int(ev["pid"]), int(args["dst"]), group_of)
        nbytes = int(args.get("nbytes", 0))
        bucket = totals.setdefault(cls, {"bytes": 0, "messages": 0})
        bucket["bytes"] += nbytes
        bucket["messages"] += 1
        kind = str(args.get("kind", "?"))
        kb = by_kind.setdefault(cls, {}).setdefault(
            kind, {"bytes": 0, "messages": 0}
        )
        kb["bytes"] += nbytes
        kb["messages"] += 1
    if not totals:
        return None
    return {**totals, "by_kind": by_kind}


def _wire_split_us(
    spans: List[Dict], pid: int, group_of: Dict[int, int], world: int
) -> Dict[str, float]:
    """Summed wire-span time per link class for one rank.

    ``wait``/``recv`` spans carry their source in args; the ring
    engines' ``wait:slots``/``wait:D`` spans do not, but the ring only
    ever waits on its left neighbour ``(pid - 1) mod P``.  Raw sums (not
    unions): this is attribution of wait time per link, so overlapping
    waits count per-wait.
    """
    out = {"intra": 0.0, "inter": 0.0, "local": 0.0}
    for ev in spans:
        if ev.get("cat") != "wire":
            continue
        args = ev.get("args") or {}
        src = args.get("src")
        if src is None:
            src = (pid - 1) % world if world > 0 else pid
        out[_link_class(int(src), pid, group_of)] += ev.get("dur", 0.0)
    return out


# -- per-rank statistics -------------------------------------------------------


def _spans_by_rank(events: Iterable[Dict]) -> Dict[int, List[Dict]]:
    by_rank: Dict[int, List[Dict]] = defaultdict(list)
    for ev in events:
        if ev.get("ph") == "X":
            by_rank[int(ev["pid"])].append(ev)
    return by_rank


def _cat_intervals(spans: List[Dict], cat: str) -> List[Tuple[float, float]]:
    return _union(
        [(ev["ts"], ev["ts"] + ev.get("dur", 0.0)) for ev in spans
         if ev.get("cat") == cat]
    )


def analyze_trace(doc: Dict) -> Dict:
    """Per-rank timeline statistics (times in seconds)."""
    events = doc["traceEvents"]
    by_rank = _spans_by_rank(events)
    if not by_rank:
        raise ValueError("trace contains no complete ('X') spans")

    compute_by_rank = {
        pid: _cat_intervals(spans, "compute") for pid, spans in by_rank.items()
    }
    per_rank: Dict[int, Dict] = {}
    for pid, spans in sorted(by_rank.items()):
        iters = [ev for ev in spans if ev["name"] == "iteration"]
        wall_us = sum(ev.get("dur", 0.0) for ev in iters)
        compute = compute_by_rank[pid]
        wire = _cat_intervals(spans, "wire")
        collective = _cat_intervals(spans, "collective")
        busy_us = _total(compute)

        turns = [ev for ev in spans if ev["name"] == "turn"]
        turn_us = sum(ev.get("dur", 0.0) for ev in turns)
        idle_turns = [
            ev for ev in turns if (ev.get("args") or {}).get("idle")
        ]
        idle_us = sum(ev.get("dur", 0.0) for ev in idle_turns)

        # wire waits hidden behind *other* ranks' compute.
        others = _union(
            [iv for opid, ivs in compute_by_rank.items() if opid != pid
             for iv in ivs]
        )
        wire_us = _total(wire)
        hidden_us = _total(_intersect(wire, others))

        per_rank[pid] = {
            "iterations": len(iters),
            "wall_s": wall_us / 1e6,
            "compute_s": busy_us / 1e6,
            "wire_wait_s": wire_us / 1e6,
            "collective_s": _total(collective) / 1e6,
            "bubble_ratio": 1.0 - (busy_us / wall_us) if wall_us else 0.0,
            "turns": len(turns),
            "idle_turns": len(idle_turns),
            "idle_turn_fraction": (idle_us / turn_us) if turn_us else 0.0,
            "wire_wait_fraction": (wire_us / wall_us) if wall_us else 0.0,
            "overlap_fraction": (hidden_us / wire_us) if wire_us else 0.0,
        }

    # critical path: the slowest rank, time attributed with precedence
    # compute > wire > collective (so nested spans are not double counted).
    crit_pid = max(per_rank, key=lambda p: per_rank[p]["wall_s"])
    spans = by_rank[crit_pid]
    compute = compute_by_rank[crit_pid]
    wire = _subtract(_cat_intervals(spans, "wire"), compute)
    coll = _subtract(
        _subtract(_cat_intervals(spans, "collective"), compute), wire
    )
    crit_wall = per_rank[crit_pid]["wall_s"]
    covered = _total(compute) / 1e6 + _total(wire) / 1e6 + _total(coll) / 1e6
    critical_path = {
        "rank": crit_pid,
        "wall_s": crit_wall,
        "compute_s": _total(compute) / 1e6,
        "wire_wait_s": _total(wire) / 1e6,
        "collective_s": _total(coll) / 1e6,
        "other_s": max(crit_wall - covered, 0.0),
    }

    # topology-aware traces additionally attribute wire waits per link
    # class (which link a blocked receiver was actually waiting on).
    meta = doc.get("metadata", {})
    group_of = _group_of_map(meta)
    if group_of is not None:
        world = int(meta.get("world", len(group_of)))
        for pid, spans in by_rank.items():
            split = _wire_split_us(spans, pid, group_of, world)
            per_rank[pid]["wire_wait_intra_s"] = split["intra"] / 1e6
            per_rank[pid]["wire_wait_inter_s"] = split["inter"] / 1e6

    ranks = sorted(per_rank)
    n = len(ranks)
    summary = {
        "ranks": n,
        "bubble_ratio_mean": sum(per_rank[p]["bubble_ratio"] for p in ranks) / n,
        "bubble_ratio_max": max(per_rank[p]["bubble_ratio"] for p in ranks),
        "idle_turn_fraction_mean": sum(
            per_rank[p]["idle_turn_fraction"] for p in ranks
        ) / n,
        "overlap_fraction_mean": sum(
            per_rank[p]["overlap_fraction"] for p in ranks
        ) / n,
        "wall_s_max": max(per_rank[p]["wall_s"] for p in ranks),
    }
    if group_of is not None:
        summary["wire_wait_intra_s_total"] = sum(
            per_rank[p].get("wire_wait_intra_s", 0.0) for p in ranks
        )
        summary["wire_wait_inter_s_total"] = sum(
            per_rank[p].get("wire_wait_inter_s", 0.0) for p in ranks
        )
    heal = heal_events(doc)
    if heal is not None:
        summary["heal_counts"] = dict(heal["counts"])
    return {
        "metadata": doc.get("metadata", {}),
        "per_rank": per_rank,
        "summary": summary,
        "critical_path": critical_path,
        "per_turn": per_turn_chunks(doc),
        "link_traffic": link_traffic(doc),
        "heal": heal,
    }


# -- self-healing activity -----------------------------------------------------

#: instant-event names emitted by the failure detector ("heal" category,
#: :mod:`repro.runtime.communicator`) and the rejoin protocol
#: ("recovery" category, :mod:`repro.runtime.recovery`).
_HEAL_INSTANTS = (
    "suspect",
    "confirm-dead",
    "peer-failed",
    "rejoin-request",
    "rejoin",
    "rejoined",
)


def heal_events(doc: Dict) -> Optional[Dict]:
    """Self-healing activity: suspicion, confirmation and rejoin instants.

    Returns ``None`` when the trace holds none of them — the common
    healthy-run case keeps its summary unchanged.  Otherwise returns
    ``counts`` (only the names that occurred) and a time-ordered
    ``timeline`` of ``{t_us, rank, event, args}`` entries so a report
    can narrate the detect → shrink → rejoin sequence.
    """
    counts = {name: 0 for name in _HEAL_INSTANTS}
    timeline: List[Dict] = []
    for ev in doc.get("traceEvents", []):
        if ev.get("ph") != "i" or ev.get("name") not in counts:
            continue
        counts[ev["name"]] += 1
        timeline.append({
            "t_us": ev.get("ts", 0.0),
            "rank": ev.get("pid"),
            "event": ev["name"],
            "args": ev.get("args") or {},
        })
    if not timeline:
        return None
    timeline.sort(key=lambda e: e["t_us"])
    return {
        "counts": {k: v for k, v in counts.items() if v},
        "timeline": timeline,
    }


# -- per-turn chunk accounting -------------------------------------------------


def per_turn_chunks(doc: Dict) -> Optional[Dict]:
    """Measured WeiPipe per-turn message complement from ``send`` instants.

    The ring engines tag their three flows ``(kind, iteration, turn)``
    with ``kind`` in F/B/D (a stable schema surface — DESIGN.md §11), so
    grouping send instants by (rank, iteration, turn) recovers exactly
    what each rank shipped each turn.  Returns ``None`` when the trace
    holds no WeiPipe flow sends (non-ring strategies).
    """
    groups: Dict[Tuple[int, object, object], Dict[str, int]] = defaultdict(
        lambda: {k: 0 for k in WEIPIPE_FLOWS}
    )
    bytes_by_kind: Dict[str, int] = {k: 0 for k in WEIPIPE_FLOWS}
    for ev in doc["traceEvents"]:
        if ev.get("ph") != "i" or ev.get("name") != "send":
            continue
        args = ev.get("args") or {}
        kind = args.get("kind")
        tag = args.get("tag")
        if kind not in WEIPIPE_FLOWS or not isinstance(tag, list) or len(tag) != 3:
            continue
        groups[(int(ev["pid"]), tag[1], tag[2])][kind] += 1
        bytes_by_kind[kind] += int(args.get("nbytes", 0))

    if not groups:
        return None
    counts = list(groups.values())
    uniform = all(
        c["F"] == 1 and c["B"] == 1 and c["D"] == 1 for c in counts
    )
    return {
        "turns_observed": len(counts),
        "uniform_2w_1d": uniform,
        "w_chunks_per_turn": 2 if uniform else None,
        "d_chunks_per_turn": 1 if uniform else None,
        "counts_min": {k: min(c[k] for c in counts) for k in WEIPIPE_FLOWS},
        "counts_max": {k: max(c[k] for c in counts) for k in WEIPIPE_FLOWS},
        "bytes_by_kind": bytes_by_kind,
    }


# -- cost-model reconciliation -------------------------------------------------


def _mean_span_us(events: List[Dict], name: str) -> Optional[float]:
    durs = [
        ev.get("dur", 0.0) for ev in events
        if ev.get("ph") == "X" and ev["name"] == name
    ]
    return (sum(durs) / len(durs)) if durs else None


def trace_metadata(strategy: str, world: int, spec, **extra) -> Dict:
    """The trace metadata :func:`reconcile` reads: the run's strategy,
    world, recompute / flash-attention / overlap settings, iterations and
    workload dims, all from ``spec`` (a ``TrainSpec``); ``extra`` adds
    or overrides keys (``topology``, ``mode``, ``wire``, ...)."""
    cfg = spec.cfg
    return {
        "strategy": strategy,
        "world": world,
        "recompute": spec.recompute,
        "flash_attention": cfg.flash_attention,
        "overlap": True,
        "iters": spec.iters,
        "dims": {
            "hidden": cfg.hidden, "n_layers": cfg.n_layers,
            "seq_len": cfg.seq_len, "microbatch": spec.microbatch_size,
            "n_microbatches": spec.n_microbatches,
            "n_heads": cfg.n_heads, "vocab": cfg.vocab,
        },
        **extra,
    }


def reconcile(
    doc: Dict,
    analysis: Optional[Dict] = None,
    wall_tol: float = WALL_TOL,
    ratio_tol: float = RATIO_TOL,
) -> Dict:
    """Predicted-vs-measured deltas against :mod:`repro.sim.costmodel`.

    Requires trace ``metadata`` carrying ``dims`` (the workload) plus
    ``world``/``recompute``/``mode`` — :func:`trace_metadata` writes
    them (the CLI's ``--trace`` flags use it).  The model is
    *calibrated* on the trace's own mean forward-span time
    (``CostModel.calibrated``), then asked to predict (a) the
    backward/forward time ratio and (b) the iteration wall clock on a
    zero-latency wire — which for this GIL-serialised runtime is the
    total compute across all ranks.

    Both predictions price recomputation by the runtime's checkpoint rule
    (:mod:`repro.nn.checkpoint`): the replays ``replayed_chunks`` counts
    on the traced strategy's rank programs (``core.api.rank_programs``),
    each at what a replay re-runs (``CostModel.flops_replay_layer``: no
    down projection and, with the ``flash_attention`` the metadata states
    — on when it does not — no attention core).  ``replays`` checks the
    rule's count against the B spans' ``args["replayed"]``.
    """
    from ..core.api import rank_programs
    from ..nn.checkpoint import replayed_chunks
    from ..sim.costmodel import CostModel, ExecConfig, WorkloadDims

    meta = doc.get("metadata", {})
    dims_meta = meta.get("dims")
    if not dims_meta:
        raise ValueError(
            "trace metadata carries no workload dims; record the trace "
            "with `python -m repro train ... --trace PATH`"
        )
    dims = WorkloadDims(
        hidden=int(dims_meta["hidden"]),
        n_layers=int(dims_meta["n_layers"]),
        seq_len=int(dims_meta["seq_len"]),
        microbatch=int(dims_meta["microbatch"]),
        n_microbatches=int(dims_meta["n_microbatches"]),
        n_heads=int(dims_meta.get("n_heads", 1)),
        vocab=int(dims_meta.get("vocab", 1)),
    )
    world = int(meta.get("world", 1))
    recompute = bool(meta.get("recompute", False))
    if analysis is None:
        analysis = analyze_trace(doc)

    events = doc["traceEvents"]
    f_us = _mean_span_us(events, "F")
    if f_us is None:
        raise ValueError("trace has no forward ('F') spans to calibrate on")
    b_us = _mean_span_us(events, "B")

    # one span is one op of a rank's program: a ring slot's or a pipeline
    # stage's L/P layers, the whole model for one-unit programs.
    strategy = str(meta.get("strategy"))
    programs, units = rank_programs(strategy, world, dims.n_microbatches)
    layers_per_span = max(dims.n_layers // units, 1)
    t_fwd_layer_measured = (f_us / 1e6) / layers_per_span

    cfg = ExecConfig(
        recompute=recompute,
        overlap=bool(meta.get("overlap", True)),
        flash_attention=bool(meta.get("flash_attention", True)),
    )
    model = CostModel.calibrated(dims, t_fwd_layer_measured, cfg)
    iters = max(
        analysis["per_rank"][p]["iterations"] for p in analysis["per_rank"]
    )
    replays = recompute * sum(sum(replayed_chunks(ops, layers_per_span)) for ops in programs)
    result: Dict = {
        "calibration": {
            "t_fwd_layer_measured_s": t_fwd_layer_measured,
            "t_fwd_layer_model_s": model.t_fwd_layer(),
            "layers_per_span": layers_per_span,
        },
        "replays": {
            "predicted": replays * iters,
            "measured": sum(
                (ev.get("args") or {}).get("replayed", 0) for ev in events
                if ev.get("ph") == "X" and ev["name"] == "B"
            ),
        },
    }

    # (a) backward/forward ratio of the mean spans: a B with the replays
    # the rule counts for it, and without a decoupled W, which rides apart.
    if b_us is not None:
        measured_b_over_f = b_us / f_us
        t_f, t_b = model.op_means(strategy, world)
        predicted_b_over_f = t_b / t_f
        rel_err = abs(measured_b_over_f - predicted_b_over_f) / predicted_b_over_f
        result["b_over_f"] = {
            "predicted": predicted_b_over_f,
            "measured": measured_b_over_f,
            "rel_err": rel_err,
            "within_tolerance": rel_err <= ratio_tol,
            "tolerance": ratio_tol,
        }

    # (b) iteration wall clock on the zero-latency wire.  The threaded
    # runtime serialises compute on the interpreter lock, so the predicted
    # wall is the *total* compute across ranks, not the per-rank share:
    # every op of every rank's program at its price.
    predicted_wall = sum(t for _, t in model.program_times(strategy, world))
    measured_wall = analysis["summary"]["wall_s_max"] / max(iters, 1)
    ratio = measured_wall / predicted_wall if predicted_wall else float("inf")
    result["iteration_wall"] = {
        "predicted_s": predicted_wall,
        "measured_s": measured_wall,
        "ratio": ratio,
        "within_tolerance": (1.0 / wall_tol) <= ratio <= wall_tol,
        "tolerance_factor": wall_tol,
    }

    # (c) cross-group traffic of a hierarchical (two-level ring) trace.
    # The prediction is self-calibrating in the same spirit as the
    # compute calibration: W/D chunk sizes are read off the trace's own
    # intra-hop sends, and the cost model contributes only the
    # steady-state *shape* — a boundary hop carries 1 D + 2 reference
    # tokens while an intra hop carries the full 2 W + 1 D (DESIGN §12's
    # boundary rule).  Measured per-turn boundary
    # bytes sit above that floor by the amortised first-revolution full
    # crossings, bounded by HIER_TRAFFIC_TOL.
    lt = link_traffic(doc)
    if (
        lt is not None
        and "hier" in str(meta.get("strategy", ""))
        and lt.get("by_kind", {}).get("inter", {}).get("D", {}).get("messages")
        and lt.get("by_kind", {}).get("intra", {}).get("F", {}).get("messages")
    ):
        from ..runtime.topology import WREF_NBYTES

        bk = lt["by_kind"]
        w_chunk = bk["intra"]["F"]["bytes"] / bk["intra"]["F"]["messages"]
        d_msgs = bk["inter"]["D"]["messages"]
        d_chunk = bk["inter"]["D"]["bytes"] / d_msgs
        measured_flow_bytes = sum(
            bk["inter"].get(k, {}).get("bytes", 0) for k in WEIPIPE_FLOWS
        )
        # D crosses every boundary every hop, so its message count *is*
        # the number of (boundary, turn) cells to normalise by.
        measured_per_turn = measured_flow_bytes / d_msgs
        predicted_steady = d_chunk + 2 * WREF_NBYTES
        predicted_flat = 2 * w_chunk + d_chunk
        traffic_ratio = measured_per_turn / predicted_steady
        result["hier_traffic"] = {
            "w_chunk_bytes": w_chunk,
            "d_chunk_bytes": d_chunk,
            "predicted_steady_inter_bytes_per_turn": predicted_steady,
            "predicted_flat_inter_bytes_per_turn": predicted_flat,
            "measured_inter_bytes_per_turn": measured_per_turn,
            "ratio": traffic_ratio,
            "within_tolerance": (
                1.0 <= traffic_ratio <= HIER_TRAFFIC_TOL
                and measured_per_turn < predicted_flat
            ),
            "tolerance_factor": HIER_TRAFFIC_TOL,
        }
    return result
