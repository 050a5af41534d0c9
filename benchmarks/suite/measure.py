"""One workload, measured inside its own interpreter.

Order of work: set-up samples, one discarded warm-up call, the timed
calls (untraced), the peak-RSS reading, one traced call (per-layer phase
only), the serial oracle and the correctness checks, and last the layer
probes.  End-to-end numbers only ever come from the untraced timed
calls.  Metrics leave here as plain numbers keyed by name: the unit of a
name is in ``BENCHMARK.json``.

Times that carry a bound are *scaled to a reference machine speed*.  The
sizing box's throughput wanders by 20 % for minutes at a time, which no
median inside one run can remove, so every set-up sample and every timed
call sits between two short bursts of a fixed fp32 matmul (one loop per
rank, concurrently), and its wall is multiplied by (measured GFLOP/s per
core of its two bursts) / ``REF_GFLOPS``.
A change to the program does not move the bursts; a slow minute of the
machine moves both and cancels.  Raw walls and burst rates are kept in
the result file under ``calls``.
"""

from __future__ import annotations

import os
import resource
import signal
import statistics
import tempfile
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional

import numpy as np

from repro.obs import Tracer, analyze_trace, reconcile

import probes
from spans import SpanRecorder
from workloads import WORLD, Workload

__all__ = ["run_workload"]

SETUP_REPS = 10
#: the machine speed end-to-end times are quoted at: GFLOP/s per core of
#: a 1024^2 fp32 matmul.
REF_GFLOPS = 100.0
CALL_TIMEOUT_S = 60.0
ORACLE_RTOL = 1e-6
SHM_DIR = "/dev/shm"
#: what is read from ``TrainResult.extra``; the rest (optimizer state on
#: serial) is dropped so call records do not grow the heap they measure.
LEDGER_KEYS = ("compute_s", "wire_wait_s", "pool_allocs_by_iter")


class CallTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise CallTimeout()


class Calibrator:
    """Scales a wall to ``REF_GFLOPS`` per core by the matmul bursts around it.

    A burst runs one matmul loop per rank of the workload, concurrently
    (BLAS releases the GIL): a two-rank workload slows down when either
    core does, and a one-thread burst only ever samples the better one —
    on the sizing box it tracked two-rank calls no better than nothing,
    while the two-thread burst halved their run-to-run spread.
    """

    N = 1024

    def __init__(self, burst_s: float, threads: int):
        self.burst_s = burst_s
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((self.N, self.N)).astype(np.float32)
        # results land in buffers made once: a burst that allocates lets
        # malloc decide, run by run, whether peak RSS holds 4 MB more.
        self._outs = [np.empty_like(self._a) for _ in range(threads)]
        self._last = self._burst()

    def _loop(self, out: np.ndarray, rates: List[float]) -> None:
        t0 = perf_counter()
        n = 0
        while perf_counter() - t0 < self.burst_s or n == 0:
            np.matmul(self._a, self._a, out=out)
            n += 1
        rates.append(n * 2.0 * self.N**3 / (perf_counter() - t0) / 1e9)

    def _burst(self) -> float:
        """GFLOP/s per core, mean over the concurrent loops."""
        rates: List[float] = []
        loops = [threading.Thread(target=self._loop, args=(out, rates))
                 for out in self._outs]
        for t in loops:
            t.start()
        for t in loops:
            t.join()
        return sum(rates) / len(rates)

    def scale(self, wall_s: float):
        """``(wall at the reference speed, GFLOP/s per core around it)``
        for a wall that ended just now."""
        before, self._last = self._last, self._burst()
        gflops = (before + self._last) / 2
        return wall_s * gflops / REF_GFLOPS, gflops


@dataclass
class Call:
    wall_s: float = 0.0
    ref_wall_s: float = 0.0
    calib_gflops: float = 0.0
    losses: Optional[List[float]] = None
    extra: Dict = field(default_factory=dict)
    bytes_total: int = 0
    messages: int = 0
    failure: Optional[str] = None


def _shm_listing() -> set:
    return set(os.listdir(SHM_DIR)) if os.path.isdir(SHM_DIR) else set()


def _guarded(fn) -> Any:
    """Run ``fn`` under the per-call wall timeout; returns
    ``(value, wall_s, failure)``."""
    signal.setitimer(signal.ITIMER_REAL, CALL_TIMEOUT_S)
    t0 = perf_counter()
    try:
        return fn(), perf_counter() - t0, None
    except CallTimeout:
        return None, perf_counter() - t0, f"timeout after {CALL_TIMEOUT_S:.0f} s"
    except Exception as exc:  # a failed call is a counted failure, not an abort
        detail = str(exc).splitlines()[0] if str(exc) else ""
        return None, perf_counter() - t0, f"{type(exc).__name__}: {detail}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _make_call(wl: Workload, spec, tracer=None) -> Call:
    before = _shm_listing() if wl.backend == "process" else None
    wire = None

    def go():
        nonlocal wire
        wire = wl.make_wire(tracer)
        return wl.call(spec, wire)

    res, wall, failure = _guarded(go)
    call = Call(wall_s=wall, failure=failure)
    if res is not None:
        call.losses = [float(x) for x in res.losses]
        call.extra = {k: res.extra[k] for k in LEDGER_KEYS if k in res.extra}
    if wire is not None and failure is None:
        call.bytes_total = int(wire.stats.bytes_total)
        call.messages = int(wire.stats.messages)
    if before is not None:
        leaked = sorted(_shm_listing() - before)
        if leaked and call.failure is None:
            call.failure = f"left {SHM_DIR} segment(s): {', '.join(leaked)}"
    return call


def _trace_metadata(wl: Workload, spec) -> Dict:
    """The keys ``repro.obs.reconcile`` documents as required."""
    cfg = spec.cfg
    return {
        "strategy": wl.strategy, "world": wl.world, "recompute": spec.recompute,
        "overlap": True, "iters": spec.iters,
        "dims": {
            "hidden": cfg.hidden, "n_layers": cfg.n_layers,
            "seq_len": cfg.seq_len, "microbatch": spec.microbatch_size,
            "n_microbatches": spec.n_microbatches, "n_heads": cfg.n_heads,
            "vocab": cfg.vocab,
        },
    }


def _mean(d: Dict) -> float:
    return sum(d.values()) / len(d)


def _traced_run(wl: Workload, spec, untraced_wall: float, spans: SpanRecorder):
    """One more call with the public ``Tracer`` handed to the wire.

    Returns ``(call, metrics, ledger)``; ``ledger`` is the traced run's
    per-rank compute / wire-wait / wall, for strategies whose worker
    keeps no such ledger of its own.
    """
    tracer = Tracer(metadata=_trace_metadata(wl, spec))
    with spans.span("bench.train.traced"):
        call = _make_call(wl, spec, tracer)
    if call.failure is not None:
        return call, {}, None
    with spans.span("bench.analyze"):
        doc = tracer.chrome_trace()
        analysis = analyze_trace(doc)
        rec = reconcile(doc, analysis)
        path = os.path.join(tempfile.gettempdir(), f"{wl.name}.trace.json")
        t0 = perf_counter()
        tracer.dump(path)
        dump_s = perf_counter() - t0
    crit = analysis["critical_path"]
    summary = analysis["summary"]
    by_name = {"F": 0.0, "B": 0.0, "W": 0.0}
    n_events = 0
    for ev in doc["traceEvents"]:
        n_events += ev.get("ph") != "M"
        if (ev.get("ph") == "X" and ev["pid"] == crit["rank"]
                and ev["name"] in by_name):
            by_name[ev["name"]] += ev["dur"] / 1e6
    # compute spans that are not a pass: the update pass and the gradient
    # accumulation (clamped: a pass nested in another span counts once).
    update_s = max(crit["compute_s"] - sum(by_name.values()), 0.0)
    wall = rec["iteration_wall"]
    metrics = {
        "trace.f_s": by_name["F"],
        "trace.b_s": by_name["B"],
        "trace.w_s": by_name["W"],
        "trace.wire_wait_s": crit["wire_wait_s"],
        "trace.critical_other_s": crit["other_s"],
        "trace.update_s": update_s,
        "trace.collective_s": crit["collective_s"],
        "trace.bubble_ratio_mean": summary["bubble_ratio_mean"],
        "trace.idle_turn_fraction": summary["idle_turn_fraction_mean"],
        "trace.overlap_fraction": summary["overlap_fraction_mean"],
        "trace.events": n_events,
        "obs.trace_overhead_pct": 100.0 * (call.wall_s - untraced_wall) / untraced_wall,
        "obs.trace_dump_ms": dump_s * 1e3,
        "sim.wall_pred_over_meas": wall["predicted_s"] / wall["measured_s"],
    }
    per_rank = analysis["per_rank"]
    ledger = {
        "compute_s": _mean({r: v["compute_s"] for r, v in per_rank.items()}),
        "wire_wait_s": _mean({r: v["wire_wait_s"] for r, v in per_rank.items()}),
        "wall_s": call.wall_s,
    }
    return call, metrics, ledger


def _core_metrics(wl: Workload, spec, ok: List[Call], ledger: Optional[Dict],
                  launch_s: float, oracle_wall: float) -> Dict:
    """Read, not timed: the engine's own ledgers and the wire's counts."""
    wall = statistics.median(c.wall_s for c in ok)
    first = ok[0]
    if "compute_s" in first.extra:  # the WeiPipe worker keeps a ledger
        compute = statistics.median(_mean(c.extra["compute_s"]) for c in ok)
        wire = statistics.median(_mean(c.extra["wire_wait_s"]) for c in ok)
        base = wall
    elif ledger is not None:  # 1F1B: only the traced run knows
        compute, wire, base = ledger["compute_s"], ledger["wire_wait_s"], ledger["wall_s"]
    else:  # serial: one rank, no engine
        compute, wire, base = 0.0, 0.0, 0.0
    overhead = base - launch_s - compute - wire if base else 0.0
    allocs = first.extra.get("pool_allocs_by_iter") or [0]
    steady = allocs[-1] - allocs[-2] if len(allocs) > 1 else allocs[-1]
    tokens = wl.tokens_per_call()
    return {
        "core.compute_s_per_rank": compute,
        "core.wire_wait_s_per_rank": wire,
        "core.engine_overhead_s": overhead,
        "core.engine_overhead_share": overhead / base if base else 0.0,
        "core.pool_steady_allocs_per_iter": steady,
        "core.speedup_vs_serial": (oracle_wall or wall) / wall,
        "runtime.messages_per_iter": first.messages / spec.iters,
        "runtime.bytes_per_iter": first.bytes_total / spec.iters,
        "runtime.wire_bytes_per_token": first.bytes_total / tokens,
    }


def _verify(calls: List[Call], oracle: Optional[List[float]],
            oracle_failure: Optional[str]) -> None:
    """Mark calls whose losses disagree with the first good repetition
    (bit for bit) or with the serial oracle (``ORACLE_RTOL``)."""
    reference = next((c.losses for c in calls if c.failure is None), None)
    for c in calls:
        if c.failure is not None:
            continue
        if c.losses != reference:
            c.failure = f"losses {c.losses} differ from first repetition {reference}"
        elif oracle is None:
            c.failure = f"serial oracle failed: {oracle_failure}"
        elif not np.allclose(c.losses, oracle, rtol=ORACLE_RTOL, atol=0.0):
            c.failure = f"losses {c.losses} differ from serial oracle {oracle}"


def _stat(values: List[float], scale=lambda v: v) -> Dict:
    """Median with its sample count, min and max (after ``scale``, which
    may reverse the order: tokens/s from seconds)."""
    if not values:  # every call failed: nothing to report but the zero
        return {"value": 0.0, "n": 0, "min": 0.0, "max": 0.0}
    scaled = [scale(v) for v in values]
    return {"value": scale(statistics.median(values)), "n": len(values),
            "min": min(scaled), "max": max(scaled)}


def run_workload(wl: Workload, seed: int, seconds: float, per_layer: bool,
                 end_to_end: bool, once: bool) -> Dict:
    """Measure ``wl``; ``once`` (``--quick``) makes every loop minimal."""
    signal.signal(signal.SIGALRM, _on_alarm)
    spans = SpanRecorder(wl.name)

    setup: List[float] = []
    with spans.span("bench.setup"):
        calib = Calibrator(0.002 if once else 0.1, wl.world)
        for _ in range(2 if once else SETUP_REPS):
            t0 = perf_counter()
            with spans.span("bench.spec"):
                spec = wl.make_spec(seed)
            with spans.span("bench.init_chunks"):
                spec.init_chunks()
                spec.rope()
            with spans.span("bench.launch_noop"):
                probes.launch_noop(wl.world, wl.backend)
            setup.append(calib.scale(perf_counter() - t0)[0])

    # the per-layer phase on its own needs only a few untraced calls, for
    # the engine ledgers and the tracing-overhead base.
    budget = seconds if end_to_end else 0.3 * seconds
    min_timed = 1 if once else (3 if end_to_end else 2)
    with spans.span("bench.train"):
        warmup = _make_call(wl, spec)
        calib = Calibrator(0.002 if once else 0.2, wl.world)
        timed: List[Call] = []
        start = perf_counter()
        while True:
            if len(timed) >= min_timed:
                typical = statistics.median(c.wall_s for c in timed) + calib.burst_s
                if once or perf_counter() - start + typical > budget:
                    break
                if all(c.failure for c in timed[-min_timed:]):
                    break  # nothing works; more attempts add no information
            call = _make_call(wl, spec)
            call.ref_wall_s, call.calib_gflops = calib.scale(call.wall_s)
            timed.append(call)
            if (timed[-1].failure or "").startswith("timeout"):
                break  # a hung call ate the budget; do not start another
    rusage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    calls = [warmup] + timed

    layer_metrics: Dict = {}
    ledger = None
    done = [c.wall_s for c in timed if c.failure is None]
    if per_layer and done:
        if wl.backend is not None:
            traced, trace_metrics, ledger = _traced_run(
                wl, spec, statistics.median(done), spans)
            calls.append(traced)
            layer_metrics.update(trace_metrics)

    with spans.span("bench.verify"):
        if wl.backend is None:  # it is its own oracle: repetitions must agree
            oracle = next((c.losses for c in calls if c.failure is None), None)
            oracle_wall, oracle_failure = 0.0, None
        else:
            res, oracle_wall, oracle_failure = _guarded(lambda: wl.serial_oracle(spec))
            oracle = [float(x) for x in res.losses] if res is not None else None
        _verify(calls, oracle, oracle_failure)

    # only calls that passed every check are samples.
    ok = [c for c in timed if c.failure is None]
    if per_layer and ok:
        with spans.span("bench.probes"):
            # ~60 timed functions share 30 % of the run's seconds.
            timer = probes.Timer(budget_s=0.3 * seconds / 60, once=once)
            layer_metrics.update(probes.run_probes(spec, WORLD, seed, timer, spans))
        launch = layer_metrics[f"transport.launch_s.{wl.backend}"] if wl.backend else 0.0
        layer_metrics.update(_core_metrics(wl, spec, ok, ledger, launch, oracle_wall))

    tokens = wl.tokens_per_call()
    e2e = {}
    if end_to_end:
        e2e["tokens_per_s"] = _stat([c.ref_wall_s for c in ok], lambda w: tokens / w)
        e2e["setup_s"] = _stat(setup)
        e2e["peak_rss_mb"] = _stat([rusage * 1024 / 1e6])
    failures = [
        {"call": i, "reason": c.failure}
        for i, c in enumerate(calls) if c.failure is not None
    ]
    reference = next((c.losses for c in calls if c.losses is not None), None)
    return {
        "name": wl.name,
        "strategy": wl.strategy,
        "backend": wl.backend,
        "world": wl.world,
        "shape": vars(wl.shape),
        "tokens_per_call": tokens,
        "attempted": len(calls),
        "failed": len(failures),
        "failures": failures,
        "correct": not failures,
        "calls": {
            "timed": len(timed),
            "wall_s": _stat([c.wall_s for c in ok]),
            "walls_s": [c.wall_s for c in timed],
            "calib_gflops": [c.calib_gflops for c in timed],
            "ref_gflops": REF_GFLOPS,
            "losses": reference,
            "oracle_losses": oracle,
        },
        "end_to_end": e2e,
        "per_layer": {k: float(v) for k, v in layer_metrics.items()},
        "spans": spans.spans,
    }
