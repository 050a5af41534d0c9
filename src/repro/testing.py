"""Test utilities: gradient checking and the one differential harness.

Two layers of defence keep the reproduction honest:

* :func:`numerical_grad` / :func:`assert_grad_close` validate every
  manual backward in :mod:`repro.nn` against central differences;
* every equivalence gate is a cell of one matrix — strategy x world x
  precision x variant — walked by one driver.  A cell trains a reference
  and one or more arms; :func:`compare_train_results` checks each arm
  against the reference (tolerance zero is bitwise); a disagreement, or
  a worker crash, is a :class:`DifferentialFailure` naming the cell, its
  chaos seed and the ``python -m repro`` command that replays it, kept
  on a :class:`DifferentialReport`.  The matrices:

  - :func:`run_differential` (variant = chaos seed): every strategy on a
    seeded adversarial :class:`~repro.runtime.Fabric` — delays, reorders
    across channels, duplicates, drops-with-retry — against serial, at
    :data:`SERIAL_TOL`.  A strategy that "passes once" on the instant
    fabric but depends on a lucky delivery order fails here;
  - :func:`run_backend_differential`: thread vs process transport, bitwise;
  - :func:`run_traced_backend_differential`: traced vs bare process run,
    bitwise;
  - :func:`run_heal_differential` (variant = transient-fault schedule):
    faulted vs clean run, on both wires, bitwise.

  The two fault scenarios, :func:`run_crash_recovery` and
  :func:`run_self_heal`, are two callers of one probe -> inject ->
  verify skeleton and fill one :class:`ScenarioReport`.

Exported publicly so downstream users extending the layer zoo or the
strategy zoo can check their own ops and schedules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from dataclasses import replace as _replace
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

from .core.api import STRATEGIES, train
from .nn.model import ModelConfig
from .nn.precision import FP32, FP64
from .obs import Tracer, validate_chrome_trace
from .parallel.common import TrainResult, TrainSpec
from .parallel.elastic import train_elastic
from .runtime import ChaosPolicy, Fabric, FailureDetector, ProcessTransport

__all__ = [
    "numerical_grad", "assert_grad_close",
    "SERIAL_TOL", "compare_train_results",
    "DifferentialFailure", "DifferentialMismatch", "DifferentialReport",
    "DEFAULT_DIFFERENTIAL_STRATEGIES", "default_differential_spec",
    "run_differential", "run_backend_differential",
    "run_traced_backend_differential",
    "HEAL_SCHEDULES", "DEFAULT_HEAL_MODES", "run_heal_differential",
    "ScenarioReport", "default_crash_spec", "run_crash_recovery",
    "run_self_heal",
]


def numerical_grad(
    f: Callable[[np.ndarray], float],
    x: np.ndarray,
    eps: float = 1e-6,
) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``f`` at ``x``.

    ``x`` must be float64 for the default ``eps`` to be meaningful.
    O(2 * x.size) evaluations of ``f`` — use small tensors.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x)
        flat[i] = orig - eps
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * eps)
    return grad


def assert_grad_close(
    analytic: np.ndarray,
    numeric: np.ndarray,
    rtol: float = 1e-5,
    atol: float = 1e-7,
    name: str = "grad",
) -> None:
    """Assert analytic and numeric gradients agree, with a useful message."""
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    if analytic.shape != numeric.shape:
        raise AssertionError(
            f"{name}: shape mismatch {analytic.shape} vs {numeric.shape}"
        )
    if not np.allclose(analytic, numeric, rtol=rtol, atol=atol):
        err = np.abs(analytic - numeric)
        rel = err / (np.abs(numeric) + atol)
        raise AssertionError(
            f"{name}: max abs err {err.max():.3e}, max rel err "
            f"{rel.max():.3e} (rtol={rtol}, atol={atol})"
        )


# ---------------------------------------------------------------------------
# the one comparator
# ---------------------------------------------------------------------------

#: the tolerance against serial, ``(rtol, atol)`` on the loss curve and
#: the final weights, then on the accumulated weight updates.  Serial
#: sums the microbatch gradients in another order than a distributed
#: strategy does, so that comparison is a tolerance call; every other
#: gate compares two runs of one strategy, at ``tol=0``: bitwise.
SERIAL_TOL: Tuple[float, float, float, float] = (1e-9, 1e-11, 1e-6, 1e-12)


def compare_train_results(result, ref, spec=None, tol=SERIAL_TOL) -> Optional[str]:
    """The one comparator: ``result`` against the reference ``ref``.

    Checks the loss curve, the number of weight chunks, every final
    weight tensor and — when ``spec`` is given and ``tol`` is not zero —
    the accumulated weight updates (init - final: the integral of the
    weight gradients the optimizer consumed).  ``tol`` is
    ``(rtol, atol, delta_rtol, delta_atol)``; ``0`` demands bitwise
    equality.  A NaN fails at any tolerance.  Returns ``None`` on
    agreement, else the first divergence.
    """
    rtol, atol, d_rtol, d_atol = tol or (0.0,) * 4
    how = f"rtol={rtol}, atol={atol}" if tol else "bitwise"
    a_l = np.asarray(result.losses, dtype=np.float64)
    r_l = np.asarray(ref.losses, dtype=np.float64)
    if a_l.shape != r_l.shape:
        return f"loss curve length {a_l.shape} vs reference {r_l.shape}"
    if not np.allclose(a_l, r_l, rtol=rtol, atol=atol):
        i = int(np.argmin(np.isclose(a_l, r_l, rtol=rtol, atol=atol)))
        return (
            f"loss curve diverges at iter {i}: {a_l[i]!r} vs reference "
            f"{r_l[i]!r} ({how})"
        )
    if len(result.chunks) != len(ref.chunks):
        return f"{len(result.chunks)} weight chunks vs reference {len(ref.chunks)}"
    deltas = spec is not None and bool(tol)
    init = spec.init_chunks() if deltas else ref.chunks
    for i, (a, b, c0) in enumerate(zip(result.chunks, ref.chunks, init)):
        if set(a.keys()) != set(b.keys()):
            return f"chunk {i} parameter names differ"
        for name in a.keys():
            av, bv = np.asarray(a[name]), np.asarray(b[name])
            if not np.allclose(av, bv, rtol=rtol, atol=atol):
                return (
                    f"final weights diverge: chunk {i} param {name!r} "
                    f"max |err|={np.max(np.abs(av - bv)):.3e} ({how})"
                )
            if deltas:
                c = np.asarray(c0[name])
                if not np.allclose(c - av, c - bv, rtol=d_rtol, atol=d_atol):
                    return (
                        f"accumulated weight updates diverge: chunk {i} "
                        f"param {name!r} max |err|={np.max(np.abs(av - bv)):.3e} "
                        f"(rtol={d_rtol}, atol={d_atol})"
                    )
    return None


# ---------------------------------------------------------------------------
# the one matrix
# ---------------------------------------------------------------------------

#: strategy -> world size trained by default: every distributed strategy
#: in the zoo, at the world size the equivalence suite uses (TP needs
#: world | n_heads, hence 2 on the tiny default model).
DEFAULT_DIFFERENTIAL_STRATEGIES: Dict[str, int] = {
    "1f1b": 4,
    "zb1": 4,
    "fsdp": 4,
    "tp": 2,
    "sp": 4,
    "weipipe-naive": 4,
    "weipipe-interleave": 4,
    "weipipe-zb": 4,
}

#: a strategy entry is either a world size (name resolved through
#: repro.core.STRATEGIES) or (world, runner) with a custom
#: ``runner(spec, world, fabric) -> TrainResult`` — the hook the tests
#: use to demonstrate that intentionally broken schedules are caught.
StrategyEntry = Union[int, Tuple[int, Callable]]

_PRECISIONS = {"fp64": FP64, "fp32": FP32}


class DifferentialMismatch(AssertionError):
    """Raised by :meth:`DifferentialReport.raise_if_failed`."""


@dataclass(frozen=True)
class DifferentialFailure:
    """One cell that disagreed with its reference: its label
    (``strategy/P<world>[/precision][/variant]``), the chaos seed its
    wire ran, what diverged, and the ``python -m repro`` arguments that
    replay it."""

    cell: str
    seed: int
    message: str
    replay: str

    def __str__(self) -> str:
        return (
            f"{self.cell} chaos_seed={self.seed}: {self.message}\n"
            f"  reproduce: python -m repro {self.replay}"
        )


@dataclass
class DifferentialReport:
    """Outcome of one matrix sweep.  ``injected`` (fault-schedule cells
    only) aggregates what each schedule's wires injected across the
    sweep; a schedule that injected nothing is a failure."""

    title: str
    runs: int = 0
    failures: List[DifferentialFailure] = field(default_factory=list)
    injected: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [f"{self.title}: {self.runs} runs, {len(self.failures)} failure(s)"]
        for name, agg in self.injected.items():
            shown = {k: int(v) for k, v in agg.items() if v}
            lines.append(f"  {name}: injected {shown or 'nothing'}")
        if self.ok:
            lines.append("  every cell matches its reference")
        return "\n".join(lines + [str(f) for f in self.failures])

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise DifferentialMismatch(self.summary())


def _first_line(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {(str(exc).splitlines() or [''])[0]}"


def _sweep(
    report: DifferentialReport,
    strategies: Mapping[str, StrategyEntry],
    worlds: Optional[Iterable[int]],
    precisions: Optional[Iterable[str]],
    variants: List[Tuple[str, int]],
    spec,
    cell: Callable,
    tol,
    replay: Callable[..., str],
    progress: Optional[Callable[[str, int, Optional[str]], None]],
    raise_on_failure: bool,
) -> DifferentialReport:
    """The one driver: walks strategy x world x precision x variant.

    ``strategies`` maps a name to its largest world; ``worlds=None`` runs
    each at exactly that world.  ``precisions=None`` keeps ``spec``'s.
    ``variants`` are ``(tag, chaos seed)`` pairs.  ``cell(name, runner,
    spec, world, tag, seed)`` trains ``(reference, {arm: result})``;
    every arm is compared with the reference at ``tol``, and an
    exception is that cell's failure rather than the end of the sweep.
    ``replay(name, world, precision, seed)`` is the command line (after
    ``python -m repro``) that reruns a cell.
    """
    spec = spec or default_differential_spec()
    precisions = [None] if precisions is None else list(precisions)
    for prec in precisions:
        if prec is not None and prec not in _PRECISIONS:
            raise ValueError(f"precision must be fp32 or fp64, got {prec!r}")
    runners = {}
    for name, entry in strategies.items():
        if isinstance(entry, int):
            if name not in STRATEGIES:
                raise ValueError(f"unknown strategy {name!r}")
            entry = (entry, STRATEGIES[name])
        runners[name] = entry
    replays: Dict[str, str] = {}
    for name, (cap, runner) in runners.items():
        for world in [cap] if worlds is None else [w for w in worlds if w <= cap]:
            for prec in precisions:
                cell_spec = spec if prec is None else _replace(
                    spec, precision=_PRECISIONS[prec]
                )
                for tag, seed in variants:
                    label = "/".join(filter(None, (name, f"P{world}", prec, tag)))
                    failure = None
                    try:
                        ref, arms = cell(name, runner, cell_spec, world, tag, seed)
                        for arm, res in arms.items():
                            diff = compare_train_results(res, ref, cell_spec, tol)
                            if diff is not None:
                                failure = f"{arm}: {diff}" if arm else diff
                                break
                    except Exception as exc:  # noqa: BLE001 - report, don't abort
                        failure = _first_line(exc)
                    report.runs += 1
                    line = replay(name, world, prec, seed)
                    replays.setdefault(tag, line)
                    if failure is not None:
                        report.failures.append(
                            DifferentialFailure(label, seed, failure, line)
                        )
                    if progress is not None:
                        progress(label, seed, failure)
    # honesty check: a fault schedule that injected nothing anywhere
    # tested nothing — surface it as a failure, not silent green.
    for tag, seed in variants:
        agg = report.injected.get(tag)
        if agg is not None and not any(
            agg.get(k) for k in ("bitflips", "flapped", "stalls", "delayed", "dropped")
        ):
            report.failures.append(DifferentialFailure(
                f"*/{tag}", seed, "schedule injected no faults across the "
                "whole sweep (knobs too weak for this problem size)",
                replays.get(tag, ""),
            ))
    if raise_on_failure:
        report.raise_if_failed()
    return report


def default_differential_spec(**overrides):
    """The sweep's default problem: tiny model, exact fp64 policy.

    Small enough that a full 8-strategy x 20-seed sweep stays in CI
    budget; fp64 so any divergence is a scheduling bug, never rounding.
    """
    cfg = overrides.pop(
        "cfg", ModelConfig(hidden=16, n_layers=4, n_heads=2, seq_len=8, vocab=29)
    )
    base = dict(
        cfg=cfg, n_microbatches=4, microbatch_size=2, iters=2, precision=FP64
    )
    base.update(overrides)
    return TrainSpec(**base)


def run_differential(
    strategies: Optional[Mapping[str, StrategyEntry]] = None,
    chaos_seeds: Iterable[int] = range(4),
    spec=None,
    policy=None,
    fabric_factory: Optional[Callable] = None,
    tol=SERIAL_TOL,
    raise_on_failure: bool = False,
    progress: Optional[Callable[[str, int, Optional[str]], None]] = None,
) -> DifferentialReport:
    """Train every strategy under every chaos seed; diff against serial.

    Parameters
    ----------
    strategies:
        ``{name: world}`` (resolved through :data:`repro.core.STRATEGIES`)
        or ``{name: (world, runner)}`` for custom runners; defaults to
        :data:`DEFAULT_DIFFERENTIAL_STRATEGIES`.
    chaos_seeds:
        The adversaries to sweep.  Each seed is threaded into a
        :class:`~repro.runtime.ChaosPolicy`, so a failure is replayed by
        ``python -m repro chaos-sweep --seed-start S --seeds 1``.
    policy:
        Template :class:`~repro.runtime.ChaosPolicy` (its ``seed`` field
        is replaced per sweep point).  ``None`` uses the default policy.
    fabric_factory:
        ``(world, policy) -> Fabric`` override — e.g. an intentionally
        broken wire in the harness's own self-tests.
    tol:
        The comparator's tolerance against serial (:data:`SERIAL_TOL`).
    progress:
        ``(cell, seed, failure_or_None)`` callback per run (the CLI
        prints live PASS/FAIL lines from it).
    """
    spec = spec or default_differential_spec()
    policy = policy or ChaosPolicy()
    if fabric_factory is None:
        fabric_factory = lambda world, pol: Fabric(world, policy=pol)
    serial = train(spec, "serial", 1)

    def cell(name, runner, cell_spec, world, _tag, seed):
        fabric = fabric_factory(world, policy.with_seed(seed))
        return serial, {"": runner(cell_spec, world, fabric)}

    return _sweep(
        DifferentialReport("differential sweep vs serial"),
        strategies or DEFAULT_DIFFERENTIAL_STRATEGIES, None, None,
        [("", s) for s in chaos_seeds], spec, cell, tol,
        lambda name, world, prec, seed: (
            f"chaos-sweep --strategies {name} --seed-start {seed} --seeds 1"
        ),
        progress, raise_on_failure,
    )


def run_backend_differential(
    strategies: Optional[Mapping[str, int]] = None,
    worlds: Iterable[int] = (2, 4),
    precisions: Iterable[str] = ("fp64", "fp32"),
    spec=None,
    link_delay_s: float = 0.002,
    chaos_seed: int = 1,
    raise_on_failure: bool = False,
    progress: Optional[Callable[[str, int, Optional[str]], None]] = None,
) -> DifferentialReport:
    """Train every strategy on both transports; demand **bitwise** equality.

    A transport changes how frames move between ranks — shared references
    under one interpreter vs shared-memory rings between processes —
    never what is computed, so the loss curves and final weights must
    match bit for bit, not merely to tolerance.  Each cell trains under a
    seeded delay-only wire on the thread backend (``Fabric(policy=...)``)
    and the process backend (:class:`~repro.runtime.ProcessTransport`)
    with identical seeds and compares the two runs directly.

    ``strategies`` maps name -> *maximum* world size (defaults to
    :data:`DEFAULT_DIFFERENTIAL_STRATEGIES`); each strategy runs at every
    world in ``worlds`` that does not exceed its maximum (TP caps at 2 on
    the default model: world must divide ``n_heads``).
    """
    policy = ChaosPolicy(
        seed=chaos_seed, delay_prob=1.0, max_delay=link_delay_s,
        drop_prob=0.0, duplicate_prob=0.0,
    )

    def cell(name, runner, cell_spec, world, _tag, _seed):
        thread = runner(cell_spec, world, Fabric(world, policy=policy, timeout=120.0))
        return thread, {"process": runner(cell_spec, world, ProcessTransport(policy=policy))}

    return _sweep(
        DifferentialReport("backend differential (thread vs process)"),
        strategies or DEFAULT_DIFFERENTIAL_STRATEGIES, worlds, precisions,
        [("", chaos_seed)], spec, cell, 0,
        lambda name, world, prec, seed: (
            f"train --backend process --strategy {name} --world {world} "
            f"--precision {prec}"
        ),
        progress, raise_on_failure,
    )


def run_traced_backend_differential(
    strategies: Optional[Mapping[str, int]] = None,
    worlds: Iterable[int] = (2, 4),
    precisions: Iterable[str] = ("fp64", "fp32"),
    spec=None,
    raise_on_failure: bool = False,
    progress: Optional[Callable[[str, int, Optional[str]], None]] = None,
) -> DifferentialReport:
    """Tracing on the process backend must be **bitwise invisible**.

    Every cell trains twice on a quiet-wire
    :class:`~repro.runtime.ProcessTransport` — once bare, once with a
    live :class:`~repro.obs.Tracer` (per-child spill buffers, parent-side
    merge, clock handshake, metrics merge all active) — and demands the
    two runs agree bit for bit on losses and final weights.  The traced
    run's merged trace must also pass schema validation with one pid per
    rank, or the cell fails.  Worlds beyond a strategy's cap are skipped,
    exactly as in :func:`run_backend_differential`.
    """

    def cell(name, runner, cell_spec, world, _tag, _seed):
        bare = runner(cell_spec, world, ProcessTransport())
        tracer = Tracer(metadata={"strategy": name, "world": world})
        traced = runner(cell_spec, world, ProcessTransport(tracer=tracer))
        doc = tracer.chrome_trace()
        problems = validate_chrome_trace(doc)
        pids = {e["pid"] for e in doc["traceEvents"] if e.get("ph") != "M"}
        if problems or pids != set(range(world)):
            raise DifferentialMismatch(
                f"trace schema: {problems[0]}" if problems else
                f"merged trace covers pids {sorted(pids)}, expected 0..{world - 1}"
            )
        return bare, {"traced": traced}

    return _sweep(
        DifferentialReport("traced differential (traced vs bare process run)"),
        strategies or DEFAULT_DIFFERENTIAL_STRATEGIES, worlds, precisions,
        [("", 0)], spec, cell, 0,
        lambda name, world, prec, seed: (
            f"trace {name} --backend process --world {world}"
        ),
        progress, raise_on_failure,
    )


#: named transient-fault schedules for :func:`run_heal_differential`.
#: Each is a set of :class:`~repro.runtime.ChaosPolicy` overrides applied
#: to a quiet base, so the *only* adversaries in play are the transient
#: faults under test (bit-flips are value-threatening and exercised
#: through the CRC/NACK recovery path; flaps and stalls are timing-only
#: and must never change what is computed).
HEAL_SCHEDULES: Dict[str, Dict[str, float]] = {
    "bitflip": dict(bitflip_prob=0.08),
    "flap": dict(flap_prob=0.08, flap_len=3, flap_delay=0.002),
    "stall": dict(stall_prob=0.05, max_stall=0.008),
    "bitflip+flap": dict(bitflip_prob=0.05, flap_prob=0.05, flap_delay=0.002),
    "storm": dict(
        bitflip_prob=0.05, flap_prob=0.05, flap_delay=0.002,
        stall_prob=0.03, max_stall=0.006,
    ),
}

#: the WeiPipe modes the heal differential covers by default.
DEFAULT_HEAL_MODES: Tuple[str, ...] = (
    "weipipe-naive",
    "weipipe-interleave",
    "weipipe-zb",
    "weipipe-hier",
)


def run_heal_differential(
    modes: Iterable[str] = DEFAULT_HEAL_MODES,
    worlds: Iterable[int] = (2, 4),
    precisions: Iterable[str] = ("fp64", "fp32"),
    schedules: Optional[Mapping[str, Mapping[str, float]]] = None,
    seed: int = 0,
    spec=None,
    raise_on_failure: bool = False,
    progress: Optional[Callable[[str, int, Optional[str]], None]] = None,
) -> DifferentialReport:
    """Transient faults must be invisible: train under seeded bit-flips,
    link flaps and rank stalls and assert **bit-exactness** against a
    clean run of the *same* strategy at the *same* world size.

    The contract is stronger than :func:`run_differential`'s
    tolerance-based serial comparison: a transient fault that stays
    within the retransmit budget never changes group membership, so the
    sequence of delivered payloads — and therefore every loss and every
    weight bit — must be *identical* to the fault-free run.  CRC-driven
    retransmission handles the value-threatening faults (SDC bit-flips);
    flaps and stalls are pure latency and prove the schedule has no
    timing dependence.

    Every cell trains the faulted run twice — on the thread wire
    (``Fabric(policy=...)``) and on the process wire
    (``ProcessTransport(policy=...)``): the chaos layer is the same
    object on both, and both must equal the clean run.  Schedule ``i``
    runs chaos seed ``seed + i``.

    The report also aggregates what each schedule actually injected (on
    both wires) and fails any schedule that injected nothing — a sweep
    that quietly tested the no-fault path would otherwise read as
    coverage.
    """
    schedules = HEAL_SCHEDULES if schedules is None else schedules
    worlds = [int(w) for w in worlds]
    report = DifferentialReport(
        "heal differential (faulted vs clean twin, both wires)",
        injected={name: {} for name in schedules},
    )

    def cell(mode, runner, cell_spec, world, sched, chaos_seed):
        clean = runner(cell_spec, world, None)
        pol = _replace(ChaosPolicy.quiet(chaos_seed), **dict(schedules[sched]))
        wires = {
            "on the thread wire": Fabric(world, policy=pol),
            "on the process wire": ProcessTransport(policy=pol),
        }
        try:
            return clean, {
                arm: runner(cell_spec, world, wire) for arm, wire in wires.items()
            }
        finally:
            agg = report.injected[sched]
            for wire in wires.values():
                for k, v in wire.chaos.as_dict().items():
                    agg[k] = agg.get(k, 0.0) + float(v)

    return _sweep(
        report, dict.fromkeys(modes, max(worlds, default=0)), worlds,
        precisions, [(name, seed + i) for i, name in enumerate(schedules)],
        spec, cell, 0,
        lambda name, world, prec, _seed: (
            f"self-heal --skip-rejoin --modes {name} --worlds {world} "
            f"--precisions {prec} --seed {seed}"
        ),
        progress, raise_on_failure,
    )


# ---------------------------------------------------------------------------
# fault scenarios: probe -> inject -> verify
# ---------------------------------------------------------------------------


def default_crash_spec(**overrides):
    """The fault scenarios' default problem: sized so WeiPipe's
    divisibility constraints (``L % P == 0``, ``N % P == 0``) hold both
    before and after a world-4 → world-3 ring shrink; fp64 so the
    crash harness's check is bit-exact, never a tolerance call."""
    cfg = overrides.pop(
        "cfg", ModelConfig(hidden=16, n_layers=12, n_heads=2, seq_len=8, vocab=29)
    )
    base = dict(
        cfg=cfg, n_microbatches=12, microbatch_size=2, iters=4, precision=FP64
    )
    base.update(overrides)
    return TrainSpec(**base)


@dataclass
class ScenarioReport:
    """Outcome of one fault scenario: :func:`run_crash_recovery` (a rank
    dies, the survivors shrink the ring and finish) or
    :func:`run_self_heal` (a rank's NIC goes down, the rank is confirmed
    dead, then rejoins).  ``verified`` is None when there was nothing to
    verify."""

    scenario: str
    strategy: str
    world: int
    seed: int
    #: what happened to the victim, e.g. "killed" or "NIC down for 0.45s".
    fault: str
    victim: int = -1
    at_post: int = -1
    attempts: int = 0
    losses: List[float] = field(default_factory=list)
    survivors: List[int] = field(default_factory=list)
    #: ring shrinks, then ring re-growths (each event's ``describe()``).
    events: List[str] = field(default_factory=list)
    rejoins: List[str] = field(default_factory=list)
    ring_rejoins: float = 0.0
    detector: Dict[str, float] = field(default_factory=dict)
    #: what the faulted run was verified against.
    reference: str = ""
    verified: Optional[bool] = None
    detail: str = ""

    @property
    def recovered(self) -> bool:
        return bool(self.events)

    @property
    def final_world(self) -> int:
        return len(self.survivors)

    @property
    def ok(self) -> bool:
        return self.verified is not False

    def summary(self) -> str:
        lines = [
            f"{self.scenario}: strategy={self.strategy} world={self.world} "
            f"seed={self.seed} -> rank {self.victim} {self.fault} at its "
            f"{self.at_post}th send ({self.attempts} attempt(s))"
        ]
        lines += [f"  {e}" for e in self.events + self.rejoins]
        if self.rejoins:
            lines.append(
                f"  ring re-grew to {self.final_world} rank(s); "
                f"ring_rejoins={self.ring_rejoins:.0f}, "
                f"detector={ {k: int(v) for k, v in self.detector.items() if v} }"
            )
        if self.verified is True:
            lines.append(f"  differential: matches {self.reference}")
        elif self.detail:
            failed = "FAILED: " if self.verified is False else ""
            lines.append(f"  {failed}{self.detail}")
        return "\n".join(lines)

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise AssertionError(self.summary())


def _probe(report: ScenarioReport, spec, rng, timeout: float):
    """Probe: a quiet run of the scenario's job (the clean reference),
    counting the victim's sends; a victim < 0 is drawn from the seed."""
    fab = Fabric(report.world, policy=ChaosPolicy.quiet(report.seed), timeout=timeout)
    clean = train_elastic(spec, report.strategy, report.world, fabric=fab, timeout=timeout)
    if report.victim < 0:
        report.victim = int(rng.integers(0, report.world))
    return clean, fab.chaos.posts_by_rank.get(report.victim, 0)


def _inject(report: ScenarioReport, spec, policy, timeout: float, **fabric_kw):
    """Inject: train under ``policy`` and record what the ring did."""
    report.attempts += 1
    fabric = Fabric(report.world, policy=policy, timeout=timeout, **fabric_kw)
    result = train_elastic(
        spec, report.strategy, report.world, fabric=fabric, timeout=timeout
    )
    report.losses = list(result.losses)
    report.survivors = list(result.extra["survivors"])
    report.events = [e.describe() for e in result.extra["recovery_events"]]
    report.rejoins = [e.describe() for e in result.extra.get("rejoin_events", ())]
    return result, fabric


def _verdict(report: ScenarioReport, failure: Optional[str]) -> ScenarioReport:
    """Verify: record the comparator's (or the scenario's) verdict."""
    report.verified = failure is None
    report.detail = failure or ""
    return report


def run_crash_recovery(
    spec=None,
    strategy: str = "weipipe-interleave",
    world: int = 4,
    seed: int = 0,
    crash_rank: Optional[int] = None,
    crash_at_post: Optional[int] = None,
    wire_chaos: bool = False,
    verify: bool = True,
    timeout: float = 120.0,
    tracer=None,
    metrics=None,
) -> ScenarioReport:
    """Kill one worker mid-training and check elastic recovery end-to-end.

    1. **Probe** — unless the victim rank and its crash point are both
       pinned, a quiet run counts the victim's sends and (seeded by
       ``seed``) picks a crash point inside the active phase.
    2. **Inject** — rerun with :class:`~repro.runtime.ChaosPolicy`
       injecting :class:`~repro.runtime.ChaosCrash` at that rank/post
       (plus full wire chaos when ``wire_chaos``); the surviving ranks
       must detect the failure, shrink the ring and finish training.
       Only this run is observed by ``tracer`` / ``metrics``.
    3. **Verify** — re-train the post-crash suffix from scratch: a clean
       ``len(survivors)``-rank elastic run seeded from the rollback
       snapshot must reproduce the post-recovery loss curve and final
       weights *bit-for-bit* (the step engines are pure functions of the
       snapshot, and fp64 makes the check exact; with reduced-precision
       policies FSDP's float64 canonical state is re-quantised on resume,
       so use the default fp64 spec for exact verification).
    """
    spec = spec or default_crash_spec()
    report = ScenarioReport(
        "crash-recovery", strategy, world, seed, "killed",
        victim=-1 if crash_rank is None else int(crash_rank),
    )
    rng = np.random.default_rng((abs(int(seed)), 0xC4A54))
    if crash_rank is None or crash_at_post is None:
        _, sends = _probe(report, spec, rng, timeout)
        if crash_at_post is None:
            # keep the crash inside the active phase: late enough that
            # at least one step committed, early enough that survivors
            # are still communicating and must recover.
            lo = max(1, int(sends * 0.10))
            hi = max(lo, int(sends * 0.85))
            crash_at_post = int(rng.integers(lo, hi + 1))
    report.at_post = int(crash_at_post)
    base = ChaosPolicy(seed=seed) if wire_chaos else ChaosPolicy.quiet(seed)
    policy = _replace(base, crash_rank=report.victim, crash_at_post=report.at_post)
    result, _ = _inject(report, spec, policy, timeout, tracer=tracer, metrics=metrics)
    if not report.events:
        report.detail = (
            "crash fired but no survivor needed to recover "
            "(injection point was after the last commit fence)"
        )
        return report
    if not verify:
        report.detail = "differential verification skipped"
        return report

    ev = result.extra["recovery_events"][-1]
    snap = result.extra["rollback_states"][-1]
    suffix_spec = _replace(
        spec,
        iters=spec.iters - ev.step,
        start_iteration=spec.start_iteration + ev.step,
        initial_chunks=snap.chunks,
        initial_opt_state=snap.opt_state,
    )
    clean = train_elastic(suffix_spec, strategy, len(ev.survivors), timeout=timeout)
    report.reference = (
        f"a clean {len(ev.survivors)}-rank run from the rollback snapshot "
        "bit-for-bit"
    )
    suffix = TrainResult(losses=result.losses[ev.step:], chunks=result.chunks)
    return _verdict(report, compare_train_results(suffix, clean, tol=0))


def run_self_heal(
    spec=None,
    strategy: str = "weipipe-interleave",
    world: int = 4,
    seed: int = 0,
    flap_rank: Optional[int] = None,
    flap_duration: float = 0.45,
    min_suspect_s: float = 0.08,
    min_confirm_s: float = 0.25,
    timeout: float = 180.0,
    max_attempts: int = 3,
    tracer=None,
    metrics=None,
) -> ScenarioReport:
    """Knock a rank's NIC out mid-training and check the full heal cycle.

    The scenario: one rank's links go silent for ``flap_duration``
    seconds (its heartbeats are suppressed, its messages held).  The
    failure detector must *suspect* it, then — past the adaptive phi
    threshold — *confirm* it dead; survivors shrink the ring and keep
    training; when the NIC comes back the declared-dead rank requests
    readmission, receives the committed state from the leader at a step
    boundary, and the ring re-grows to the full world.  The healed run
    must match the probe's clean full-world run at :data:`SERIAL_TOL`
    (the step engines are pure functions of the committed state, so the
    loss curve is independent of the detour through the shrunken ring).

    Wall-clock timing is real here (the flap races actual training
    progress), so the harness retries the injection point up to
    ``max_attempts`` times — later in the run each time — until the
    outage lands inside the active phase and a rejoin actually happens.
    """
    spec = spec or default_crash_spec(iters=8)
    report = ScenarioReport(
        "self-heal", strategy, world, seed, f"NIC down for {flap_duration:.2f}s",
        victim=-1 if flap_rank is None else int(flap_rank),
        reference="the clean full-world run (losses, final weights, "
                  "accumulated updates)",
    )
    rng = np.random.default_rng((abs(int(seed)), 0x5E1F))
    clean, sends = _probe(report, spec, rng, timeout)
    last_error = ""
    for attempt in range(max_attempts):
        report.at_post = max(1, int(sends * (0.35, 0.55, 0.75)[min(attempt, 2)]))
        policy = _replace(
            ChaosPolicy.quiet(seed), flap_rank=report.victim,
            flap_rank_at_post=report.at_post, flap_rank_duration=flap_duration,
        )
        detector = FailureDetector(
            min_suspect_s=min_suspect_s, min_confirm_s=min_confirm_s,
            poll_interval=0.01,
        )
        try:
            result, fabric = _inject(
                report, spec, policy, timeout, detector=detector,
                tracer=tracer, metrics=metrics,
            )
        except Exception as exc:  # noqa: BLE001 - retry a lost race
            last_error = _first_line(exc)
            continue
        errors = [e for e in result.extra["worker_errors"] if e]
        if errors or not report.rejoins:
            last_error = f"worker errors: {errors}" if errors else (
                "no rejoin happened (outage landed outside the active phase)"
            )
            continue
        report.ring_rejoins = fabric._m_heal["ring_rejoins"].value
        report.detector = {
            k: float(v) for k, v in detector.as_dict().items()
            if isinstance(v, (int, float))
        }
        if report.final_world != world or report.ring_rejoins < 1:
            return _verdict(report, (
                f"the ring re-grew to {report.final_world} of {world} rank(s), "
                f"ring_rejoins={report.ring_rejoins:.0f}"
            ))
        return _verdict(report, compare_train_results(result, clean, spec=spec))
    return _verdict(
        report, f"no successful heal in {max_attempts} attempt(s); last: {last_error}"
    )
