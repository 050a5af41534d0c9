"""Test utilities: gradient checking and the differential chaos harness.

Two layers of defence keep the reproduction honest:

* :func:`numerical_grad` / :func:`assert_grad_close` validate every
  manual backward in :mod:`repro.nn` against central differences;
* :func:`run_differential` trains *the same seeded problem* under every
  parallel strategy on a chaos :class:`~repro.runtime.Fabric` — a seeded
  adversarial transport that delays, reorders (across channels),
  duplicates and drops-with-retry — and asserts loss curves, final
  weights and accumulated weight updates (the integrated weight-grads)
  agree with the serial baseline for every chaos seed.  A strategy that
  "passes once" on the instant fabric but depends on a lucky delivery
  order fails here with the offending seed named, and
  ``python -m repro chaos-sweep --seed-start S --seeds 1`` replays it.

Exported publicly so downstream users extending the layer zoo or the
strategy zoo can check their own ops and schedules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

__all__ = [
    "numerical_grad",
    "assert_grad_close",
    "DifferentialFailure",
    "DifferentialMismatch",
    "DifferentialReport",
    "DEFAULT_DIFFERENTIAL_STRATEGIES",
    "compare_train_results",
    "default_differential_spec",
    "run_differential",
    "run_backend_differential",
    "run_traced_backend_differential",
    "CrashRecoveryReport",
    "default_crash_spec",
    "run_crash_recovery",
    "HEAL_SCHEDULES",
    "DEFAULT_HEAL_MODES",
    "HealFailure",
    "HealDifferentialReport",
    "run_heal_differential",
    "SelfHealReport",
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
# differential chaos harness
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


class DifferentialMismatch(AssertionError):
    """Raised by :meth:`DifferentialReport.raise_if_failed`."""


@dataclass(frozen=True)
class DifferentialFailure:
    """One (strategy, chaos seed) cell that diverged from serial."""

    strategy: str
    world: int
    seed: int
    message: str

    def __str__(self) -> str:
        return (
            f"strategy={self.strategy!r} world={self.world} "
            f"chaos_seed={self.seed}: {self.message}\n"
            f"  reproduce: python -m repro chaos-sweep --strategies "
            f"{self.strategy} --seed-start {self.seed} --seeds 1"
        )


@dataclass
class DifferentialReport:
    """Outcome of one :func:`run_differential` sweep."""

    strategies: Dict[str, int]
    seeds: List[int]
    runs: int = 0
    failures: List[DifferentialFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        head = (
            f"differential sweep: {len(self.strategies)} strategies x "
            f"{len(self.seeds)} chaos seeds = {self.runs} runs, "
            f"{len(self.failures)} failure(s)"
        )
        if self.ok:
            return head + " — all strategies equivalent to serial"
        return head + "\n" + "\n".join(str(f) for f in self.failures)

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise DifferentialMismatch(self.summary())


def default_differential_spec(**overrides):
    """The sweep's default problem: tiny model, exact fp64 policy.

    Small enough that a full 8-strategy x 20-seed sweep stays in CI
    budget; fp64 so any divergence is a scheduling bug, never rounding.
    """
    from .nn.precision import FP64
    from .nn.model import ModelConfig
    from .parallel.common import TrainSpec

    cfg = overrides.pop(
        "cfg", ModelConfig(hidden=16, n_layers=4, n_heads=2, seq_len=8, vocab=29)
    )
    base = dict(
        cfg=cfg, n_microbatches=4, microbatch_size=2, iters=2, precision=FP64
    )
    base.update(overrides)
    return TrainSpec(**base)


def _weight_deltas(spec, chunks) -> List[Dict[str, np.ndarray]]:
    """Per-parameter accumulated update (init - final): the integral of
    the weight gradients the optimizer consumed, used to compare
    "weight-grads" across strategies without exporting per-step grads."""
    init = spec.init_chunks()
    out = []
    for c0, c1 in zip(init, chunks):
        out.append({name: np.asarray(c0[name]) - np.asarray(c1[name]) for name in c0.keys()})
    return out


def compare_train_results(
    result,
    ref,
    spec=None,
    rtol: float = 1e-9,
    atol: float = 1e-11,
    delta_rtol: float = 1e-6,
    delta_atol: float = 1e-12,
) -> Optional[str]:
    """Compare a strategy run against the serial reference.

    Checks the per-iteration loss curve, every final weight tensor and
    (when ``spec`` is given) the accumulated weight updates.  Returns
    ``None`` on agreement, else a human-readable description of the
    first divergence.
    """
    a_l, r_l = np.asarray(result.losses), np.asarray(ref.losses)
    if a_l.shape != r_l.shape:
        return f"loss curve length {a_l.shape} vs serial {r_l.shape}"
    if not np.allclose(a_l, r_l, rtol=rtol, atol=atol):
        i = int(np.argmax(np.abs(a_l - r_l)))
        return (
            f"loss curve diverges at iter {i}: {a_l[i]!r} vs serial "
            f"{r_l[i]!r} (|err|={abs(a_l[i] - r_l[i]):.3e})"
        )
    if len(result.chunks) != len(ref.chunks):
        return f"{len(result.chunks)} weight chunks vs serial {len(ref.chunks)}"
    for i, (a, b) in enumerate(zip(result.chunks, ref.chunks)):
        if set(a.keys()) != set(b.keys()):
            return f"chunk {i} parameter names differ"
        for name in a.keys():
            av, bv = np.asarray(a[name]), np.asarray(b[name])
            if not np.allclose(av, bv, rtol=rtol, atol=atol):
                err = np.max(np.abs(av - bv))
                return (
                    f"final weights diverge: chunk {i} param {name!r} "
                    f"max |err|={err:.3e} (rtol={rtol}, atol={atol})"
                )
    if spec is not None:
        for i, (da, db) in enumerate(
            zip(_weight_deltas(spec, result.chunks), _weight_deltas(spec, ref.chunks))
        ):
            for name, va in da.items():
                vb = db[name]
                if not np.allclose(va, vb, rtol=delta_rtol, atol=delta_atol):
                    err = np.max(np.abs(va - vb))
                    return (
                        f"accumulated weight updates diverge: chunk {i} "
                        f"param {name!r} max |err|={err:.3e} "
                        f"(rtol={delta_rtol}, atol={delta_atol})"
                    )
    return None


# ---------------------------------------------------------------------------
# crash-recovery differential harness
# ---------------------------------------------------------------------------


def default_crash_spec(**overrides):
    """The crash harness's default problem: sized so WeiPipe's
    divisibility constraints (``L % P == 0``, ``N % P == 0``) hold both
    before and after a world-4 → world-3 ring shrink; fp64 so the
    differential check below is bit-exact, never a tolerance call."""
    from .nn.precision import FP64
    from .nn.model import ModelConfig
    from .parallel.common import TrainSpec

    cfg = overrides.pop(
        "cfg", ModelConfig(hidden=16, n_layers=12, n_heads=2, seq_len=8, vocab=29)
    )
    base = dict(
        cfg=cfg, n_microbatches=12, microbatch_size=2, iters=4, precision=FP64
    )
    base.update(overrides)
    return TrainSpec(**base)


@dataclass
class CrashRecoveryReport:
    """Outcome of one :func:`run_crash_recovery` experiment."""

    strategy: str
    world: int
    seed: int
    crash_rank: int
    crash_at_post: int
    losses: List[float] = field(default_factory=list)
    survivors: List[int] = field(default_factory=list)
    #: ``RecoveryEvent.describe()`` per ring-shrink that happened.
    events: List[str] = field(default_factory=list)
    #: True/False once the differential check ran; None if it could not
    #: (no recovery happened, or verification was disabled).
    verified: Optional[bool] = None
    detail: str = ""

    @property
    def recovered(self) -> bool:
        return bool(self.events)

    def summary(self) -> str:
        head = (
            f"crash-recovery: strategy={self.strategy} world={self.world} "
            f"seed={self.seed} -> rank {self.crash_rank} killed at its "
            f"{self.crash_at_post}th send"
        )
        lines = [head] + [f"  {e}" for e in self.events]
        if not self.events:
            lines.append("  no recovery event (crash landed after the last commit)")
        if self.verified is True:
            lines.append(
                "  differential: post-recovery run matches a clean "
                f"{len(self.survivors)}-rank run from the rollback snapshot "
                "bit-for-bit"
            )
        elif self.verified is False:
            lines.append(f"  differential: MISMATCH — {self.detail}")
        elif self.detail:
            lines.append(f"  {self.detail}")
        return "\n".join(lines)

    def raise_if_failed(self) -> None:
        if self.verified is False:
            raise AssertionError(self.summary())


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
) -> CrashRecoveryReport:
    """Kill one worker mid-training and check elastic recovery end-to-end.

    Three phases:

    1. **Probe** — run the elastic job once on a quiet-policy
       :class:`~repro.runtime.Fabric` to count how many messages
       each rank sends, then (seeded by ``seed``) pick a victim rank and
       a crash point inside the active phase of the run — unless both
       are pinned explicitly.
    2. **Crash** — rerun with :class:`~repro.runtime.ChaosPolicy`
       injecting :class:`~repro.runtime.ChaosCrash` at that rank/post
       (plus full wire chaos when ``wire_chaos``); the surviving ranks
       must detect the failure, shrink the ring and finish training.
    3. **Verify** — re-train the post-crash suffix from scratch: a clean
       ``len(survivors)``-rank elastic run seeded from the rollback
       snapshot must reproduce the post-recovery loss curve and final
       weights *bit-for-bit* (the step engines are pure functions of the
       snapshot, and fp64 makes the check exact; with reduced-precision
       policies FSDP's float64 canonical state is re-quantised on resume,
       so use the default fp64 spec for exact verification).
    """
    from dataclasses import replace as _replace

    from .parallel.elastic import train_elastic
    from .runtime import ChaosPolicy, Fabric

    if spec is None:
        spec = default_crash_spec()

    rng = np.random.default_rng((abs(int(seed)), 0xC4A54))
    if crash_rank is None or crash_at_post is None:
        probe_fab = Fabric(world, policy=ChaosPolicy.quiet(seed), timeout=timeout)
        train_elastic(spec, strategy, world, fabric=probe_fab, timeout=timeout)
        if crash_rank is None:
            crash_rank = int(rng.integers(0, world))
        if crash_at_post is None:
            total = probe_fab.chaos.posts_by_rank.get(crash_rank, 0)
            # keep the crash inside the active phase: late enough that
            # at least one step committed, early enough that survivors
            # are still communicating and must recover.
            lo = max(1, int(total * 0.10))
            hi = max(lo, int(total * 0.85))
            crash_at_post = int(rng.integers(lo, hi + 1))
    crash_rank = int(crash_rank)
    crash_at_post = int(crash_at_post)

    base = ChaosPolicy(seed=seed) if wire_chaos else ChaosPolicy.quiet(seed)
    policy = _replace(base, crash_rank=crash_rank, crash_at_post=crash_at_post)
    # only the crash run is observed: the probe and the clean verify run
    # are scaffolding, and tracing them would bury the interesting events.
    fabric = Fabric(world, policy=policy, timeout=timeout, tracer=tracer,
                    metrics=metrics)
    result = train_elastic(spec, strategy, world, fabric=fabric, timeout=timeout)

    events = result.extra["recovery_events"]
    report = CrashRecoveryReport(
        strategy=strategy,
        world=world,
        seed=seed,
        crash_rank=crash_rank,
        crash_at_post=crash_at_post,
        losses=list(result.losses),
        survivors=list(result.extra["survivors"]),
        events=[e.describe() for e in events],
    )
    if not events:
        report.detail = (
            "crash fired but no survivor needed to recover "
            "(injection point was after the last commit fence)"
        )
        return report
    if not verify:
        report.detail = "differential verification skipped"
        return report

    ev = events[-1]
    snap = result.extra["rollback_states"][-1]
    suffix_spec = _replace(
        spec,
        iters=spec.iters - ev.step,
        start_iteration=spec.start_iteration + ev.step,
        initial_chunks=snap.chunks,
        initial_opt_state=snap.opt_state,
    )
    clean = train_elastic(
        suffix_spec, strategy, len(ev.survivors), timeout=timeout
    )
    suffix = result.losses[ev.step :]
    if list(map(float, suffix)) != list(map(float, clean.losses)):
        report.verified = False
        report.detail = (
            f"post-recovery losses {suffix} != clean-run losses {clean.losses}"
        )
        return report
    for i, (a, b) in enumerate(zip(result.chunks, clean.chunks)):
        err = a.max_abs_diff(b)
        if err != 0.0:
            report.verified = False
            report.detail = f"final weights differ at chunk {i}: max |err|={err:.3e}"
            return report
    report.verified = True
    return report


def run_differential(
    strategies: Optional[Mapping[str, StrategyEntry]] = None,
    chaos_seeds: Iterable[int] = range(4),
    spec=None,
    policy=None,
    fabric_factory: Optional[Callable] = None,
    rtol: float = 1e-9,
    atol: float = 1e-11,
    delta_rtol: float = 1e-6,
    delta_atol: float = 1e-12,
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
        re-running with exactly that seed.
    policy:
        Template :class:`~repro.runtime.ChaosPolicy` (its ``seed`` field
        is replaced per sweep point).  ``None`` uses the default policy.
    fabric_factory:
        ``(world, policy) -> Fabric`` override — e.g. an intentionally
        broken wire in the harness's own self-tests.
    progress:
        ``(strategy, seed, failure_or_None)`` callback per run (the CLI
        prints live PASS/FAIL lines from it).

    A worker crash or deadlock under chaos is recorded as a failure for
    its (strategy, seed) cell rather than aborting the sweep.
    """
    from .core.api import STRATEGIES, train
    from .runtime import ChaosPolicy, Fabric

    if strategies is None:
        strategies = DEFAULT_DIFFERENTIAL_STRATEGIES
    if spec is None:
        spec = default_differential_spec()
    if policy is None:
        policy = ChaosPolicy()
    if fabric_factory is None:
        fabric_factory = lambda world, pol: Fabric(world, policy=pol)

    norm: Dict[str, Tuple[int, Callable]] = {}
    for name, entry in strategies.items():
        if isinstance(entry, int):
            if name not in STRATEGIES:
                raise ValueError(f"unknown strategy {name!r}")
            norm[name] = (entry, STRATEGIES[name])
        else:
            world, runner = entry
            norm[name] = (int(world), runner)

    seeds = list(chaos_seeds)
    report = DifferentialReport(
        strategies={n: w for n, (w, _) in norm.items()}, seeds=seeds
    )
    ref = train(spec, "serial", 1)

    for seed in seeds:
        pol = policy.with_seed(seed)
        for name, (world, runner) in norm.items():
            report.runs += 1
            failure: Optional[str] = None
            try:
                result = runner(spec, world, fabric_factory(world, pol))
                failure = compare_train_results(
                    result, ref, spec=spec, rtol=rtol, atol=atol,
                    delta_rtol=delta_rtol, delta_atol=delta_atol,
                )
            except Exception as exc:  # noqa: BLE001 - chaos legitimately crashes workers
                first_line = (str(exc).splitlines() or [""])[0]
                failure = f"{type(exc).__name__}: {first_line}"
            if failure is not None:
                report.failures.append(
                    DifferentialFailure(name, world, seed, failure)
                )
            if progress is not None:
                progress(name, seed, failure)
    if raise_on_failure:
        report.raise_if_failed()
    return report


# ---------------------------------------------------------------------------
# backend differential harness: thread transport vs process transport
# ---------------------------------------------------------------------------


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
    the default model: world must divide ``n_heads``).  Failures are
    reported per (strategy, world, precision) cell on a
    :class:`DifferentialReport`, with the precision recorded in the cell
    message and the chaos seed in the report's ``seeds``.
    """
    from .runtime import ChaosPolicy, Fabric, ProcessTransport

    policy = ChaosPolicy(
        seed=chaos_seed, delay_prob=1.0, max_delay=link_delay_s,
        drop_prob=0.0, duplicate_prob=0.0,
    )

    def cell(name, runner, cell_spec, world, _variant):
        thread = runner(
            cell_spec, world, Fabric(world, policy=policy, timeout=120.0)
        )
        proc = runner(cell_spec, world, ProcessTransport(policy=policy))
        return _diff_bitwise(thread, proc)

    return _differential_matrix(
        strategies, worlds, precisions, spec, chaos_seed, cell,
        raise_on_failure, progress,
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
    rank, or the cell fails.

    ``strategies`` maps name -> *maximum* world size (defaults to
    :data:`DEFAULT_DIFFERENTIAL_STRATEGIES`); worlds beyond a strategy's
    cap are skipped, exactly as in :func:`run_backend_differential`.
    """
    from .obs import Tracer, validate_chrome_trace
    from .runtime import ProcessTransport

    def cell(name, runner, cell_spec, world, _variant):
        bare = runner(cell_spec, world, ProcessTransport())
        tracer = Tracer(metadata={"strategy": name, "world": world})
        traced = runner(cell_spec, world, ProcessTransport(tracer=tracer))
        failure = _diff_bitwise(bare, traced)
        if failure is not None:
            return failure
        doc = tracer.chrome_trace()
        problems = validate_chrome_trace(doc)
        if problems:
            return f"trace schema: {problems[0]}"
        pids = {e["pid"] for e in doc["traceEvents"] if e.get("ph") != "M"}
        if pids != set(range(world)):
            return (
                f"merged trace covers pids {sorted(pids)}"
                f", expected 0..{world - 1}"
            )
        return None

    return _differential_matrix(
        strategies, worlds, precisions, spec, 0, cell, raise_on_failure, progress
    )


def _bitwise_matrix(
    strategies, worlds, precisions, spec, cell, record, variants=(None,)
) -> None:
    """The strategy x world x precision (x variant) sweep every bitwise
    differential shares.  ``strategies`` maps name -> maximum world;
    ``cell(name, runner, cell_spec, world, variant)`` trains its arms and
    returns a failure message or ``None`` — an exception it raises is
    that cell's failure rather than the end of the sweep — and
    ``record(name, world, precision, variant, failure)`` is the calling
    report's bookkeeping."""
    from dataclasses import replace as _replace

    from .core.api import STRATEGIES
    from .nn.precision import FP32, FP64

    if spec is None:
        spec = default_differential_spec()
    prec_map = {"fp64": FP64, "fp32": FP32}
    worlds = list(worlds)
    precisions = list(precisions)
    for prec in precisions:
        if prec not in prec_map:
            raise ValueError(f"precision must be fp32 or fp64, got {prec!r}")
    for name, max_world in strategies.items():
        if name not in STRATEGIES:
            raise ValueError(f"unknown strategy {name!r}")
        for world in worlds:
            if world > max_world:
                continue
            for prec in precisions:
                cell_spec = _replace(spec, precision=prec_map[prec])
                for variant in variants:
                    try:
                        failure = cell(
                            name, STRATEGIES[name], cell_spec, world, variant
                        )
                    except Exception as exc:  # noqa: BLE001 - report, don't abort
                        first = (str(exc).splitlines() or [""])[0]
                        failure = f"{type(exc).__name__}: {first}"
                    record(name, world, prec, variant, failure)


def _differential_matrix(
    strategies, worlds, precisions, spec, seed, cell, raise_on_failure, progress
) -> DifferentialReport:
    """:func:`_bitwise_matrix` kept on a :class:`DifferentialReport`."""
    if strategies is None:
        strategies = DEFAULT_DIFFERENTIAL_STRATEGIES
    report = DifferentialReport(strategies=dict(strategies), seeds=[seed])

    def record(name, world, prec, _variant, failure):
        report.runs += 1
        if failure is not None:
            report.failures.append(DifferentialFailure(
                name, world, seed, f"[{prec}] {failure}"
            ))
        if progress is not None:
            progress(f"{name}/P{world}/{prec}", seed, failure)

    _bitwise_matrix(strategies, worlds, precisions, spec, cell, record)
    if raise_on_failure:
        report.raise_if_failed()
    return report


def _diff_bitwise(thread, proc) -> Optional[str]:
    """Bitwise comparison of two TrainResults (backend differential)."""
    if list(thread.losses) != list(proc.losses):
        diffs = [
            i for i, (a, b) in enumerate(zip(thread.losses, proc.losses))
            if a != b
        ]
        return f"loss curves differ bitwise at iters {diffs}"
    if len(thread.chunks) != len(proc.chunks):
        return (
            f"{len(proc.chunks)} weight chunks vs thread "
            f"{len(thread.chunks)}"
        )
    for i, (a, b) in enumerate(zip(thread.chunks, proc.chunks)):
        if set(a.keys()) != set(b.keys()):
            return f"chunk {i} parameter names differ"
        for key in a.keys():
            if not np.array_equal(np.asarray(a[key]), np.asarray(b[key])):
                return f"final weights differ bitwise: chunk {i} param {key!r}"
    return None


# ---------------------------------------------------------------------------
# self-healing harnesses: transient-fault differential + rejoin scenario
# ---------------------------------------------------------------------------

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


@dataclass(frozen=True)
class HealFailure:
    """One (mode, world, precision, schedule) cell that was not bit-exact."""

    strategy: str
    world: int
    precision: str
    schedule: str
    seed: int
    message: str

    def __str__(self) -> str:
        return (
            f"strategy={self.strategy!r} world={self.world} "
            f"precision={self.precision} schedule={self.schedule!r} "
            f"seed={self.seed}: {self.message}"
        )


@dataclass
class HealDifferentialReport:
    """Outcome of one :func:`run_heal_differential` sweep."""

    modes: List[str]
    worlds: List[int]
    precisions: List[str]
    schedules: List[str]
    runs: int = 0
    failures: List[HealFailure] = field(default_factory=list)
    #: per-schedule aggregated fault/heal counts across the whole sweep
    #: (bitflips, corrupt_frames, retransmits, flapped, stalls, ...).
    injected: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        head = (
            f"heal differential: {len(self.modes)} modes x "
            f"{len(self.worlds)} worlds x {len(self.precisions)} precisions "
            f"x {len(self.schedules)} fault schedules = {self.runs} runs, "
            f"{len(self.failures)} failure(s)"
        )
        lines = [head]
        for name in self.schedules:
            agg = self.injected.get(name, {})
            shown = {k: int(v) for k, v in agg.items() if v}
            lines.append(f"  {name}: injected {shown or 'nothing'}")
        if self.ok:
            lines.append("  all runs bit-exact with their clean full-world twin")
        else:
            lines.extend(f"  {f}" for f in self.failures)
        return "\n".join(lines)

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise DifferentialMismatch(self.summary())


def run_heal_differential(
    modes: Iterable[str] = DEFAULT_HEAL_MODES,
    worlds: Iterable[int] = (2, 4),
    precisions: Iterable[str] = ("fp64", "fp32"),
    schedules: Optional[Mapping[str, Mapping[str, float]]] = None,
    seed: int = 0,
    spec=None,
    raise_on_failure: bool = False,
    progress: Optional[Callable[[str, str, Optional[str]], None]] = None,
) -> HealDifferentialReport:
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
    object on both, and both must equal the clean run.

    The report also aggregates what each schedule actually injected (on
    both wires) and fails any schedule that injected nothing — a sweep
    that quietly tested the no-fault path would otherwise read as
    coverage.
    """
    from dataclasses import replace as _replace

    from .runtime import ChaosPolicy, Fabric, ProcessTransport

    if schedules is None:
        schedules = HEAL_SCHEDULES
    modes = list(modes)
    worlds = [int(w) for w in worlds]
    precisions = list(precisions)
    report = HealDifferentialReport(
        modes=modes, worlds=worlds, precisions=precisions,
        schedules=list(schedules),
    )
    report.injected = {name: {} for name in schedules}
    seed_of = {name: seed + i for i, name in enumerate(schedules)}

    def cell(mode, runner, cell_spec, world, sched):
        clean = runner(cell_spec, world, None)
        pol = _replace(ChaosPolicy.quiet(seed_of[sched]), **dict(schedules[sched]))
        wires = {
            "thread": Fabric(world, policy=pol),
            "process": ProcessTransport(policy=pol),
        }
        try:
            for label, wire in wires.items():
                failure = _diff_bitwise(clean, runner(cell_spec, world, wire))
                if failure is not None:
                    return f"on the {label} wire: {failure}"
        finally:
            agg = report.injected[sched]
            for wire in wires.values():
                for k, v in wire.chaos.as_dict().items():
                    agg[k] = agg.get(k, 0.0) + float(v)
        return None

    def record(mode, world, precision, sched, failure):
        report.runs += 1
        if failure is not None:
            report.failures.append(HealFailure(
                mode, world, precision, sched, seed_of[sched], failure
            ))
        if progress is not None:
            progress(f"{mode}/P{world}/{precision}/{sched}", sched, failure)

    _bitwise_matrix(
        dict.fromkeys(modes, max(worlds, default=0)), worlds, precisions, spec,
        cell, record, variants=list(schedules),
    )
    # honesty check: a schedule that injected no faults anywhere tested
    # nothing — surface it as a failure, not silent green.
    for sched in schedules:
        agg = report.injected[sched]
        fired = sum(
            agg.get(k, 0.0)
            for k in ("bitflips", "flapped", "stalls", "delayed", "dropped")
        )
        if fired == 0:
            report.failures.append(
                HealFailure(
                    "*", 0, "*", sched, seed,
                    "schedule injected no faults across the whole sweep "
                    "(knobs too weak for this problem size)",
                )
            )
    if raise_on_failure:
        report.raise_if_failed()
    return report


@dataclass
class SelfHealReport:
    """Outcome of one :func:`run_self_heal` rejoin scenario."""

    strategy: str
    world: int
    seed: int
    flap_rank: int = -1
    flap_at_post: int = -1
    flap_duration: float = 0.0
    attempts: int = 0
    losses: List[float] = field(default_factory=list)
    #: ring shrinks (``RecoveryEvent.describe()``).
    events: List[str] = field(default_factory=list)
    #: ring re-growths (``RejoinEvent.describe()``).
    rejoins: List[str] = field(default_factory=list)
    final_world: int = 0
    ring_rejoins: float = 0.0
    detector: Dict[str, float] = field(default_factory=dict)
    verified: Optional[bool] = None
    detail: str = ""

    @property
    def healed(self) -> bool:
        return bool(self.rejoins) and self.final_world == self.world

    @property
    def ok(self) -> bool:
        return self.healed and self.ring_rejoins >= 1 and self.verified is True

    def summary(self) -> str:
        head = (
            f"self-heal: strategy={self.strategy} world={self.world} "
            f"seed={self.seed} -> rank {self.flap_rank} NIC down for "
            f"{self.flap_duration:.2f}s at its {self.flap_at_post}th send "
            f"({self.attempts} attempt(s))"
        )
        lines = [head]
        lines += [f"  {e}" for e in self.events]
        lines += [f"  {e}" for e in self.rejoins]
        if self.healed:
            lines.append(
                f"  ring re-grew to the full world of {self.final_world} "
                f"rank(s); ring_rejoins={self.ring_rejoins:.0f}, "
                f"detector={ {k: int(v) for k, v in self.detector.items() if v} }"
            )
        if self.verified is True:
            lines.append(
                "  differential: healed run matches the clean full-world "
                "run (losses, final weights, accumulated updates)"
            )
        elif self.verified is False:
            lines.append(f"  differential: MISMATCH — {self.detail}")
        elif self.detail:
            lines.append(f"  {self.detail}")
        return "\n".join(lines)

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise AssertionError(self.summary())


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
) -> SelfHealReport:
    """Knock a rank's NIC out mid-training and check the full heal cycle.

    The scenario: one rank's links go silent for ``flap_duration``
    seconds (its heartbeats are suppressed, its messages held).  The
    failure detector must *suspect* it, then — past the adaptive phi
    threshold — *confirm* it dead; survivors shrink the ring and keep
    training; when the NIC comes back the declared-dead rank requests
    readmission, receives the committed state from the leader at a step
    boundary, and the ring re-grows to the full world.  The healed run
    must match a clean full-world run (the step engines are pure
    functions of the committed state, so the loss curve is independent
    of the detour through the shrunken ring).

    Wall-clock timing is real here (the flap races actual training
    progress), so the harness probes the victim's send count first and
    retries the injection point up to ``max_attempts`` times — later in
    the run each time — until the outage lands inside the active phase
    and a rejoin actually happens.
    """
    from dataclasses import replace as _replace

    from .parallel.elastic import train_elastic
    from .runtime import ChaosPolicy, Fabric, FailureDetector

    if spec is None:
        spec = default_crash_spec(iters=8)

    report = SelfHealReport(
        strategy=strategy, world=world, seed=seed, flap_duration=flap_duration
    )
    rng = np.random.default_rng((abs(int(seed)), 0x5E1F))

    probe_fab = Fabric(world, policy=ChaosPolicy.quiet(seed), timeout=timeout)
    clean = train_elastic(spec, strategy, world, fabric=probe_fab, timeout=timeout)
    if flap_rank is None:
        flap_rank = int(rng.integers(0, world))
    report.flap_rank = int(flap_rank)
    total_posts = probe_fab.chaos.posts_by_rank.get(report.flap_rank, 0)

    fractions = (0.35, 0.55, 0.75)
    last_error = ""
    for attempt in range(max_attempts):
        report.attempts = attempt + 1
        frac = fractions[min(attempt, len(fractions) - 1)]
        at_post = max(1, int(total_posts * frac))
        report.flap_at_post = at_post
        policy = _replace(
            ChaosPolicy.quiet(seed),
            flap_rank=report.flap_rank,
            flap_rank_at_post=at_post,
            flap_rank_duration=flap_duration,
        )
        detector = FailureDetector(
            min_suspect_s=min_suspect_s,
            min_confirm_s=min_confirm_s,
            poll_interval=0.01,
        )
        fabric = Fabric(world, policy=policy, timeout=timeout, detector=detector,
                        tracer=tracer, metrics=metrics)
        try:
            result = train_elastic(
                spec, strategy, world, fabric=fabric, timeout=timeout
            )
        except Exception as exc:  # noqa: BLE001 - retry a lost race
            last_error = f"{type(exc).__name__}: {(str(exc).splitlines() or [''])[0]}"
            continue
        errors = result.extra["worker_errors"]
        rejoins = result.extra["rejoin_events"]
        if any(errors) or not rejoins:
            last_error = (
                "no rejoin happened (outage landed outside the active phase)"
                if not rejoins
                else f"worker errors: {[e for e in errors if e]}"
            )
            continue
        report.losses = list(result.losses)
        report.events = [e.describe() for e in result.extra["recovery_events"]]
        report.rejoins = [e.describe() for e in rejoins]
        report.final_world = len(result.extra["survivors"])
        report.ring_rejoins = fabric._m_heal["ring_rejoins"].value
        report.detector = {
            k: float(v) for k, v in detector.as_dict().items()
            if isinstance(v, (int, float))
        }
        diff = compare_train_results(result, clean, spec=spec)
        report.verified = diff is None
        report.detail = diff or ""
        return report
    report.detail = (
        f"no successful heal in {max_attempts} attempt(s); last: {last_error}"
    )
    return report
