"""Analytic cost model: FLOPs, bytes and times for Llama-style training.

Notation follows the paper's Table 1: ``H`` hidden size, ``S`` sequence
length, ``G`` microbatch size, ``L`` layers, ``N`` microbatches per
iteration, ``P`` workers.  All sizes below are per *microbatch* and per
*layer* unless stated otherwise.

Compute
-------
Dense-GEMM forward FLOPs per layer are ``2 * params * G * S`` with
``params = 12 H^2`` (Llama: ``4H^2`` attention + ``8H^2`` SwiGLU), plus
causal attention score/value FLOPs ``2 G S^2 H``.  Backward costs twice
the forward (the paper's "backward takes approximately twice as long"),
split evenly between its B and W halves for zero-bubble schedules.
Recomputation is priced by the runtime's checkpoint rule
(:mod:`repro.nn.checkpoint`): :meth:`CostModel.op_times` charges each
``B`` op of a rank's program the replays ``replayed_chunks`` counts for
it, each at ``replay_flops`` — no down projection and, with Flash
Attention, no attention core.

Realised throughput is ``peak_flops * efficiency`` where the efficiency
curve saturates in both GEMM width and token count::

    eff = EFF_MAX * H/(H + H_HALF) * GS/(GS + TOK_HALF)

calibrated against Table 2 (H=1024 lands near 22% MFU, H=4096 near
40%).  The token term is what penalises the ZB baselines when OOM forces
their ``G`` down to 1 (Section 6.1).

Memory
------
Per-layer fp16 activation-cache coefficients (with Flash Attention; the
``S^2`` probability matrix adds back when it is off):

* ``ACT_FULL_PER_TOKEN``  — ~18.7 H-equivalents of stored tensors
  (8 hidden-wide + 4 FFN-wide at F=8H/3) => ~37 bytes/token/H in fp16;
* ``BGRAD_PER_TOKEN``     — B-pass gradient bundle, ~= the forward
  activations (the paper's ``M_B ~= M_A`` assumption);
* the recompute checkpoint — ``checkpoint_elements`` per layer (the
  layer input, plus the streaming core's ``out`` and ``logsumexp``).

The loss is computed in row chunks (standard practice) so logits never
materialise at full ``G*S*V``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from statistics import fmean
from typing import Dict, List, Sequence, Tuple

from ..core.api import ZOO, rank_programs
from ..nn.checkpoint import checkpoint_elements, replay_flops, replayed_chunks
from ..nn.layer import layer_param_count
from ..nn.model import chunk_factored, default_ffn, model_param_count
from ..parallel.common import Sizes
from .hardware import GPU

__all__ = ["WorkloadDims", "ExecConfig", "CostModel", "PRECISION_WIDTHS"]


# -- calibration constants (see module docstring and EXPERIMENTS.md) ----------

EFF_MAX = 0.55
H_HALF = 1500.0
TOK_HALF = 800.0

#: fp16 bytes/token/hidden-unit of a full layer activation cache (flash on).
ACT_FULL_COEF = 37.0
#: ditto for the B-pass gradient bundle (M_B ~= M_A).
BGRAD_COEF = 30.0
#: loss rows processed at a time (bounds transient logits memory).
LOSS_CHUNK_ROWS = 2048


@dataclass(frozen=True)
class WorkloadDims:
    """One cell of the paper's evaluation grid."""

    hidden: int
    n_layers: int
    seq_len: int
    microbatch: int  # G
    n_microbatches: int  # N
    n_heads: int = 32
    vocab: int = 32000

    @property
    def ffn(self) -> int:
        """The runtime's FFN width (:func:`~repro.nn.model.default_ffn`)."""
        return default_ffn(self.hidden)

    @property
    def layer_params(self) -> int:
        return layer_param_count(self.hidden, self.ffn)

    @property
    def model_params(self) -> int:
        """The runtime's parameter count (:func:`~repro.nn.model.model_param_count`)."""
        return model_param_count(self)

    @property
    def tokens_per_microbatch(self) -> int:
        return self.microbatch * self.seq_len

    @property
    def tokens_per_iteration(self) -> int:
        return self.tokens_per_microbatch * self.n_microbatches

    def with_(self, **kw) -> "WorkloadDims":
        return replace(self, **kw)


#: per-precision storage/wire widths for :meth:`ExecConfig.for_precision`.
#: fp16 trains with an fp32 master + Adam moments (12 B/param of
#: optimizer state); fp32 and fp64 need no separate master, only the
#: moments.  A traced run names its arrays' width (``trace_metadata``).
PRECISION_WIDTHS = {
    "fp16": dict(
        act_bytes=2, bgrad_bytes=2, weight_bytes=2, wgrad_bytes=2,
        optimizer_bytes_per_param=12,
    ),
    "fp32": dict(
        act_bytes=4, bgrad_bytes=4, weight_bytes=4, wgrad_bytes=4,
        optimizer_bytes_per_param=8,
    ),
    "fp64": dict(
        act_bytes=8, bgrad_bytes=8, weight_bytes=8, wgrad_bytes=8,
        optimizer_bytes_per_param=16,
    ),
}


@dataclass(frozen=True)
class ExecConfig:
    """Execution knobs shared by all strategies (paper Section 5)."""

    act_bytes: int = 2  # fp16 activations
    bgrad_bytes: int = 2  # bf16 activation grads
    weight_bytes: int = 2  # fp16 weights on the wire
    wgrad_bytes: int = 2  # fp16 weight grads on the wire
    optimizer_bytes_per_param: int = 12  # fp32 master + Adam m, v
    recompute: bool = True
    flash_attention: bool = True
    overlap: bool = True  # comm/compute overlap (batch_isend_irecv)

    @classmethod
    def for_precision(
        cls,
        precision: str,
        recompute: bool = True,
        overlap: bool = True,
        flash_attention: bool = True,
    ) -> "ExecConfig":
        """The exec config of a named training precision — the per-config
        query the auto-parallelism planner enumerates over."""
        try:
            widths = PRECISION_WIDTHS[precision]
        except KeyError:
            raise ValueError(
                f"unknown precision {precision!r}; choose from "
                f"{sorted(PRECISION_WIDTHS)}"
            ) from None
        return cls(
            recompute=recompute, overlap=overlap,
            flash_attention=flash_attention, **widths,
        )


class CostModel:
    """Times and sizes for one workload on one GPU model.

    An op costs its FLOPs at the GPU's realised throughput plus the
    GPU's fixed ``op_overhead`` (:class:`~repro.sim.hardware.GPU`), so a
    model built on any cluster's ``gpu`` prices ops the same way.
    """

    def __init__(
        self,
        dims: WorkloadDims,
        gpu: GPU,
        exec_cfg: ExecConfig = ExecConfig(),
    ):
        self.dims = dims
        self.gpu = gpu
        self.cfg = exec_cfg

    @classmethod
    def calibrated(
        cls,
        dims: WorkloadDims,
        t_fwd_layer_measured: float,
        exec_cfg: ExecConfig = ExecConfig(),
    ) -> "CostModel":
        """A model whose effective throughput is solved from a *measured*
        per-layer forward time, so its ``t_fwd_layer()`` reproduces the
        measurement exactly.

        This is how the trace analyzer (:mod:`repro.obs.analyze`)
        reconciles the functional runtime against the model: the runtime
        is NumPy on CPU, nowhere near the A800 constants, so the
        GPU-flops knob is re-fit from the trace's forward spans and the
        GPU's ``op_overhead`` is 0 (the measured span already contains
        the real dispatch overhead).  Everything derived — the 2x
        backward, recompute, the DES on any cluster of this ``gpu`` —
        then predicts in the measured time base.
        """
        if t_fwd_layer_measured <= 0.0:
            raise ValueError("t_fwd_layer_measured must be positive")
        probe = cls(dims, GPU(name="calibrated", flops=1.0, memory=0.0,
                              op_overhead=0.0), exec_cfg)
        flops = probe.flops_fwd_layer() / (
            t_fwd_layer_measured * probe.efficiency()
        )
        return cls(dims, replace(probe.gpu, flops=flops), exec_cfg)

    # -- compute ---------------------------------------------------------------

    def efficiency(self) -> float:
        """Fraction of peak FLOPS realised for this workload's op shapes."""
        h = self.dims.hidden
        gs = self.dims.tokens_per_microbatch
        return EFF_MAX * (h / (h + H_HALF)) * (gs / (gs + TOK_HALF))

    def flops_fwd_terms(self) -> Dict[str, float]:
        """One layer forward's FLOPs, in the terms of
        :func:`repro.nn.accounting.layer_fwd_flops`: ``2 * params * G S``
        of GEMMs (``ffn`` of them the SwiGLU's) plus the causal half of the
        attention core's score and value products."""
        d = self.dims
        core = 2.0 * d.microbatch * d.seq_len**2 * d.hidden
        return {
            "total": 2.0 * d.layer_params * d.tokens_per_microbatch + core,
            "ffn": 6.0 * d.hidden * d.ffn * d.tokens_per_microbatch,
            "attention_scores": core,
        }

    def flops_fwd_layer(self) -> float:
        return self.flops_fwd_terms()["total"]

    def flops_replay_layer(self) -> float:
        """What one layer's replay re-runs: the checkpoint rule's
        :func:`~repro.nn.checkpoint.replay_flops` of this forward."""
        return replay_flops(self.flops_fwd_terms(), self.cfg.flash_attention)

    def _flop_time(self, flops: float) -> float:
        return flops / (self.gpu.flops * self.efficiency()) + self.gpu.op_overhead

    def t_fwd_layer(self) -> float:
        """Seconds to forward one layer for one microbatch; the B and W
        halves of its backward cost one each (the paper's 2x)."""
        return self._flop_time(self.flops_fwd_layer())

    def t_replay_layer(self) -> float:
        """Seconds to replay one layer's forward (:meth:`flops_replay_layer`)."""
        return self._flop_time(self.flops_replay_layer())

    def op_times(
        self, ops: Sequence[Tuple[str, object]], layers: int, factored: bool = False
    ) -> List[float]:
        """Seconds of each op of one rank's program over ``layers``-layer
        units: ``F`` and ``W`` one forward each; ``B`` two, or one in a
        program with ``W`` ops, plus — when recomputing — the replays
        :func:`~repro.nn.checkpoint.replayed_chunks` counts for it.  A
        ``factored`` program's weight gradients are formed apart, once per
        iteration (DESIGN.md §17): its ``B`` is the input half alone and
        its ``W`` runs no GEMM."""
        split = any(kind == "W" for kind, _ in ops)
        b = 1.0 if split or factored else 2.0
        w = 0.0 if factored else 1.0
        replays = replayed_chunks(ops, layers) if self.cfg.recompute else [0] * len(ops)
        t_f, t_replay = self.t_fwd_layer(), self.t_replay_layer()
        return [
            layers * t_f * {"B": b, "W": w}.get(kind, 1.0) + n * t_replay
            for (kind, _), n in zip(ops, replays)
        ]

    def factored(self, whole: bool) -> List[bool]:
        """Per chunk: is its weight gradient formed from factor bundles,
        once per iteration (DESIGN.md §17)?  On a loop that keeps whole
        gradients (``whole``), where the chunk is below the regime
        boundary."""
        d = self.dims
        return [whole and chunk_factored(d, i, d.tokens_per_microbatch)
                for i in range(d.n_layers)]

    def op_means(self, strategy: str, world: int) -> Tuple[float, float]:
        """``(T_F, T_B)`` of one unit — a stage's, a slot's or the whole
        model's layers — averaged over every op of every rank's program
        under ``strategy`` (:func:`~repro.core.api.rank_programs`) at
        :meth:`op_times`: what the §4.4 closed forms
        (:mod:`repro.sim.analytic`) take per op."""
        programs, units = rank_programs(strategy, world, self.dims.n_microbatches)
        layers = self.dims.n_layers // units
        factored = all(self.factored(ZOO[strategy].whole))
        priced = [(k, t) for ops in programs
                  for (k, _), t in zip(ops, self.op_times(ops, layers, factored))]
        return tuple(fmean(t for k, t in priced if k == kind) for kind in "FB")

    def overlapped(self, compute: float, comm: float) -> float:
        """Combine a turn's compute and wire legs per the exec config.

        Overlapping transports (``batch_isend_irecv`` posted before the
        compute, the double-buffered runtime ring) hide the shorter leg:
        the turn costs ``max(compute, comm)``.  Blocking transports
        serialise the legs: ``compute + comm``."""
        if self.cfg.overlap:
            return max(compute, comm)
        return compute + comm

    def sizes(self, world: int) -> Sizes:
        """What the message table's rows are sized from on ``world`` ranks
        (:class:`~repro.parallel.common.Sizes`): these dims at this
        config's wire widths."""
        c, d = self.cfg, self.dims
        return Sizes(d, d.microbatch, d.n_microbatches, world, {
            "act": c.act_bytes, "act_grad": c.bgrad_bytes, "weight": c.weight_bytes,
            "wgrad": c.wgrad_bytes, "dtype": c.weight_bytes,
        })

    # -- per-layer memory ----------------------------------------------------------

    def act_full_cache_bytes(self) -> float:
        """Full (no-recompute) activation cache of one layer, one microbatch."""
        d = self.dims
        base = ACT_FULL_COEF * d.tokens_per_microbatch * d.hidden
        if not self.cfg.flash_attention:
            base += (
                2.0 * d.microbatch * d.n_heads * d.seq_len**2 * self.cfg.act_bytes
            )
        return base

    def checkpoint_bytes(self) -> float:
        """Recompute mode: what one layer's checkpoint keeps
        (:func:`~repro.nn.checkpoint.checkpoint_elements`)."""
        d = self.dims
        return checkpoint_elements(
            d.tokens_per_microbatch, d.hidden, d.n_heads, self.cfg.flash_attention
        ) * self.cfg.act_bytes

    def bgrad_cache_bytes(self) -> float:
        """B-pass gradient bundle alive until the matching W pass."""
        d = self.dims
        return BGRAD_COEF * d.tokens_per_microbatch * d.hidden

    def logits_transient_bytes(self) -> float:
        """Chunked loss: logits for LOSS_CHUNK_ROWS positions at a time."""
        d = self.dims
        rows = min(LOSS_CHUNK_ROWS, d.tokens_per_microbatch)
        return rows * d.vocab * self.cfg.act_bytes

    def weights_resident_bytes(self, layers: float) -> float:
        """fp16 weights + fp16 grad buffer for ``layers`` layers."""
        return self.dims.layer_params * layers * (
            self.cfg.weight_bytes + self.cfg.wgrad_bytes
        )

    def optimizer_bytes(self, layers: float) -> float:
        """fp32 master + Adam moments for the layers this worker updates."""
        return self.dims.layer_params * layers * self.cfg.optimizer_bytes_per_param

    def state_bytes_per_param(self) -> int:
        """A parameter's full state: weight + grad buffer + optimizer."""
        c = self.cfg
        return c.weight_bytes + c.wgrad_bytes + c.optimizer_bytes_per_param

    def embedding_bytes(self) -> float:
        """Embedding + head storage (weights+grad+optimizer) where resident."""
        d = self.dims
        return 2.0 * d.vocab * d.hidden * self.state_bytes_per_param()
