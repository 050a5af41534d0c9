"""High-level training API: one entry point, every strategy by name.

>>> from repro import ModelConfig, TrainSpec, train
>>> spec = TrainSpec(cfg=ModelConfig(hidden=32, n_layers=4, n_heads=2,
...                                  seq_len=16, vocab=64),
...                  n_microbatches=8)
>>> result = train(spec, strategy="weipipe-interleave", world_size=4)
>>> result.losses  # doctest: +SKIP

All strategies train the identical problem defined by the
:class:`~repro.parallel.common.TrainSpec` and return a
:class:`~repro.parallel.common.TrainResult`; swapping the strategy
string must not change the numbers (see ``tests/integration``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..parallel.common import Post, RankLoop, TrainResult, TrainSpec
from ..parallel.data_parallel import DPLoop, train_data_parallel
from ..parallel.fsdp import FSDPLoop, train_fsdp
from ..parallel.pipeline import StageLoop, splits_backward, stage_program, train_pipeline
from ..parallel.serial import train_serial
from ..parallel.sequence_parallel import SPLoop, train_sequence_parallel
from ..parallel.tensor_parallel import TPLoop, train_tensor_parallel
from ..runtime import Fabric, Topology, default_groups
from .schedule import ring_program, ring_splits_backward
from .weipipe import RingLoop, train_weipipe

__all__ = ["train", "Strategy", "ZOO", "strategy_names", "rank_programs", "posts"]

Runner = Callable[[TrainSpec, int, Optional[Fabric]], TrainResult]


@dataclass(frozen=True)
class Strategy:
    """One row of the strategy zoo: what a strategy *is*, for every reader.

    ``run(spec, world, fabric)`` trains it.  ``family`` (serial / dp /
    fsdp / pipeline / ring / tp / sp) selects the per-family machinery the
    other layers keep beside their own code — the DES builder
    (``sim.runner``), the memory model (``sim.memory``) and the loop one
    rank runs (:data:`_LOOPS`, which ``parallel.elastic`` also builds) —
    so ``core`` never imports ``sim``.  ``schedule`` is the family's row:
    a ``PIPELINE_SCHEDULES`` schedule or a ``RING_SCHEDULES`` mode;
    ``hier`` marks the two-level ring.  ``divides`` names the sizes the
    parallel degree must divide (``layers`` / ``heads`` / ``ffn`` /
    ``seq`` / ``microbatches``).
    """

    name: str
    family: str
    run: Runner
    schedule: Optional[str] = None
    hier: bool = False
    divides: Tuple[str, ...] = ()
    #: the runtime keeps full caches and refuses ``recompute``.
    full_cache: bool = False
    #: the world :func:`repro.testing.run_differential` trains it at by
    #: default; ``None`` leaves it out of the default matrix.  The four
    #: left out are checked against serial elsewhere: ``gpipe``, ``zb2``
    #: and ``dp`` in ``tests/integration/test_equivalence.py``,
    #: ``weipipe-hier`` in ``tests/integration/test_weipipe_hier.py``.
    differential_world: Optional[int] = None

    @property
    def simulated(self) -> bool:
        """The DES and the memory model price every family but serial."""
        return self.family != "serial"

    @property
    def split_backward(self) -> bool:
        """Does its program run W apart from B?"""
        if self.family == "ring":
            return ring_splits_backward(self.schedule)
        return self.family == "pipeline" and splits_backward(self.schedule)

    @property
    def recompute(self) -> bool:
        """The execution rule (``sim.runner.exec_for``): recompute unless
        the backward is split (paper §5) or the runtime keeps full caches."""
        return not (self.split_backward or self.full_cache)

    @property
    def whole(self) -> bool:
        """Does its loop keep each chunk's whole gradient, so that below
        the regime boundary it forms it from factor bundles
        (``RankLoop.whole``, DESIGN.md §17)?"""
        return _LOOPS[self.family].whole

    @property
    def overlap(self) -> bool:
        """Only the weight rings post their wire ahead of the compute."""
        return self.family == "ring"

    def divisible(self, degree: int, **sizes: int) -> bool:
        """Does ``degree`` divide each of ``sizes`` (keyed ``layers`` /
        ``heads`` / ``ffn`` / ``seq`` / ``microbatches``) this strategy
        splits?"""
        return all(sizes[dim] % degree == 0 for dim in self.divides)


def _serial(spec: TrainSpec, world: int, fabric: Optional[Fabric]) -> TrainResult:
    if world != 1:
        raise ValueError("serial strategy runs on exactly one worker")
    return train_serial(spec, fabric)


def _pipeline(schedule: str, **flags) -> Strategy:
    return Strategy(
        schedule, "pipeline",
        lambda s, w, f: train_pipeline(s, w, schedule=schedule, fabric=f),
        schedule=schedule, divides=("layers",), **flags,
    )


def _ring(name: str, mode: str, hier: bool = False, **flags) -> Strategy:
    def run(spec: TrainSpec, world: int, fabric: Optional[Fabric]) -> TrainResult:
        topo = None
        if hier:
            # group layout: the fabric's topology when it has one, else
            # the default grid.
            topo = getattr(fabric, "topology", None) or Topology.grid(
                world, default_groups(world)
            )
        return train_weipipe(spec, world, mode=mode, fabric=fabric, topology=topo)

    return Strategy(
        name, "ring", run, schedule=mode, hier=hier,
        divides=("layers", "microbatches"), **flags,
    )


#: every strategy, by the name ``train`` takes — the one statement of each.
ZOO: Dict[str, Strategy] = {s.name: s for s in (
    Strategy("serial", "serial", _serial),
    _pipeline("gpipe"),
    _pipeline("1f1b", differential_world=4),
    _pipeline("zb1", differential_world=4),
    _pipeline("zb2"),
    Strategy("fsdp", "fsdp", lambda s, w, f: train_fsdp(s, w, fabric=f),
             divides=("microbatches",), differential_world=4),
    Strategy("dp", "dp", lambda s, w, f: train_data_parallel(s, w, fabric=f),
             divides=("microbatches",)),
    Strategy("tp", "tp", lambda s, w, f: train_tensor_parallel(s, w, fabric=f),
             divides=("heads", "ffn"), full_cache=True, differential_world=2),
    Strategy("sp", "sp", lambda s, w, f: train_sequence_parallel(s, w, fabric=f),
             divides=("seq",), full_cache=True, differential_world=4),
    _ring("weipipe-naive", "naive", differential_world=4),
    _ring("weipipe-interleave", "interleave", differential_world=4),
    _ring("weipipe-zb", "zero-bubble", differential_world=4),
    _ring("weipipe-hier", "interleave", hier=True),
)}


def strategy_names(**where) -> List[str]:
    """Sorted names of the records whose fields equal ``where``
    (``strategy_names(family="ring")``); every name without."""
    return sorted(
        name for name, s in ZOO.items()
        if all(getattr(s, k) == v for k, v in where.items())
    )


def rank_programs(strategy: str, world: int, n_mb: int) -> Tuple[List[list], int]:
    """Every rank's op program under ``strategy`` — ``(kind, unit)`` pairs,
    what ``nn.checkpoint.replayed_chunks`` reads — and how many units the
    model's layers split into.  A pipeline stage or a ring slot is one of
    ``world`` units; serial, DP, FSDP, TP and SP run the whole model as one
    unit, the program ``[F(mb), B(mb)]*`` over the rank's microbatches."""
    s = ZOO[strategy]
    if s.family == "ring":
        return [ring_program(s.schedule, world, r, n_mb) for r in range(world)], world
    if s.family == "pipeline":
        return [stage_program(s.schedule, world, r, n_mb) for r in range(world)], world
    local = n_mb // world if "microbatches" in s.divides else n_mb
    return [[op for mb in range(local) for op in (("F", mb), ("B", mb))]] * world, 1


#: family -> the loop one rank of it runs: its ``POSTS`` are the family's
#: messages, and ``parallel.elastic`` runs it one iteration at a time.
_LOOPS = {"serial": RankLoop, "dp": DPLoop, "fsdp": FSDPLoop, "tp": TPLoop,
          "sp": SPLoop, "pipeline": StageLoop, "ring": RingLoop}


def posts(strategy: str) -> Tuple[Post, ...]:
    """The message table of ``strategy`` (DESIGN §23): the rows of its
    loop's ``POSTS``, which the DES, the closed forms, the memory model and
    the wire gate read."""
    return _LOOPS[ZOO[strategy].family].POSTS


def train(
    spec: TrainSpec,
    strategy: str = "weipipe-interleave",
    world_size: int = 1,
    fabric: Optional[Fabric] = None,
    backend: Optional[str] = None,
) -> TrainResult:
    """Train ``spec`` with the named strategy on ``world_size`` workers.

    Pass a pre-built :class:`~repro.runtime.Fabric` to inspect traffic
    statistics afterwards (thread backend), or ``backend="process"`` to
    fork one worker process per rank over shared memory — every strategy
    is transport-agnostic, and results are bit-exact across backends.
    """
    if strategy not in ZOO:
        raise ValueError(
            f"unknown strategy {strategy!r}; choose from {strategy_names()}"
        )
    if backend is not None and backend != "thread":
        if fabric is not None:
            raise ValueError("pass either fabric= or backend=, not both")
        # a Transport rides the fabric= plumbing: every train_* forwards
        # it to run_workers, whose resolver accepts transports there.
        from ..runtime import resolve_transport

        fabric = resolve_transport(None, backend)
    return ZOO[strategy].run(spec, world_size, fabric)
