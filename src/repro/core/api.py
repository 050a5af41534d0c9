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

import numbers
from dataclasses import dataclass
from functools import reduce
from typing import Dict, List, Optional, Tuple

from ..parallel.common import Post, RankLoop, TrainResult, TrainSpec
from ..parallel.data_parallel import DPLoop
from ..parallel.fsdp import FSDPLoop
from ..parallel.pipeline import StageLoop, splits_backward, stage_program
from ..parallel.sequence_parallel import SPLoop
from ..parallel.tensor_parallel import TPLoop
from ..runtime import Fabric, run_workers
from .schedule import ring_program, ring_splits_backward
from .weipipe import RingLoop

__all__ = ["train", "launch", "record", "Strategy", "ZOO", "strategy_names",
           "rank_programs", "posts"]


@dataclass(frozen=True)
class Strategy:
    """One row of the strategy zoo: what a strategy *is*, for every reader.

    :func:`train` trains it.  ``family`` (serial / dp / fsdp / pipeline /
    ring / tp / sp) selects the loop one rank runs (:attr:`loop`, which
    :func:`launch` and ``parallel.elastic`` build through its ``build``)
    and the memory model (``sim.memory``); the DES walks the loop's
    programs and message table (``sim.schedules.walk``), so ``core``
    never imports ``sim``.  ``schedule`` is the family's row:
    a ``PIPELINE_SCHEDULES`` schedule or a ``RING_SCHEDULES`` mode;
    ``hier`` marks the two-level ring.  ``divides`` names the sizes the
    parallel degree must divide (``layers`` / ``heads`` / ``ffn`` /
    ``seq`` / ``microbatches``).
    """

    name: str
    family: str
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
        return self.loop.whole

    @property
    def loop(self) -> type:
        """The loop class one rank of it runs (:data:`_LOOPS`)."""
        return _LOOPS[self.family]

    @property
    def overlap(self) -> bool:
        """Only the weight rings post their wire ahead of the compute."""
        return self.family == "ring"

    def divisible(self, degree: int, **sizes: int) -> bool:
        """Does ``degree`` divide each of ``sizes`` (keyed ``layers`` /
        ``heads`` / ``ffn`` / ``seq`` / ``microbatches``) this strategy
        splits?"""
        return all(sizes[dim] % degree == 0 for dim in self.divides)

    def check(self, spec: TrainSpec, world: int) -> None:
        """Refuse, before any worker starts, a ``world`` that does not
        divide a size the record ``divides`` or that its loop's ``check``
        refuses: the one validation :func:`launch` and ``train_elastic``
        run."""
        for dim, size in sizes(spec).items():
            if dim in self.divides and size % world:
                raise ValueError(
                    f"{_FIELDS[dim]} ({size}) must be divisible by the world size {world}")
        self.loop.check(spec, world)


#: the spec field of each size a record's ``divides`` may name.
_FIELDS = {"layers": "n_layers", "heads": "n_heads", "ffn": "ffn", "seq": "seq_len",
           "microbatches": "n_microbatches"}


def sizes(spec: TrainSpec) -> Dict[str, int]:
    """The sizes a record's ``divides`` may name, of ``spec``."""
    return {dim: getattr(spec if dim == "microbatches" else spec.cfg, field)
            for dim, field in _FIELDS.items()}


def _pipeline(schedule: str, **flags) -> Strategy:
    return Strategy(schedule, "pipeline", schedule=schedule, divides=("layers",), **flags)


def _ring(name: str, mode: str, hier: bool = False, **flags) -> Strategy:
    return Strategy(name, "ring", schedule=mode, hier=hier,
                    divides=("layers", "microbatches"), **flags)


#: every strategy, by the name ``train`` takes — the one statement of each.
ZOO: Dict[str, Strategy] = {s.name: s for s in (
    Strategy("serial", "serial"),
    _pipeline("gpipe"),
    _pipeline("1f1b", differential_world=4),
    _pipeline("zb1", differential_world=4),
    _pipeline("zb2"),
    Strategy("fsdp", "fsdp", divides=("microbatches",), differential_world=4),
    Strategy("dp", "dp", divides=("microbatches",)),
    Strategy("tp", "tp", divides=("heads", "ffn"), full_cache=True, differential_world=2),
    Strategy("sp", "sp", divides=("seq",), full_cache=True, differential_world=4),
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
#: messages; :func:`launch` runs it for a call, ``parallel.elastic`` one
#: iteration at a time.
_LOOPS = {"serial": RankLoop, "dp": DPLoop, "fsdp": FSDPLoop, "tp": TPLoop,
          "sp": SPLoop, "pipeline": StageLoop, "ring": RingLoop}


def posts(strategy: str) -> Tuple[Post, ...]:
    """The message table of ``strategy`` (DESIGN §23): the rows of its
    loop's ``POSTS``, which the DES, the closed forms, the memory model and
    the wire gate read."""
    return ZOO[strategy].loop.POSTS


def record(strategy: str) -> Strategy:
    """The record of ``strategy``; a ``ValueError`` naming the choices."""
    if strategy not in ZOO:
        raise ValueError(f"unknown strategy {strategy!r}; choose from {strategy_names()}")
    return ZOO[strategy]


def _merge(a, b):
    """The launch's ``extra`` rule over two ranks' (lower rank first):
    dicts merge key by key, numbers add, anything else is the lower
    rank's."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = dict(a)
        for k, v in b.items():
            out[k] = _merge(out[k], v) if k in out else v
        return out
    if isinstance(a, numbers.Number) and isinstance(b, numbers.Number):
        return a + b
    return a


def launch(s: Strategy, spec: TrainSpec, world: int, fabric=None, **build) -> TrainResult:
    """Train ``spec`` as record ``s`` on ``world`` ranks: refuse a bad
    world in the parent (:meth:`Strategy.check`), run each rank's loop
    (``s.loop.build(s, spec, comm, **build)``) through ``run_workers``
    with the pool it states, then union the chunks the ranks report by
    chunk id and merge their ``extra`` by :func:`_merge`.  A loop that
    posts nothing (serial) runs here, on no wire: a ``fabric`` (a
    ``Fabric`` or a transport) lends it only its tracer, as rank 0's."""
    s.check(spec, world)

    def rank(comm):
        loop = s.loop.build(s, spec, comm, **build)
        if comm is None and getattr(fabric, "tracer", None) is not None:
            loop.trace = fabric.tracer.rank(0)
        return loop.report(*loop.train())

    if not s.loop.POSTS:
        results = [rank(None)]
    else:
        results = run_workers(world, rank, fabric=fabric,
                              pool_bytes=s.loop.pool_bytes(s, spec, world))
    owned = {}
    for _, chunks, _ in results:
        owned.update(chunks)
    return TrainResult(losses=results[0][0], chunks=[owned[i] for i in sorted(owned)],
                       extra=reduce(_merge, (extra for _, _, extra in results)))


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
    s = record(strategy)
    if backend is not None and backend != "thread":
        if fabric is not None:
            raise ValueError("pass either fabric= or backend=, not both")
        # a Transport rides the fabric= plumbing: the launch forwards it
        # to run_workers, whose resolver accepts transports there.
        from ..runtime import resolve_transport

        fabric = resolve_transport(None, backend)
    return launch(s, spec, world_size, fabric)
