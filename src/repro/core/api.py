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

from typing import Callable, Dict, Optional, Tuple

from ..parallel.common import TrainResult, TrainSpec
from ..parallel.data_parallel import train_data_parallel
from ..parallel.fsdp import train_fsdp
from ..parallel.pipeline import train_pipeline
from ..parallel.serial import train_serial
from ..parallel.sequence_parallel import train_sequence_parallel
from ..parallel.tensor_parallel import train_tensor_parallel
from ..runtime import Fabric, Topology, default_groups
from .weipipe import train_weipipe

__all__ = ["train", "STRATEGIES", "RING_STRATEGIES", "strategy_names"]

#: ring strategy -> (``core.schedule.RING_SCHEDULES`` mode, two-level
#: ring?).  The one statement of it: the elastic step engines, the
#: simulator, the memory model and the CLI read this table.
RING_STRATEGIES: Dict[str, Tuple[str, bool]] = {
    "weipipe-naive": ("naive", False),
    "weipipe-interleave": ("interleave", False),
    "weipipe-zb": ("zero-bubble", False),
    "weipipe-hier": ("interleave", True),
}


def _serial(spec: TrainSpec, world: int, fabric: Optional[Fabric]) -> TrainResult:
    if world != 1:
        raise ValueError("serial strategy runs on exactly one worker")
    return train_serial(spec)


def _ring(mode: str, hier: bool):
    def run(spec: TrainSpec, world: int, fabric: Optional[Fabric]) -> TrainResult:
        topo = None
        if hier:
            # group layout: the fabric's topology when it has one, else
            # the default grid.
            topo = getattr(fabric, "topology", None) or Topology.grid(
                world, default_groups(world)
            )
        return train_weipipe(spec, world, mode=mode, fabric=fabric, topology=topo)

    return run


STRATEGIES: Dict[str, Callable[[TrainSpec, int, Optional[Fabric]], TrainResult]] = {
    "serial": _serial,
    "dp": lambda s, w, f: train_data_parallel(s, w, fabric=f),
    "fsdp": lambda s, w, f: train_fsdp(s, w, fabric=f),
    "gpipe": lambda s, w, f: train_pipeline(s, w, schedule="gpipe", fabric=f),
    "1f1b": lambda s, w, f: train_pipeline(s, w, schedule="1f1b", fabric=f),
    "zb1": lambda s, w, f: train_pipeline(s, w, schedule="zb1", fabric=f),
    "zb2": lambda s, w, f: train_pipeline(s, w, schedule="zb2", fabric=f),
    "tp": lambda s, w, f: train_tensor_parallel(s, w, fabric=f),
    "sp": lambda s, w, f: train_sequence_parallel(s, w, fabric=f),
    **{name: _ring(*row) for name, row in RING_STRATEGIES.items()},
}


def strategy_names() -> list:
    """All registered strategy names."""
    return sorted(STRATEGIES)


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
    try:
        fn = STRATEGIES[strategy]
    except KeyError:
        raise ValueError(
            f"unknown strategy {strategy!r}; choose from {strategy_names()}"
        ) from None
    if backend is not None and backend != "thread":
        if fabric is not None:
            raise ValueError("pass either fabric= or backend=, not both")
        # a Transport rides the fabric= plumbing: every train_* forwards
        # it to run_workers, whose resolver accepts transports there.
        from ..runtime import resolve_transport

        fabric = resolve_transport(None, backend)
    return fn(spec, world_size, fabric)
