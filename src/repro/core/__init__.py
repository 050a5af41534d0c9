"""WeiPipe core: the weight-pipeline strategies and the training API."""

from .api import ZOO, Strategy, strategy_names, train
from .hybrid import train_weipipe_dp
from .schedule import (
    RING_SCHEDULES,
    TurnTask,
    bwd_home,
    bwd_slot_held,
    fwd_home,
    fwd_slot_held,
    interleave_schedule,
    naive_schedule,
    ring_schedule,
    slot_owner,
    turn_ops,
)
from .weipipe import slot_chunk_ids, train_weipipe

__all__ = [
    "RING_SCHEDULES",
    "Strategy",
    "TurnTask",
    "bwd_home",
    "bwd_slot_held",
    "fwd_home",
    "fwd_slot_held",
    "interleave_schedule",
    "naive_schedule",
    "ring_schedule",
    "slot_chunk_ids",
    "slot_owner",
    "strategy_names",
    "train",
    "train_weipipe",
    "train_weipipe_dp",
    "turn_ops",
    "ZOO",
]
