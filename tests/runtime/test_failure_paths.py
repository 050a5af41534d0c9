"""Failure paths, once, over both wires.

There is one ``Fabric``; what differs per backend is the ``Wire`` under
it.  So every way a group can die is tested here against both: abort
poison, a raising rank (fail-fast and elastic), the parent's join
timeout, a flow that exhausts its retransmit budget — and, on the
process wire, children that are ``SIGKILL``ed outright, idle or in the
middle of a frame.

Every blocked receive below has a 30 s timeout and every test an elapsed
bound of 5 s: the bound is machine-independent, because the alternative
to prompt unwinding is the full 30 s.  ``/dev/shm`` is listed before and
after every test, on every exit path.
"""

import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro import train
from repro.core.weipipe import RingLoop
from repro.runtime import (
    ChaosPolicy,
    Communicator,
    CorruptFrameError,
    Fabric,
    FabricAborted,
    PeerFailed,
    ProcessTransport,
    ThreadTransport,
    WorkerError,
    run_workers,
)
from repro.testing import default_differential_spec

RECV_TIMEOUT_S = 30.0
PROMPT_S = 5.0

BACKENDS = pytest.mark.parametrize("backend", ["thread", "process"])


@pytest.fixture(autouse=True)
def prompt_and_leak_free():
    before = set(os.listdir("/dev/shm"))
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    leaked = sorted(set(os.listdir("/dev/shm")) - before)
    assert not leaked, f"left /dev/shm segment(s): {leaked}"
    assert elapsed < PROMPT_S, f"unwound in {elapsed:.2f} s, not promptly"


def _transport(backend, world, policy=None):
    if backend == "process":
        return ProcessTransport(policy=policy)
    return ThreadTransport(None if policy is None else Fabric(world, policy=policy))


def _blocked_recv(comm: Communicator, src: int):
    """What a rank blocked on a dead peer observes."""
    try:
        comm.recv(src, tag=("never",), timeout=RECV_TIMEOUT_S)
    except FabricAborted:
        return "poisoned"
    except PeerFailed:
        return ("peer-failed", sorted(comm.fabric.failed_ranks()))
    return "unreachable"


# -- abort --------------------------------------------------------------------


def _abort_or_block(comm: Communicator):
    if comm.rank == 0:
        comm.fabric.abort("pulling the plug")
        return "aborted"
    return _blocked_recv(comm, 0)


@BACKENDS
def test_abort_poisons_blocked_peers(backend):
    # world 4: on the process wire later-forked ranks map the control
    # block after rank 0 has already published the abort, and must still
    # see it — promptly, not when their 30 s recv times out.
    results, errors = _transport(backend, 4).launch(
        4, _abort_or_block, 60.0, elastic=True
    )
    assert errors == [None] * 4
    assert results == ["aborted", "poisoned", "poisoned", "poisoned"]


# -- a raising rank -----------------------------------------------------------


def _raise_or_block(comm: Communicator):
    if comm.rank == 1:
        raise RuntimeError("fail-stop")
    return _blocked_recv(comm, 1)


@BACKENDS
@pytest.mark.parametrize("elastic", [True, False])
def test_raising_rank_interrupts_survivors(backend, elastic):
    transport = _transport(backend, 2)
    results, errors = transport.launch(2, _raise_or_block, 60.0, elastic)
    assert errors[0] is None
    assert errors[1].rank == 1 and "fail-stop" in str(errors[1])
    assert results[0] == (("peer-failed", [1]) if elastic else "poisoned")
    assert transport.last_postmortem["reason"]["kind"] == "RuntimeError"


# -- one failure, one cause ---------------------------------------------------


def _blocked_on_the_raiser(comm: Communicator):
    """Rank 0 blocks in ``recv`` from rank 1 and lets the abort surface;
    rank 1 raises once rank 0 is on its way there.  Rank 0's
    ``FabricAborted`` is a consequence, whatever its rank."""
    if comm.rank == 0:
        comm.send("ready", 1, tag=("ready",))
        return comm.recv(1, tag=("never",), timeout=RECV_TIMEOUT_S)
    comm.recv(0, tag=("ready",), timeout=RECV_TIMEOUT_S)
    raise RuntimeError("the user's error")


@BACKENDS
def test_the_raising_rank_is_blamed_not_the_rank_it_poisoned(backend):
    transport = _transport(backend, 2)
    with pytest.raises(WorkerError) as ei:
        run_workers(2, _blocked_on_the_raiser, timeout=60.0, backend=transport)
    assert ei.value.rank == 1
    assert isinstance(ei.value.original, RuntimeError)
    assert transport.abort_origin == 1
    assert transport.last_postmortem["reason"]["kind"] == "RuntimeError"
    assert transport.last_postmortem["reason"]["rank"] == 1
    assert transport.last_postmortem["aborted"].startswith("rank 1 raised")


@BACKENDS
def test_train_re_raises_the_users_error(backend, monkeypatch):
    # rank 1 raises in its update pass while rank 0 waits for rank 1's
    # inject: rank 0 unwinds with FabricAborted, the launch names rank 1.
    update = RingLoop._update_pass

    def failing_update(self, it):
        if self.rank == 1:
            raise KeyError("the user's error")
        return update(self, it)

    monkeypatch.setattr(RingLoop, "_update_pass", failing_update)
    spec = default_differential_spec()
    with pytest.raises(WorkerError) as ei:
        train(spec, "weipipe-interleave", 2, backend=backend)
    assert ei.value.rank == 1
    assert isinstance(ei.value.original, KeyError)


# -- parent join timeout ------------------------------------------------------


@BACKENDS
def test_join_timeout_names_stuck_workers_and_leaves_a_postmortem(backend):
    transport = _transport(backend, 2)
    with pytest.raises(TimeoutError, match="worker-0, worker-1"):
        # the abort wakes the blocked receives: no 2 s grace, no terminate()
        transport.launch(2, lambda comm: _blocked_recv(comm, 1 - comm.rank),
                         0.5, elastic=False)
    assert transport.last_postmortem["reason"]["kind"] == "timeout"
    assert "worker-0, worker-1" in transport.last_postmortem["reason"]["detail"]
    assert transport.last_postmortem["aborted"] == "join timeout"


# -- retransmit budget exhaustion ---------------------------------------------


def _send_or_recv_poisoned_flow(comm: Communicator):
    if comm.rank == 0:
        comm.send(np.ones(8), 1, tag=("poison",))
        return None
    return comm.recv(0, tag=("poison",), timeout=RECV_TIMEOUT_S)


@BACKENDS
def test_budget_exhaustion_raises_corrupt_frame_at_blocked_receiver(backend):
    policy = ChaosPolicy(
        seed=3, delay_prob=0.0, drop_prob=0.0, duplicate_prob=0.0,
        bitflip_prob=1.0, retransmit_budget=2,
    )
    transport = _transport(backend, 2, policy)
    results, errors = transport.launch(
        2, _send_or_recv_poisoned_flow, 60.0, elastic=False
    )
    assert errors[0] is None
    assert isinstance(errors[1].original, CorruptFrameError)
    assert "retransmit budget (2) is exhausted" in str(errors[1].original)
    chaos = transport.chaos if backend == "process" else transport.fabric.chaos
    assert chaos.nacks == 2  # exactly the budget, then poison
    assert chaos.corrupt_frames == 3


# -- killed children (process wire only) --------------------------------------


def _kill_self() -> None:
    os.kill(os.getpid(), signal.SIGKILL)


def _die_idle_or_block(comm: Communicator):
    if comm.rank == 0:
        time.sleep(0.05)  # let the peer block first
        _kill_self()
    return _blocked_recv(comm, 0)


def _die_mid_frame_or_block(comm: Communicator):
    """Rank 0 streams a payload four times the 1 MiB link ring to a peer
    that is not draining yet, and is killed from a timer while blocked
    on the full ring; the peer then starts receiving a torn frame."""
    if comm.rank == 0:
        threading.Timer(0.2, _kill_self).start()
        comm.send(np.zeros(1 << 19), 1, tag=("never",))  # 4 MiB
        return "unreachable: the ring never drains"
    time.sleep(0.6)
    return _blocked_recv(comm, 0)


@pytest.mark.parametrize("worker", [_die_idle_or_block, _die_mid_frame_or_block])
@pytest.mark.parametrize("elastic", [True, False])
def test_sigkilled_child_interrupts_its_peer(worker, elastic):
    transport = ProcessTransport()
    before = set(multiprocessing.active_children())
    results, errors = transport.launch(2, worker, 60.0, elastic)
    # a launch with a rank that never reported joins every rank.
    assert not set(multiprocessing.active_children()) - before
    assert "worker process died (exit code -9)" in str(errors[0])
    assert errors[1] is None
    assert results[1] == (("peer-failed", [0]) if elastic else "poisoned")
    assert transport.last_postmortem["reason"]["rank"] == 0
