"""What a process launch leaves behind, and what its ranks inherit.

A launch maps one anonymous shared segment before the fork.  It has no
name, so nothing appears in ``/dev/shm`` and multiprocessing's resource
tracker never starts.  The results come back as views of that segment,
and every page they do not cover is freed before the launch returns:
while a result is held, the segment costs its bytes and no more, and
dropping the result gives those back too.  A launch returns on its
ranks' last report, not on their exits: a rank that reported is a
daemon that multiprocessing reaps later, so back-to-back launches hold
at most one launch's ranks, and their fds, at a time.  A rank also
starts with its own allocator settings rather than whatever the
launcher's allocation history left it.

``Shmem`` in ``/proc/meminfo`` counts every shared page of the machine,
so the memory checks allow 1 MiB for whatever else moves meanwhile.  A
rank that has reported still maps the segment until it exits, so the
result's pages leave ``Shmem`` only once the result is dropped *and*
the launch's ranks are gone.
"""

import gc
import mmap
import multiprocessing
import multiprocessing.util
import os
import platform
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

import repro
from repro import FP32, ModelConfig, TrainSpec
from repro.core.weipipe import train_weipipe
from repro.runtime import ProcessTransport, run_workers
from repro.testing import compare_train_results

SLACK = 1 << 20
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this ``repro``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], env=env,
        capture_output=True, text=True, timeout=120,
    )


def _shmem() -> int:
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("Shmem:"):
                return int(line.split()[1]) * 1024
    pytest.skip("no Shmem line in /proc/meminfo")


def _open_fds() -> int:
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc/self/fd")
    return len(os.listdir("/proc/self/fd"))


def _backing(arr: np.ndarray):
    """The object at the bottom of an array's ``base`` chain."""
    while isinstance(arr, np.ndarray) and arr.base is not None:
        arr = arr.base
    return arr.obj if isinstance(arr, memoryview) else arr


def test_a_launch_names_nothing_and_starts_no_tracker():
    done = _python("""
        import os
        from multiprocessing import resource_tracker
        from repro.runtime import run_workers

        before = sorted(os.listdir("/dev/shm"))
        seen = run_workers(
            2, lambda comm: sorted(os.listdir("/dev/shm")), backend="process"
        )
        assert seen == [before, before], (before, seen)
        assert resource_tracker._resource_tracker._fd is None
    """)
    assert done.returncode == 0, done.stderr


def test_the_held_memory_is_only_the_results():
    # H=512, L=2 in fp32: a 25 MB model comes back from rank 0.
    cfg = ModelConfig(hidden=512, n_layers=2, n_heads=8, seq_len=8, vocab=256,
                      dtype=np.float32)
    spec = TrainSpec(cfg=cfg, n_microbatches=2, microbatch_size=1, iters=1,
                     precision=FP32)
    gc.collect()
    base = _shmem()
    proc = train_weipipe(spec, 2, fabric=ProcessTransport())
    held = _shmem() - base
    result_bytes = sum(c.arena.nbytes for c in proc.chunks)
    assert result_bytes > 24 << 20
    assert all(isinstance(_backing(c.arena), mmap.mmap) for c in proc.chunks)
    assert held <= result_bytes + SLACK, (held, result_bytes)
    # the thread-backend run also gives the launch's ranks, which still
    # map the segment after reporting, the time to exit.
    assert compare_train_results(proc, train_weipipe(spec, 2), tol=0) is None
    del proc
    gc.collect()
    assert abs(_shmem() - base) <= SLACK


LINGER_S = 5.0


def _report_then_linger(comm):
    # a child-side exit hook: the rank reports, then takes LINGER_S to exit.
    multiprocessing.util.Finalize(None, time.sleep, (LINGER_S,), exitpriority=0)
    return os.getpid()


def _reaped(pids, within_s: float = 10.0) -> bool:
    """Whether every pid has left ``active_children()``, which reaps."""
    deadline = time.monotonic() + within_s
    while time.monotonic() < deadline:
        live = {p.pid for p in multiprocessing.active_children()}
        if not live & set(pids):
            return True
        time.sleep(0.01)
    return False


def test_a_launch_returns_on_the_last_report_not_the_last_exit():
    t0 = time.perf_counter()
    pids = run_workers(2, _report_then_linger, backend="process")
    elapsed = time.perf_counter() - t0
    live = {p.pid for p in multiprocessing.active_children()}
    try:
        assert elapsed < LINGER_S / 2, elapsed
        assert set(pids) <= live, (pids, live)
    finally:
        for pid in set(pids) & live:
            os.kill(pid, signal.SIGKILL)  # cut the linger short
    assert _reaped(pids)
    for pid in pids:  # no zombie is left: neither pid is our child any more
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _sleep(comm):
    time.sleep(0.3)
    return comm.rank


def test_the_launcher_sleeps_once_the_clock_handshake_is_done(monkeypatch):
    # the launcher used to wake every 5 ms for the whole launch (~60
    # passes here); past the handshake only a report, an exit or the
    # deadline wakes it.
    import multiprocessing.connection as connection

    passes = []
    wait = connection.wait

    def counted(*a, **kw):
        if sys._getframe(1).f_code.co_name == "launch":  # not a join's wait
            passes.append(kw.get("timeout"))
        return wait(*a, **kw)

    monkeypatch.setattr(connection, "wait", counted)
    assert run_workers(2, _sleep, backend="process") == [0, 1]
    assert len(passes) <= 10, passes


def test_back_to_back_launches_hold_one_launchs_ranks_at_most():
    world = 2
    for p in multiprocessing.active_children():  # earlier tests' ranks
        p.join(timeout=10.0)
    fds = _open_fds()
    for _ in range(20):
        run_workers(world, lambda comm: None, backend="process")
        pids = [p.pid for p in multiprocessing.active_children()]
        assert len(pids) <= world, pids
        # a rank not yet reaped keeps its sentinel pipe open: two fds.
        assert _open_fds() - fds <= 2 * len(pids)
    assert _reaped(pids)
    assert _open_fds() <= fds


def _linger(comm):
    """A rank whose exit, after its report, takes half a second."""
    multiprocessing.util.Finalize(None, time.sleep, args=(0.5,), exitpriority=0)


def test_a_launch_reaps_the_last_launchs_lingering_ranks():
    # a loaded box can leave the last launch's reported ranks still
    # exiting when the next launch returns: that launch joins them.
    world = 2
    for p in multiprocessing.active_children():  # earlier tests' ranks
        p.join(timeout=10.0)
    run_workers(world, _linger, backend="process")
    run_workers(world, lambda comm: None, backend="process")
    assert len(multiprocessing.active_children()) <= world


def test_a_launch_terminates_the_last_launchs_ranks_past_the_reap_deadline(
        monkeypatch):
    # a reported rank whose exit hangs holds up the next launch for one
    # shared REAP_S at most, then is terminated, not left running.
    from repro.runtime.transport import process
    monkeypatch.setattr(process, "REAP_S", 0.2)
    for p in multiprocessing.active_children():  # earlier tests' ranks
        p.join(timeout=10.0)
    pids = run_workers(2, _report_then_linger, backend="process")
    t0 = time.perf_counter()
    run_workers(2, lambda comm: None, backend="process")
    elapsed = time.perf_counter() - t0
    live = {p.pid for p in multiprocessing.active_children()}
    for pid in set(pids) & live:  # cut the linger short if the reap did not
        os.kill(pid, signal.SIGKILL)
    assert not set(pids) & live, (pids, live)
    assert elapsed < LINGER_S / 2, elapsed


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="ranks pin glibc's malloc thresholds")
def test_a_rank_reuses_what_it_freed_whatever_the_launcher_freed():
    # a fresh launcher has never freed a large block: a rank that kept
    # glibc's inherited thresholds would mmap a 16 MiB block afresh on
    # every allocation and fault it in again (hundreds of faults, not a
    # handful).
    done = _python("""
        import resource

        import numpy as np

        from repro.runtime import run_workers

        def refaults(comm):
            np.ones(16 << 20, np.uint8)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            np.ones(16 << 20, np.uint8)
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

        faults = run_workers(2, refaults, backend="process")
        assert max(faults) < 64, faults
    """)
    assert done.returncode == 0, done.stderr


def test_repro_loads_numpy_random():
    # NumPy 2 imports numpy.random on first use; a rank forked before
    # that would import it again on every launch.
    done = _python("""
        import sys
        import repro
        assert "numpy.random" in sys.modules
    """)
    assert done.returncode == 0, done.stderr
