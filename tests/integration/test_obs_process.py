"""Cross-process observability, end to end (DESIGN.md §16).

The process backend must produce the *same* observability artefacts the
thread backend does: one merged Chrome trace with a pid per rank (child
spills spliced onto the parent clock via the launch-time alignment
handshake), one merged ``repro.metrics/v1`` registry (eagerly zeroed),
and — on failure — a ``repro.postmortem/v1`` flight-recorder bundle with
events from every rank.  Tracing must also be bitwise invisible to the
training computation, and the steady-state allocation gate must hold
with the recorder and the tracer both live.
"""

import time

import numpy as np
import pytest

from repro.core.api import train
from repro.obs import Tracer, validate_chrome_trace
from repro.obs.flight import load_postmortem, render_postmortem
from repro.runtime import ChaosPolicy, Fabric, ProcessTransport
from repro.runtime.launcher import run_workers
from repro.runtime.transport.thread import ThreadTransport
from repro.testing import default_differential_spec


def _traced_run(world=2, strategy="weipipe-interleave"):
    spec = default_differential_spec()
    tracer = Tracer(metadata={"strategy": strategy, "world": world})
    transport = ProcessTransport(tracer=tracer)
    result = train(spec, strategy, world, fabric=transport)
    return tracer, transport, result


# -- merged trace -------------------------------------------------------------


def test_merged_trace_validates_with_one_pid_per_rank():
    world = 2
    tracer, transport, _ = _traced_run(world=world)
    doc = tracer.chrome_trace()
    assert validate_chrome_trace(doc) == []
    data = [e for e in doc["traceEvents"] if e.get("ph") != "M"]
    assert {e["pid"] for e in data} == set(range(world))
    # every rank contributed both compute spans and wire events.
    for pid in range(world):
        phases = {e["ph"] for e in data if e["pid"] == pid}
        assert "X" in phases and "i" in phases


def test_merged_trace_timestamps_monotone_per_rank():
    tracer, _, _ = _traced_run(world=2)
    events = tracer.events()  # exporter output, ordered by ts
    for pid in (0, 1):
        ts = [e["ts"] for e in events if e["pid"] == pid]
        assert ts, f"rank {pid} contributed no events"
        assert all(t >= 0 for t in ts)
        assert ts == sorted(ts)


def test_clock_handshake_brackets_every_rank():
    _, transport, _ = _traced_run(world=2)
    assert sorted(transport.clock) == ["0", "1"]
    for info in transport.clock.values():
        assert info["method"] in ("shared-clock", "midpoint")
        assert info["skew_bound_s"] >= 0.0
        # forked children share CLOCK_MONOTONIC, so the fast path is
        # the expected outcome on this platform.
        assert info["method"] == "shared-clock"
        assert info["offset_s"] == 0.0


def test_cross_rank_send_recv_causally_ordered():
    tracer, transport, _ = _traced_run(world=2)
    events = tracer.events()
    skew_us = sum(i["skew_bound_s"] for i in transport.clock.values()) * 1e6
    sends = {}  # (src, dst, tag) -> [ts, ...] in order
    for e in events:
        if e["name"] == "send" and e["ph"] == "i":
            key = (e["pid"], e["args"]["dst"], tuple(e["args"]["tag"]))
            sends.setdefault(key, []).append(e["ts"])
    recvs = {}
    for e in events:
        if e["name"] == "recv" and e["ph"] == "X":
            key = (e["args"]["src"], e["pid"], tuple(e["args"]["tag"]))
            recvs.setdefault(key, []).append(e["ts"] + e["dur"])
    assert recvs, "traced run recorded no recv spans"
    matched = 0
    for key, ends in recvs.items():
        posts = sends.get(key, [])
        # FIFO per (src, dst, tag): the k-th recv completes after the
        # k-th send was posted, up to the recorded clock-skew bound.
        for k, end in enumerate(ends):
            if k < len(posts):
                assert posts[k] <= end + skew_us, (key, k)
                matched += 1
    assert matched > 0


def test_a_sender_that_fills_the_link_ring_records_its_wait():
    # a private frame of twice the link ring to a receiver that sleeps
    # before it polls: the sender waits on the ring, and that wait is a
    # wire span on its timeline, not time between spans
    link = 1 << 16
    tracer = Tracer()

    def fn(comm):
        if comm.rank == 0:
            comm.send(np.ones(link // 4), 1, ("big",))
        else:
            time.sleep(0.3)
            comm.recv(0, ("big",))

    run_workers(2, fn, fabric=ProcessTransport(tracer=tracer, link_bytes=link))
    waits = [e for e in tracer.events() if e["name"] == "wait:ring"]
    assert [(e["pid"], e["cat"], e["args"]["dst"]) for e in waits] == [(0, "wire", 1)]
    assert waits[0]["dur"] > 0.1e6  # µs


# -- merged metrics -----------------------------------------------------------


def test_merged_metrics_eagerly_zeroed_on_quiet_run():
    _, transport, _ = _traced_run(world=2)
    doc = transport.metrics.as_dict()
    names = {m["name"] for m in doc["metrics"]}
    for name in ("fabric_retransmits", "fabric_corrupt_frames",
                 "detector_suspicions", "detector_suspicions_cleared",
                 "detector_confirms", "ring_rejoins"):
        assert name in names, f"{name} absent from merged registry"
        assert transport.metrics.value(name) == 0.0
    # the children's real traffic counters made it across the boundary.
    assert any(m["name"] == "fabric_messages_total" for m in doc["metrics"])


def test_untraced_process_run_merges_metrics_too():
    spec = default_differential_spec()
    transport = ProcessTransport()
    train(spec, "weipipe-interleave", 2, fabric=transport)
    assert transport.metrics.value("fabric_retransmits") == 0.0
    assert transport.tracer is None


# -- bitwise invisibility -----------------------------------------------------


def test_tracing_is_bitwise_invisible_on_process_backend():
    from repro.testing import (
        default_differential_strategies,
        run_traced_backend_differential,
    )

    report = run_traced_backend_differential()
    # the full backend-differential matrix: every strategy x each world
    # <= its cap x fp64/fp32, traced vs untraced, all bit-identical.
    expected = sum(
        len([w for w in (2, 4) if w <= cap]) * 2
        for cap in default_differential_strategies().values()
    )
    assert report.runs == expected
    assert report.ok, report.summary()


# -- post-mortem bundles ------------------------------------------------------


def _crashing_worker(comm):
    peer = (comm.rank + 1) % 2
    comm.send(np.arange(4, dtype=np.float64), peer, tag=("x",))
    comm.recv(peer, tag=("x",))
    if comm.rank == 1:
        raise RuntimeError("seeded crash for the flight recorder")
    return comm.rank


def test_process_crash_dumps_bundle_with_every_rank(tmp_path):
    transport = ProcessTransport(postmortem_to=str(tmp_path))
    with pytest.raises(Exception):
        run_workers(2, _crashing_worker, backend=transport)
    assert transport.last_postmortem_path is not None
    bundle = load_postmortem(transport.last_postmortem_path)
    assert bundle["backend"] == "process"
    assert bundle["world"] == 2
    assert bundle["reason"]["kind"] == "RuntimeError"
    assert bundle["reason"]["rank"] == 1
    # every rank contributed flight events, including the survivor.
    for r in ("0", "1"):
        assert bundle["ranks"][r]["events"], f"rank {r} ring is empty"
    crash_events = [e["event"] for e in bundle["ranks"]["1"]["events"]]
    assert "worker_error" in crash_events
    text = render_postmortem(bundle)
    assert "seeded crash" in text
    assert "worker_error" in text


def test_process_bundle_honors_env_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_POSTMORTEM_DIR", str(tmp_path / "env-dir"))
    transport = ProcessTransport()
    with pytest.raises(Exception):
        run_workers(2, _crashing_worker, backend=transport)
    assert transport.last_postmortem_path is not None
    assert str(tmp_path / "env-dir") in transport.last_postmortem_path


def test_clean_process_run_leaves_no_bundle(tmp_path):
    transport = ProcessTransport(postmortem_to=str(tmp_path))
    _, _, result = (None, None, None)
    spec = default_differential_spec()
    train(spec, "weipipe-interleave", 2, fabric=transport)
    assert transport.last_postmortem is None
    assert transport.last_postmortem_path is None


def test_thread_crash_dumps_bundle_too(tmp_path):
    transport = ThreadTransport(postmortem_to=str(tmp_path))
    with pytest.raises(Exception):
        run_workers(2, _crashing_worker, backend=transport)
    bundle = load_postmortem(transport.last_postmortem_path)
    assert bundle["backend"] == "thread"
    events_1 = [e["event"] for e in bundle["ranks"]["1"]["events"]]
    assert "send" in events_1
    assert "worker_error" in events_1
    # on the thread backend abort() lands on the shared fabric's ring 0.
    all_events = [
        e["event"] for snap in bundle["ranks"].values()
        for e in snap["events"]
    ]
    assert "abort" in all_events


def test_postmortem_cli_renders_bundle(tmp_path, capsys):
    from repro.cli import main

    transport = ProcessTransport(postmortem_to=str(tmp_path))
    with pytest.raises(Exception):
        run_workers(2, _crashing_worker, backend=transport)
    rc = main(["postmortem", transport.last_postmortem_path, "--last", "8"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "repro.postmortem/v1" in out
    assert "merged timeline" in out
    with pytest.raises(SystemExit):
        main(["postmortem", str(tmp_path / "missing.json")])


# -- allocation gates ---------------------------------------------------------


def _steady_state_allocs(fabric, world=2, iters=4):
    from repro.core.weipipe import train_weipipe

    spec = default_differential_spec()
    from dataclasses import replace

    spec = replace(spec, iters=iters)
    result = train_weipipe(spec, world, mode="interleave", fabric=fabric,
                           overlap=True)
    allocs = result.extra["pool_allocs_by_iter"]
    return allocs[-1] - allocs[-2]


def test_zero_steady_state_allocs_with_tracer_and_recorder_process():
    tracer = Tracer(metadata={"gate": "alloc"})
    assert _steady_state_allocs(ProcessTransport(tracer=tracer)) == 0


def test_zero_steady_state_allocs_with_tracer_and_recorder_thread():
    tracer = Tracer(metadata={"gate": "alloc"})
    fabric = Fabric(2, policy=ChaosPolicy.quiet(0), tracer=tracer)
    assert _steady_state_allocs(fabric) == 0


def test_flight_recorder_ring_stays_bounded_after_training():
    transport = ProcessTransport()
    spec = default_differential_spec()
    train(spec, "weipipe-interleave", 2, fabric=transport)
    for snap in transport.flights_by_rank.values():
        assert len(snap["events"]) <= snap["capacity"]
        assert snap["recorded"] == snap["dropped"] + len(snap["events"])
