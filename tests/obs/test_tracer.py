"""Tracer unit tests: event model, export shapes, null-object behavior."""

import json

import pytest

from repro.obs import (
    NULL_RANK_TRACER,
    NULL_TRACER,
    TRACE_SCHEMA,
    Tracer,
    validate_chrome_trace,
)
from repro.obs.tracer import _NULL_SPAN


class TestRecording:
    def test_span_context_manager_records_complete_event(self):
        tr = Tracer()
        buf = tr.rank(0)
        with buf.span("F", "compute", {"slot": 1}):
            pass
        events = list(tr.events())
        assert len(events) == 1
        (ev,) = events
        assert ev["ph"] == "X"
        assert ev["name"] == "F"
        assert ev["cat"] == "compute"
        assert ev["pid"] == 0
        assert ev["dur"] >= 0
        assert ev["args"] == {"slot": 1}

    def test_complete_uses_caller_clock_readings(self):
        tr = Tracer()
        tr.rank(2).complete("B", "compute", tr.epoch + 1.0, 0.5)
        (ev,) = tr.events()
        assert ev["ts"] == pytest.approx(1e6)
        assert ev["dur"] == pytest.approx(0.5e6)

    def test_instant_and_counter(self):
        tr = Tracer()
        buf = tr.rank(0)
        buf.instant("send", "comm", {"dst": 1})
        buf.counter("pool_allocations", 7)
        events = list(tr.events())
        assert [e["ph"] for e in events] == ["i", "C"]
        assert events[0]["s"] == "t"
        assert events[1]["args"] == {"value": 7}

    def test_rank_buffers_are_cached_per_pid_tid(self):
        tr = Tracer()
        assert tr.rank(3) is tr.rank(3)
        assert tr.rank(3) is not tr.rank(3, tid=1)

    def test_events_sorted_across_ranks(self):
        tr = Tracer()
        tr.rank(1).complete("b", "x", tr.epoch + 2.0, 0.1)
        tr.rank(0).complete("a", "x", tr.epoch + 1.0, 0.1)
        assert [e["name"] for e in tr.events()] == ["a", "b"]

    def test_tag_tuples_exported_as_lists(self):
        tr = Tracer()
        tr.rank(0).instant("send", "comm", {"tag": ("F", 0, 3)})
        (ev,) = tr.events()
        assert ev["args"]["tag"] == ["F", 0, 3]
        json.dumps(ev)  # round-trippable


class TestExport:
    def test_chrome_trace_shape_and_schema(self):
        tr = Tracer(metadata={"strategy": "weipipe-interleave"})
        with tr.rank(0).span("F", "compute"):
            pass
        with tr.rank(1).span("B", "compute"):
            pass
        doc = tr.chrome_trace()
        assert validate_chrome_trace(doc) == []
        assert doc["metadata"]["schema"] == TRACE_SCHEMA
        assert doc["metadata"]["strategy"] == "weipipe-interleave"
        names = [
            (e["pid"], e["args"]["name"])
            for e in doc["traceEvents"] if e["ph"] == "M"
        ]
        assert names == [(0, "rank 0"), (1, "rank 1")]

    def test_dump_and_load_roundtrip(self, tmp_path):
        tr = Tracer(metadata={"k": "v"})
        with tr.rank(0).span("F", "compute"):
            pass
        path = tmp_path / "t.json"
        tr.dump(str(path))
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) == []

    def test_validator_flags_bad_documents(self):
        assert validate_chrome_trace({"traceEvents": "nope"})
        bad = {
            "traceEvents": [{"ph": "X", "name": "f", "pid": 0, "tid": 0,
                             "ts": 0.0}],  # X without dur
            "metadata": {"schema": TRACE_SCHEMA},
        }
        assert any("dur" in p for p in validate_chrome_trace(bad))
        wrong_schema = {"traceEvents": [], "metadata": {"schema": "other"}}
        assert any("schema" in p for p in validate_chrome_trace(wrong_schema))


class TestNullTracer:
    """The off path must be allocation-free: every call returns a shared
    singleton or None (pinned by identity, not timing)."""

    def test_null_tracer_hands_out_shared_rank_buffer(self):
        assert NULL_TRACER.rank(0) is NULL_RANK_TRACER
        assert NULL_TRACER.rank(7, tid=3) is NULL_RANK_TRACER
        assert not NULL_TRACER.enabled
        assert not NULL_RANK_TRACER.enabled

    def test_null_span_is_one_shared_object(self):
        s1 = NULL_RANK_TRACER.span("F", "compute", {"x": 1})
        s2 = NULL_RANK_TRACER.span("B", "compute")
        assert s1 is s2 is _NULL_SPAN
        with s1:
            pass

    def test_null_methods_return_none_and_record_nothing(self):
        assert NULL_RANK_TRACER.complete("F", "c", 0.0, 1.0) is None
        assert NULL_RANK_TRACER.instant("i") is None
        assert NULL_RANK_TRACER.counter("c", 1.0) is None
        assert len(NULL_RANK_TRACER) == 0
        assert NULL_TRACER.events() == []
        assert NULL_TRACER.chrome_trace()["traceEvents"] == []

    def test_null_types_have_no_instance_dict(self):
        with pytest.raises(AttributeError):
            NULL_RANK_TRACER.x = 1  # __slots__ = ()
