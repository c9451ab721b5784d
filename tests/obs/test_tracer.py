"""Unit tests for the transaction tracer, ring buffer, and exporters."""

import io
import json

import pytest

from repro.obs import (
    DS_DURABLE,
    EXECUTE,
    FAST_COMMIT,
    GLOBALLY_VISIBLE,
    REMOTE_APPLY,
    Observability,
    Tracer,
    dump_jsonl,
    format_timeline,
    trace_events_jsonl,
)


def _lifecycle(tracer, tid, t0=0.0):
    tracer.record(tid, EXECUTE, 0, t0)
    tracer.record(tid, FAST_COMMIT, 0, t0 + 0.002, seqno=7)
    tracer.record(tid, REMOTE_APPLY, 1, t0 + 0.045, origin=0)
    tracer.record(tid, DS_DURABLE, 0, t0 + 0.090)
    tracer.record(tid, GLOBALLY_VISIBLE, 0, t0 + 0.170)


class TestTracer:
    def test_trace_accumulates_events(self):
        tracer = Tracer()
        _lifecycle(tracer, "t1")
        trace = tracer.get("t1")
        assert [e.name for e in trace.events] == [
            EXECUTE, FAST_COMMIT, REMOTE_APPLY, DS_DURABLE, GLOBALLY_VISIBLE,
        ]
        assert trace.origin_site == 0
        assert trace.commit_kind == "fast"

    def test_derived_lags(self):
        tracer = Tracer()
        _lifecycle(tracer, "t1")
        trace = tracer.get("t1")
        commit = trace.commit_event.t
        assert trace.first(DS_DURABLE).t - commit == 0.088
        assert trace.first(GLOBALLY_VISIBLE).t - commit == 0.168
        assert trace.first(REMOTE_APPLY, 1).t - commit == 0.043
        assert trace.first(REMOTE_APPLY, 0) is None  # no remote_apply at origin

    def test_ring_buffer_evicts_oldest(self):
        tracer = Tracer(capacity=3)
        for i in range(5):
            _lifecycle(tracer, "t%d" % i, t0=float(i))
        assert len(tracer) == 3
        assert tracer.get("t0") is None and tracer.get("t1") is None
        assert tracer.get("t4") is not None
        assert tracer.traces_dropped == 2

    def test_events_global_order(self):
        tracer = Tracer()
        tracer.record("a", EXECUTE, 0, 0.0)
        tracer.record("b", EXECUTE, 1, 0.0)
        tracer.record("a", FAST_COMMIT, 0, 0.001)
        seqs = [e.seq for e in tracer.events()]
        assert seqs == sorted(seqs)
        assert [e.tid for e in tracer.events()] == ["a", "b", "a"]


    def test_one_level(self):
        """Tracing has one level: ``True`` and the older ``"deep"`` /
        ``deep=True`` spellings all build the same tracer; asking for
        less, or for another level, raises."""
        assert Observability(tracing=True).tracer is not None
        assert Observability(tracing="deep").tracer is not None
        assert Observability(tracing=False).tracer is None
        assert Tracer(capacity=4, deep=True).capacity == 4
        with pytest.raises(ValueError):
            Tracer(deep=False)
        with pytest.raises(ValueError):
            Observability(tracing="plain")


class TestExporters:
    def test_jsonl_round_trip(self):
        tracer = Tracer()
        _lifecycle(tracer, "t1")
        text = trace_events_jsonl(tracer)
        lines = [json.loads(line) for line in text.strip().splitlines()]
        assert len(lines) == 5
        assert lines[0]["event"] == EXECUTE
        assert lines[1]["seqno"] == 7
        assert all("t" in line and "site" in line for line in lines)

    def test_dump_jsonl_to_file_object(self):
        tracer = Tracer()
        _lifecycle(tracer, "t1")
        buf = io.StringIO()
        n = dump_jsonl(tracer, buf)
        assert n == 5
        assert buf.getvalue() == trace_events_jsonl(tracer)

    def test_timeline_format(self):
        tracer = Tracer()
        _lifecycle(tracer, "t1")
        text = format_timeline(tracer.get("t1"))
        assert "t1 (fast commit, origin site 0)" in text
        assert "globally_visible" in text
        assert "+    0.000ms" in text
        # Offsets are relative to the first event.
        assert "+  170.000ms" in text
