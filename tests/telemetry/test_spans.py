"""Unit tests for request spans and the span recorder."""

import pytest

from repro.telemetry import EventBus, RingBufferSink, SpanRecorder
from repro.telemetry.spans import RequestSpan


class TestRequestSpan:
    def test_legs_sum_exactly_to_total(self):
        span = RequestSpan(request_id=1, arrival=10.0)
        span.note_attempt(replica_id=2, zone="aws:z:a")
        span.mark_exec_start(12.0)
        span.mark_first_token(13.5)
        span._finalize(20.0, 0.25, "ok")
        assert span.legs == {
            "queue": 2.0,
            "prefill": 1.5,
            "decode": 6.5,
            "wan": 0.25,
        }
        assert span.total == 20.0 - 10.0 + 0.25

    def test_abort_resets_marks_and_counts_retry(self):
        span = RequestSpan(request_id=1, arrival=0.0)
        span.note_attempt(1, "aws:z:a")
        span.mark_exec_start(1.0)
        span.mark_first_token(2.0)
        span.note_abort()  # replica preempted mid-request
        assert span.retries == 1
        assert span.exec_start is None and span.first_token is None
        # The retry lands on another replica; lost time shows up in queue.
        span.note_attempt(2, "aws:z:b")
        span.mark_exec_start(8.0)
        span.mark_first_token(9.0)
        span._finalize(12.0, 0.0, "ok")
        assert span.legs["queue"] == 8.0
        assert span.legs["prefill"] == 1.0
        assert span.legs["decode"] == 3.0
        assert span.replica_id == 2

    def test_missing_marks_clamp_to_zero_legs(self):
        # A request failed before reaching a batching slot: everything is
        # queueing, and the leg identity still holds.
        span = RequestSpan(request_id=1, arrival=0.0)
        span._finalize(30.0, 0.0, "failed")
        assert span.legs == {"queue": 30.0, "prefill": 0.0, "decode": 0.0, "wan": 0.0}
        assert span.total == 30.0

    def test_total_before_finalize_raises(self):
        with pytest.raises(ValueError):
            RequestSpan(request_id=1, arrival=0.0).total

    def test_to_event_carries_breakdown(self):
        span = RequestSpan(request_id=7, arrival=0.0)
        span.note_attempt(3, "aws:z:c")
        span.mark_exec_start(1.0)
        span.mark_first_token(2.0)
        span._finalize(5.0, 0.5, "ok")
        event = span.to_event()
        assert event.kind == "request.span"
        assert event.request_id == 7
        assert event.replica_id == 3
        assert event.zone == "aws:z:c"
        assert event.queue + event.prefill + event.decode + event.wan == event.total
        assert event.time == 5.5  # server finish + wan


class TestSpanRecorder:
    def test_complete_moves_span_and_records_legs(self):
        recorder = SpanRecorder()
        span = recorder.open(1, arrival=0.0)
        span.mark_exec_start(1.0)
        span.mark_first_token(2.0)
        assert recorder.open_count == 1
        done = recorder.complete(1, finish=4.0, wan=0.5)
        assert done is span
        assert recorder.open_count == 0
        assert span.status == "ok"
        assert span.legs["queue"] == pytest.approx(1.0)
        assert span.total == pytest.approx(4.5)

    def test_complete_unknown_id_returns_none(self):
        assert SpanRecorder().complete(99, finish=1.0, wan=0.0) is None

    def test_fail_records_separately(self):
        recorder = SpanRecorder()
        recorder.open(1, arrival=0.0)
        failed = recorder.fail(1, now=30.0)
        assert failed.status == "failed"
        assert recorder.open_count == 0
        assert recorder.get(1) is None

    def test_emits_span_events_when_bus_enabled(self):
        sink = RingBufferSink()
        recorder = SpanRecorder(bus=EventBus([sink]))
        recorder.open(1, arrival=0.0)
        recorder.complete(1, finish=2.0, wan=0.0)
        recorder.open(2, arrival=0.0)
        recorder.fail(2, now=5.0)
        assert [e.kind for e in sink.events] == ["request.span", "request.span"]
        assert [e.status for e in sink.events] == ["ok", "failed"]

    def test_no_events_without_bus(self):
        recorder = SpanRecorder()
        recorder.open(1, arrival=0.0)
        recorder.complete(1, finish=1.0, wan=0.0)
        assert recorder.bus.enabled is False
