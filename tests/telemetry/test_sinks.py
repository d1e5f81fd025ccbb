"""Unit tests for event sinks and JSONL round-trips."""

import io

import pytest

from repro.telemetry import (
    JsonlSink,
    ReplicaLaunch,
    ReplicaPreempted,
    ReplicaReady,
    RingBufferSink,
    read_events,
)


def _event(i):
    return ReplicaReady(time=float(i), replica_id=i, zone="aws:z:a", spot=True)


class TestRingBufferSink:
    def test_unbounded_keeps_everything(self):
        sink = RingBufferSink()
        for i in range(100):
            sink.accept(_event(i))
        assert len(sink) == 100
        assert sink.dropped == 0

    def test_bounded_drops_oldest(self):
        sink = RingBufferSink(capacity=3)
        for i in range(5):
            sink.accept(_event(i))
        assert [e.replica_id for e in sink.events] == [2, 3, 4]
        assert sink.dropped == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)

    def test_clear(self):
        sink = RingBufferSink(capacity=1)
        sink.accept(_event(0))
        sink.accept(_event(1))
        sink.clear()
        assert len(sink) == 0
        assert sink.dropped == 0

    def test_dropped_total_counts_every_overwrite(self):
        sink = RingBufferSink(capacity=2)
        for i in range(7):
            sink.accept(_event(i))
        assert sink.dropped_total == 5
        assert sink.dropped == sink.dropped_total  # legacy alias
        assert sink.capacity == 2

    def test_drop_event_packages_the_loss(self):
        sink = RingBufferSink(capacity=2)
        assert sink.drop_event() is None  # nothing dropped yet
        for i in range(5):
            sink.accept(_event(i))
        marker = sink.drop_event()
        assert marker is not None
        assert marker.kind == "telemetry.dropped"
        assert marker.dropped_total == 3
        assert marker.capacity == 2
        assert marker.time == 4.0  # last buffered event's timestamp

    def test_unbounded_never_produces_drop_event(self):
        sink = RingBufferSink()
        for i in range(10):
            sink.accept(_event(i))
        assert sink.dropped_total == 0
        assert sink.capacity == 0
        assert sink.drop_event() is None


class TestJsonlSink:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        events = [
            ReplicaLaunch(time=0.0, replica_id=1, zone="aws:z:a", spot=True),
            ReplicaReady(time=5.0, replica_id=1, zone="aws:z:a", spot=True),
            ReplicaPreempted(
                time=9.0, replica_id=1, zone="aws:z:a", spot=True, warned=True
            ),
        ]
        with JsonlSink(path) as sink:
            for event in events:
                sink.accept(event)
            assert sink.count == 3
        restored = read_events(path)
        assert restored == events
        assert [type(e) for e in restored] == [type(e) for e in events]

    def test_stream_target_not_closed(self):
        stream = io.StringIO()
        sink = JsonlSink(stream)
        sink.accept(_event(0))
        sink.close()
        assert not stream.closed
        assert stream.getvalue().count("\n") == 1

    def test_blank_lines_skipped_on_read(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"kind": "replica.ready", "time": 1.0, '
                        '"replica_id": 1, "zone": "z", "spot": true}\n\n')
        assert len(read_events(path)) == 1

    def test_missing_fields_name_the_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"kind": "replica.launch", "time": 0.0, '
                        '"replica_id": 1, "zone": "z", "spot": true}\n'
                        '{"kind": "replica.ready", "time": 1.0}\n')
        with pytest.raises(ValueError, match=r"line 2: .*replica_id, zone, spot"):
            read_events(path)

    def test_non_object_payload_names_the_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(ValueError, match=r"line 1: expected a JSON object"):
            read_events(path)
