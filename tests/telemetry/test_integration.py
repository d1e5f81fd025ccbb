"""End-to-end telemetry tests against the real serving stack.

Covers the acceptance properties from the telemetry design: deterministic
event ordering under a fixed seed, JSONL round-trips of a live run, span
legs that sum exactly to the client-recorded end-to-end latency, and a
disabled bus that adds no events (and no behaviour change).
"""

import pytest

from repro.cloud import HOUR, aws1
from repro.core import spothedge
from repro.serving import (
    DomainFilter,
    ReplicaPolicyConfig,
    ResourceSpec,
    ServiceSpec,
    SkyService,
)
from repro.telemetry import (
    NULL_BUS,
    EventBus,
    JsonlSink,
    RingBufferSink,
    read_events,
)
from repro.workloads import poisson_workload


def make_spec():
    return ServiceSpec(
        name="svc",
        replica_policy=ReplicaPolicyConfig(fixed_target=2),
        resources=ResourceSpec(
            accelerator="V100",
            any_of=(DomainFilter(cloud="aws", region="us-west-2"),),
        ),
        request_timeout=60.0,
    )


def run_once(telemetry=None, *, seed=7, duration=HOUR):
    trace = aws1()
    service = SkyService(
        make_spec(), spothedge(trace.zone_ids), trace, seed=seed, telemetry=telemetry
    )
    workload = poisson_workload(duration, rate=0.1, seed=3)
    report = service.run(workload, duration)
    return service, report


class TestDeterministicOrdering:
    def test_same_seed_same_event_stream(self):
        streams = []
        for _ in range(2):
            sink = RingBufferSink()
            run_once(EventBus([sink]))
            streams.append([e.to_dict() for e in sink.events])
        assert streams[0] == streams[1]
        assert streams[0]  # the run actually produced events

    def test_emission_order_follows_simulated_time(self):
        # Span events are stamped with the client-receive time (server
        # finish + WAN leg) but emitted at server finish, so subtract the
        # WAN leg to recover each event's emission time.
        sink = RingBufferSink()
        run_once(EventBus([sink]))
        times = [
            e.time - e.wan if e.kind == "request.span" else e.time
            for e in sink.events
        ]
        for earlier, later in zip(times, times[1:]):
            assert later >= earlier - 1e-6  # float slack from the wan round-trip


class TestJsonlRoundTrip:
    def test_full_run_round_trips(self, tmp_path):
        path = tmp_path / "events.jsonl"
        ring = RingBufferSink()
        bus = EventBus([ring, JsonlSink(path)])
        run_once(bus)
        bus.close()
        restored = read_events(path)
        assert [e.to_dict() for e in restored] == [e.to_dict() for e in ring.events]
        # Typed reconstruction, not GenericEvent fallback.
        assert {type(e).__name__ for e in restored} >= {
            "ReplicaLaunch",
            "ReplicaReady",
            "RouteDecision",
            "RequestSpanEvent",
            "PolicyDecision",
        }


def _span_events(sink, status):
    return [
        e for e in sink.events if e.kind == "request.span" and e.status == status
    ]


class TestSpanAccounting:
    def test_span_totals_equal_client_latencies(self):
        sink = RingBufferSink()
        service, report = run_once(EventBus([sink]))
        spans = _span_events(sink, "ok")
        assert len(spans) == report.completed
        span_totals = sorted(s.total for s in spans)
        latencies = sorted(service.client.latencies.samples)
        # Equal up to float rounding: the legs sum the same quantities
        # the client's latency sample computes, in a different order.
        assert span_totals == pytest.approx(latencies, abs=1e-9)

    def test_legs_sum_to_total(self):
        sink = RingBufferSink()
        run_once(EventBus([sink]))
        for span in _span_events(sink, "ok"):
            legs = (span.queue, span.prefill, span.decode, span.wan)
            assert sum(legs) == pytest.approx(span.total, abs=1e-9)
            assert all(v >= 0 for v in legs)

    def test_failed_requests_get_failed_spans(self):
        sink = RingBufferSink()
        service, report = run_once(EventBus([sink]))
        assert len(_span_events(sink, "failed")) == report.failed
        # Requests still in flight when the run ends keep open spans.
        in_flight = report.total_requests - report.completed - report.failed
        assert service.client.spans.open_count == in_flight


class TestDisabledBus:
    def test_no_telemetry_uses_null_bus(self):
        service, report = run_once(telemetry=None)
        assert service.telemetry is NULL_BUS
        assert service.engine.telemetry.enabled is False
        assert report.total_requests > 0

    def test_empty_bus_collects_nothing(self):
        bus = EventBus()  # no sinks -> disabled
        run_once(bus)
        assert bus.enabled is False

    def test_results_identical_with_and_without_telemetry(self):
        _, without = run_once(telemetry=None)
        _, with_bus = run_once(EventBus([RingBufferSink()]))
        assert without.completed == with_bus.completed
        assert without.failed == with_bus.failed
        assert without.total_cost == pytest.approx(with_bus.total_cost)


class TestAuditWiring:
    def test_policy_audit_attached_when_telemetry_on(self):
        sink = RingBufferSink()
        service, _ = run_once(EventBus([sink]))
        audit = service.policy.audit
        assert audit is not None
        assert audit.count("target_mix") >= 1
        # Audit records surfaced on the bus as policy.decision events.
        decisions = [e for e in sink.events if e.kind == "policy.decision"]
        assert len(decisions) == len(audit)

    def test_no_audit_without_telemetry(self):
        service, _ = run_once(telemetry=None)
        assert service.policy.audit is None
