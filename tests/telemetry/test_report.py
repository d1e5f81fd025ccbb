"""Unit tests for the canonical run report and terminal dashboard."""

import json

import numpy as np

from repro.telemetry import (
    AutoscaleDecision,
    ChaosInjected,
    ChaosScenarioEnded,
    ChaosScenarioStarted,
    CostSnapshot,
    EventBus,
    EventsDropped,
    FleetSample,
    LoadBalancerFallback,
    PolicyDecision,
    ProfilePhase,
    ReplicaLaunch,
    ReplicaPreempted,
    ReplicaReady,
    ReplicaTerminated,
    RingBufferSink,
    SloBurnAlert,
    build_report,
    render_dashboard,
)
from repro.telemetry.events import RequestSpanEvent
from repro.telemetry.report import (
    REPORT_SCHEMA,
    downsample_series,
    sparkline,
)


def _span(time, status="ok"):
    return RequestSpanEvent(
        time=time, request_id=int(time), status=status, queue=0.1,
        prefill=0.2, decode=0.6, wan=0.1, total=1.0, retries=0,
        replica_id=1, zone="aws:z:a", batch_size=1, queue_depth=0,
    )


def _events():
    events = []
    for i in range(20):
        t = float(i * 10)
        events.append(FleetSample(t, 3 if i % 4 else 1, 4))
        events.append(_span(t, status="ok" if i % 5 else "failed"))
    events.append(CostSnapshot(200.0, 1.25, 2.75, 4.0))
    return events


def _log_events():
    """A small serve-style log: lifecycle, policy, spans, final cost."""
    return [
        ReplicaLaunch(time=0.0, replica_id=1, zone="aws:z:a", spot=True),
        ReplicaLaunch(time=0.0, replica_id=2, zone="aws:z:b", spot=False),
        ReplicaReady(time=120.0, replica_id=1, zone="aws:z:a", spot=True),
        ReplicaReady(time=90.0, replica_id=2, zone="aws:z:b", spot=False),
        PolicyDecision(
            time=150.0, policy="SpotHedge", decision="rebalance",
            data={"restored": ["aws:z:c"]},
        ),
        AutoscaleDecision(time=200.0, old_target=2, new_target=3, request_rate=0.4),
        _span(210.0),
        _span(220.0),
        _span(230.0, status="failed"),
        ReplicaPreempted(time=300.0, replica_id=1, zone="aws:z:a", spot=True,
                         warned=True),
        ReplicaTerminated(time=400.0, replica_id=2, zone="aws:z:b", spot=False,
                          reason="scale_down"),
        CostSnapshot(time=500.0, spot=1.25, on_demand=0.75, total=2.0),
    ]


def _chaos_events():
    return [
        ChaosScenarioStarted(time=0.0, scenario="storm-demo", injections=2),
        ChaosInjected(time=3600.0, scenario="storm-demo",
                      injection="preemption_storm",
                      zones=["aws:z:a", "aws:z:b"],
                      detail="pulse systemic severity=1"),
        ChaosInjected(time=3900.0, scenario="storm-demo",
                      injection="preemption_storm", zones=["aws:z:a"],
                      detail="pulse independent severity=1"),
        ChaosInjected(time=5000.0, scenario="storm-demo",
                      injection="warning_disruption", zones=["aws:z:b"],
                      detail="warning suppressed"),
        ChaosScenarioEnded(time=10800.0, scenario="storm-demo", injected=3),
    ]


class TestDownsample:
    def test_short_series_pass_through(self):
        series = [(0.0, 1.0), (10.0, 2.0)]
        assert downsample_series(series, width=64) == [1.0, 2.0]

    def test_time_weighted_bucket_means(self):
        # Step function: value 0 for [0, 50), value 10 for [50, 100).
        series = [(0.0, 0.0), (50.0, 10.0), (100.0, 10.0)]
        out = downsample_series(series, width=2)
        assert out == [0.0, 10.0]

    def test_deterministic(self):
        series = [(float(i), float(i % 7)) for i in range(500)]
        assert downsample_series(series, 32) == downsample_series(series, 32)
        assert len(downsample_series(series, 32)) == 32

    def test_sparkline_levels(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0], width=4)
        assert len(line) == 4
        assert line[0] == "▁"
        assert line[-1] == "█"


class TestBuildReport:
    def test_sections_present(self):
        report = build_report(_events(), label="unit")
        data = report.to_dict()
        assert data["schema"] == REPORT_SCHEMA
        assert data["label"] == "unit"
        assert data["events"]["count"] == 41
        assert data["events"]["time_start"] == 0.0
        assert data["events"]["time_end"] == 200.0
        assert data["timelines"]["fleet_ready"]
        assert data["latency"]["latency.ok"]["count"] == 16
        assert data["latency"]["ttft"]["count"] == 16
        assert "availability" in data["slo"]

    def test_json_byte_identical_across_invocations(self):
        events = _events()
        r1 = build_report(events, label="x").to_json()
        r2 = build_report(events, label="x").to_json()
        assert r1 == r2
        assert r1.endswith("\n")
        json.loads(r1)  # valid JSON

    def test_profile_phases_excluded_from_time_range(self):
        events = _events()
        # A profile event stamped with wall-clock time must not stretch
        # the simulated time range.
        events.append(ProfilePhase(99999.0, "replay.policy", 10, 0.5, 0.1, True))
        report = build_report(events, label="x")
        data = report.to_dict()
        assert data["events"]["time_end"] == 200.0
        assert data["profile"][0]["phase"] == "replay.policy"

    def test_dropped_total_from_marker_events(self):
        from repro.telemetry import EventsDropped

        events = _events()
        events.append(EventsDropped(150.0, 42, 1000))
        report = build_report(events, label="x")
        assert report.to_dict()["events"]["dropped_total"] == 42

    def test_burn_alerts_listed(self):
        events = [_span(float(i), status="failed") for i in range(6)]
        report = build_report(
            events, label="x", window_fast=60.0, window_slow=600.0
        )
        data = report.to_dict()
        assert data["alerts"]
        assert data["alerts"][0]["state"] == "firing"
        assert data["slo"]["ttft"]["firing"]

    def test_last_dropped_marker_wins(self):
        events = [EventsDropped(1.0, 3, 10), EventsDropped(2.0, 9, 10)]
        assert build_report(events).to_dict()["events"]["dropped_total"] == 9

    def test_event_log_counters(self):
        data = build_report(_log_events()).to_dict()
        assert data["events"]["count"] == 12
        assert data["events"]["time_start"] == 0.0
        assert data["events"]["time_end"] == 500.0
        counters = data["counters"]
        assert counters["events_total"]["request.span"] == 3
        assert counters["replica_preemptions_total"] == {"aws:z:a": 1}
        assert counters["replica_preemptions_warned_total"] == {"aws:z:a": 1}
        assert counters["policy_decisions_total"] == {"rebalance": 1}
        assert data["latency"]["latency.ok"]["count"] == 2
        assert data["latency"]["latency.failed"]["count"] == 1
        assert data["cost"] == {"on_demand": 0.75, "spot": 1.25, "total": 2.0}

    def test_leg_rows_cover_completed_requests_only(self):
        latency = build_report(_events()).to_dict()["latency"]
        for leg in ("queue", "prefill", "decode", "wan"):
            assert latency[f"leg.{leg}"]["count"] == 16
        assert latency["leg.decode"]["p50"] == 0.6

    def test_chaos_counters(self):
        counters = build_report(_chaos_events()).to_dict()["counters"]
        assert counters["chaos_injections_total"] == {
            "preemption_storm": 2,
            "warning_disruption": 1,
        }
        assert counters["events_total"]["chaos.scenario_ended"] == 1

    def test_lb_fallbacks_counted(self):
        events = _log_events() + [
            LoadBalancerFallback(10.0, 5, 1, "locality"),
            LoadBalancerFallback(11.0, 6, 2, "locality"),
        ]
        counters = build_report(events).to_dict()["counters"]
        assert counters["lb_fallbacks_total"] == {"": 2}

    def test_empty_log(self):
        data = build_report([]).to_dict()
        assert data["events"]["count"] == 0
        assert data["events"]["time_start"] is None
        assert data["counters"] == {}
        assert data["latency"] == {}
        assert data["cost"] == {}

    def test_from_replay_events(self):
        from repro.cloud import SpotTrace
        from repro.core import spothedge
        from repro.experiments import ReplayConfig, TraceReplayer

        zones = ["aws:r1:a", "aws:r1:b"]
        rng = np.random.default_rng(0)
        trace = SpotTrace("t", zones, 60.0, rng.integers(0, 4, size=(2, 128)))
        sink = RingBufferSink()
        replayer = TraceReplayer(
            trace, ReplayConfig(n_tar=2), telemetry=EventBus([sink])
        )
        replayer.run(spothedge(zones))
        report = build_report(sink.events, label="replay")
        data = report.to_dict()
        assert data["timelines"]["cost_total"][-1] > 0
        assert sum(data["counters"]["replica_launches_total"].values()) >= 1


class TestRenderDashboard:
    def test_renders_all_sections(self):
        events = _events()
        events.append(ProfilePhase(0.0, "replay.policy", 8, 0.4, 0.1, True))
        report = build_report(events, label="demo")
        text = render_dashboard(report)
        assert "demo" in text
        assert "fleet" in text
        assert "hot phases" in text
        assert "replay.policy" in text
        assert "(sampled)" in text

    def test_dashboard_is_pure_function_of_report(self):
        events = _events()
        a = render_dashboard(build_report(events, label="x"))
        b = render_dashboard(build_report(events, label="x"))
        assert a == b

    def test_event_log_sections(self):
        text = render_dashboard(build_report(_log_events(), label="serve"))
        assert "span: 8.3m (t=0s..500s)" in text
        assert "leg.queue" in text
        assert "latency.failed" in text
        assert "cost: $2.00 (spot $1.25 / on-demand $0.75)" in text
        lines = text.splitlines()
        # One row per label set under each counter family's total.
        at = lines.index(
            next(line for line in lines if "replica_preemptions_total" in line)
        )
        assert lines[at + 1].split() == ["aws:z:a", "1"]
        assert any(line.split() == ["rebalance", "1"] for line in lines)
        assert any(line.split() == ["replica.launch", "2"] for line in lines)

    def test_chaos_and_policy_rows(self):
        events = _log_events() + _chaos_events()
        text = render_dashboard(build_report(events))
        assert "chaos_injections_total" in text
        assert "policy_decisions_total" in text
        lines = [line.split() for line in text.splitlines()]
        assert ["preemption_storm", "2"] in lines
        assert ["warning_disruption", "1"] in lines

    def test_no_chaos_no_rows(self):
        assert "chaos" not in render_dashboard(build_report(_log_events()))

    def test_dropped_events_warning(self):
        events = _log_events() + [EventsDropped(450.0, 7, 1000)]
        text = render_dashboard(build_report(events))
        assert "WARNING: the producing sink dropped 7 events" in text
        assert "undercount" in text

    def test_no_drops_no_warning(self):
        assert "WARNING" not in render_dashboard(build_report(_log_events()))

    def test_recorded_burn_alert_rows(self):
        events = _log_events() + [
            SloBurnAlert(50.0, "ttft", "firing", 20.0, 12.0, 300.0, 3600.0, 10.0),
            SloBurnAlert(90.0, "ttft", "resolved", 1.0, 2.0, 300.0, 3600.0, 10.0),
        ]
        text = render_dashboard(build_report(events))
        lines = [line.split() for line in text.splitlines()]
        assert ["slo_burn_alerts_total", "2"] in lines
        assert ["ttft,firing", "1"] in lines
        assert ["ttft,resolved", "1"] in lines

    def test_empty_log_renders(self):
        text = render_dashboard(build_report([], label="empty"))
        assert "events: 0" in text
        assert "span: n/a" in text
