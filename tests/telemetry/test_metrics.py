"""Unit tests for the typed time-series metrics registry."""

import json
import math

import numpy as np
import pytest

from repro.telemetry import (
    ChaosInjected,
    CostSnapshot,
    EventBus,
    FleetSample,
    MetricRegistry,
    MetricsSink,
    PolicyDecision,
    ReplicaLaunch,
    ReplicaPreempted,
    RequestSpanEvent,
    registry_from_events,
)
from repro.telemetry.metrics import (
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
)


class TestCounter:
    def test_inc(self):
        c = CounterMetric()
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            CounterMetric().inc(-1)


class TestGauge:
    def test_series_records_time_value_pairs(self):
        g = GaugeMetric()
        g.set(0.0, 1.0)
        g.set(10.0, 3.0)
        assert g.last == 3.0
        assert g.series() == [(0.0, 1.0), (10.0, 3.0)]

    def test_same_time_overwrites(self):
        g = GaugeMetric()
        g.set(5.0, 1.0)
        g.set(5.0, 2.0)
        assert g.series() == [(5.0, 2.0)]

    def test_last_only_mode_keeps_no_series(self):
        g = GaugeMetric(series=False)
        for i in range(100):
            g.set(float(i), float(i))
        assert g.last == 99.0
        assert g.series() == []


class TestHistogramPercentiles:
    def test_quantiles_match_numpy_on_in_range_data(self):
        edges = (1.0, 2.0, 3.0, 4.0, 5.0)
        h = HistogramMetric(edges)
        rng = np.random.default_rng(7)
        samples = rng.uniform(0.5, 5.5, size=500)
        for s in samples:
            h.observe(float(s))
        for q in (0, 25, 50, 90, 99, 100):
            estimate = h.quantile(q)
            exact = float(np.percentile(samples, q))
            # Bucket interpolation is exact only up to one bucket width.
            assert abs(estimate - exact) <= 1.0, (q, estimate, exact)

    def test_extremes_are_exact(self):
        h = HistogramMetric((10.0, 20.0))
        for v in (3.0, 12.0, 31.0):
            h.observe(v)
        assert h.quantile(0) == 3.0
        assert h.quantile(100) == 31.0

    def test_single_observation(self):
        h = HistogramMetric((1.0,))
        h.observe(0.5)
        assert h.quantile(50) == 0.5

    def test_empty_histogram(self):
        h = HistogramMetric((1.0,))
        assert math.isnan(h.quantile(50))

    def test_deterministic(self):
        h1, h2 = HistogramMetric((1.0, 2.0)), HistogramMetric((1.0, 2.0))
        for v in (0.1, 0.9, 1.5, 1.7, 5.0):
            h1.observe(v)
            h2.observe(v)
        assert h1.to_dict() == h2.to_dict()


class TestRegistry:
    def test_reregistration_is_idempotent(self):
        reg = MetricRegistry()
        a = reg.counter("x_total", "help", ("zone",))
        b = reg.counter("x_total", "help", ("zone",))
        assert a is b

    def test_type_mismatch_rejected(self):
        reg = MetricRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError):
            reg.gauge("x_total")

    def test_label_mismatch_rejected(self):
        reg = MetricRegistry()
        reg.counter("x_total", labels=("zone",))
        with pytest.raises(ValueError):
            reg.counter("x_total", labels=("region",))

    def test_to_dict_is_canonical_json(self):
        reg = MetricRegistry()
        reg.counter("b_total").labels().inc(2)
        reg.gauge("a_value").labels().set(1.0, 3.0)
        text = json.dumps(reg.to_dict(), sort_keys=True)
        reg2 = MetricRegistry()
        reg2.gauge("a_value").labels().set(1.0, 3.0)  # other order
        reg2.counter("b_total").labels().inc(2)
        assert json.dumps(reg2.to_dict(), sort_keys=True) == text

    def test_prometheus_render_escapes_quoted_zone_ids(self):
        # Regression: a zone id containing quotes/backslash/newline must
        # render as valid exposition text through the registry path too.
        reg = MetricRegistry()
        family = reg.counter("preempt_total", "Preempted.", ("zone",))
        family.labels('gcp:"us"\n\\z').inc()
        text = reg.render_prometheus()
        assert 'zone="gcp:\\"us\\"\\n\\\\z"' in text
        assert "\n\n" not in text

    def test_prometheus_render_histogram_cumulative_buckets(self):
        reg = MetricRegistry()
        h = reg.histogram("lat_seconds", buckets=(1.0, 2.0))
        child = h.labels()
        for v in (0.5, 1.5, 3.0):
            child.observe(v)
        text = reg.render_prometheus()
        assert 'lat_seconds_bucket{le="1.0"} 1' in text
        assert 'lat_seconds_bucket{le="2.0"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 3' in text
        assert "lat_seconds_count 3" in text


def _launch(i, zone="aws:z:a"):
    return ReplicaLaunch(time=float(i), replica_id=i, zone=zone, spot=True)


class TestPrometheusRendering:
    """The exposition ``repro serve --metrics-out`` writes."""

    def test_events_counted_by_kind(self):
        reg = registry_from_events([
            _launch(1),
            _launch(2),
            ReplicaPreempted(time=3.0, replica_id=3, zone="aws:z:b", spot=True,
                             warned=False),
        ])
        text = reg.render_prometheus()
        assert 'events_total{kind="replica.launch"} 2.0' in text
        assert 'events_total{kind="replica.preempted"} 1.0' in text
        assert 'replica_preemptions_total{zone="aws:z:b"} 1.0' in text

    def test_text_format(self):
        text = registry_from_events([_launch(1)]).render_prometheus()
        assert "# TYPE events_total counter" in text
        assert text.endswith("\n")

    def test_gauge_renders_last_value(self):
        reg = MetricRegistry()
        cost = reg.gauge("cost_dollars", "Accrued cost.", ("market",))
        cost.labels("spot").set(0.0, 1.0)
        cost.labels("spot").set(5.0, 2.5)
        text = reg.render_prometheus()
        assert "# TYPE cost_dollars gauge" in text
        assert 'cost_dollars{market="spot"} 2.5' in text

    def test_label_quote_escaped(self):
        text = registry_from_events([_launch(1, zone='z"1')]).render_prometheus()
        assert 'zone="z\\"1"' in text

    def test_label_backslash_and_newline_escaped(self):
        # Exposition format: \ -> \\, " -> \", newline -> \n, in that
        # escape order (a backslash introduced by the quote escape must
        # not be doubled).
        events = [_launch(1, zone='a\\b"c\nd')]
        text = registry_from_events(events).render_prometheus()
        assert 'zone="a\\\\b\\"c\\nd"' in text

    def test_gauge_label_values_escaped(self):
        reg = MetricRegistry()
        reg.gauge("cost_dollars", labels=("zone",)).labels('z"1\n').set(0.0, 1.0)
        assert 'zone="z\\"1\\n"' in reg.render_prometheus()

    def test_help_text_escaped(self):
        # HELP lines escape backslash and newline (quotes are legal).
        reg = MetricRegistry()
        reg.gauge(
            "cost_dollars", 'Accrued "cost"\nwith a \\ backslash.'
        ).labels().set(0.0, 1.0)
        text = reg.render_prometheus()
        assert (
            '# HELP cost_dollars Accrued "cost"\\nwith a \\\\ backslash.'
            in text
        )
        # The exposition stays one-metric-per-line despite the newline.
        assert all(
            line.startswith(("#", "cost_dollars"))
            for line in text.strip().split("\n")
        )


def _span(time, status="ok", **kw):
    defaults = dict(
        request_id=1, status=status, queue=0.1, prefill=0.2, decode=1.0,
        wan=0.05, total=1.35, retries=0, replica_id=1, zone="aws:z:a",
        batch_size=2, queue_depth=1,
    )
    defaults.update(kw)
    return RequestSpanEvent(time=time, **defaults)


class TestMetricsSink:
    def test_aggregates_from_bus(self):
        sink = MetricsSink()
        bus = EventBus([sink])
        bus.emit(ReplicaPreempted(
            time=1.0, replica_id=1, zone="aws:z:a", spot=True, warned=True
        ))
        bus.emit(_span(2.0))
        bus.emit(_span(3.0, status="failed"))
        bus.emit(FleetSample(4.0, 3, 4))
        bus.emit(CostSnapshot(5.0, 1.5, 2.5, 4.0))
        reg = sink.registry
        preempt = reg.counter(
            "replica_preemptions_total", labels=("zone",)
        )
        assert preempt.labels("aws:z:a").value == 1
        lat = reg.histogram("request_latency_seconds", labels=("status",))
        assert lat.labels("ok").count == 1
        assert lat.labels("failed").count == 1
        ready = reg.gauge("fleet_ready_replicas")
        assert ready.labels().series() == [(4.0, 3.0)]
        cost = reg.gauge("cost_accrued_dollars", labels=("market",))
        assert cost.labels("total").last == 4.0

    def test_ttft_only_observed_for_ok_spans(self):
        sink = MetricsSink()
        sink.accept(_span(1.0))
        sink.accept(_span(2.0, status="timeout"))
        ttft = sink.registry.histogram("request_ttft_seconds")
        assert ttft.labels().count == 1
        # TTFT = queue + prefill + wan.
        assert ttft.labels().total == pytest.approx(0.35)

    def test_legs_only_observed_for_ok_spans(self):
        # A failed span's legs are clamped placeholders (queue = time to
        # the deadline); they must stay out of the leg percentiles.
        sink = MetricsSink()
        sink.accept(_span(1.0))
        sink.accept(_span(2.0, status="failed", queue=60.0, prefill=0.0,
                          decode=0.0, wan=0.0, total=60.0))
        legs = sink.registry.histogram("request_leg_seconds", labels=("leg",))
        assert legs.labels("queue").count == 1
        assert legs.labels("queue").max == pytest.approx(0.1)

    def test_policy_and_chaos_counters(self):
        reg = registry_from_events([
            PolicyDecision(time=1.0, policy="SpotHedge", decision="rebalance"),
            PolicyDecision(time=2.0, policy="SpotHedge", decision="rebalance"),
            PolicyDecision(time=3.0, policy="SpotHedge", decision="fallback"),
            ChaosInjected(time=4.0, scenario="s", injection="preemption_storm",
                          zones=["z"]),
        ])
        decisions = reg.get("policy_decisions_total").children()
        assert decisions[("rebalance",)].value == 2
        assert decisions[("fallback",)].value == 1
        chaos = reg.get("chaos_injections_total").children()
        assert chaos[("preemption_storm",)].value == 1

    def test_every_event_counted_by_kind(self):
        events = [_span(float(i)) for i in range(3)]
        reg = registry_from_events(events)
        family = reg.counter("events_total", labels=("kind",))
        assert family.labels("request.span").value == 3

    def test_unknown_kinds_still_counted(self):
        sink = MetricsSink()
        bus = EventBus([sink])
        bus.emit(CostSnapshot(1.0, 0.0, 0.0, 0.0))
        family = sink.registry.counter("events_total", labels=("kind",))
        assert family.labels("cost.snapshot").value == 1
