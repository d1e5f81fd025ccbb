"""Unit tests for the workload replay client: timeouts, retries, and
latency accounting (§5.1 methodology)."""

import numpy as np
import pytest

from repro.cloud import CloudConfig, SimCloud, SpotTrace
from repro.core import spothedge
from repro.serving import (
    DomainFilter,
    ModelProfile,
    ReplicaPolicyConfig,
    ResourceSpec,
    RetryPolicy,
    ServiceClient,
    ServiceController,
    ServiceSpec,
)
from repro.sim import SimulationEngine
from repro.workloads import Request, Workload

ZONES = ["aws:us-west-2:us-west-2a", "aws:us-west-2:us-west-2b"]


def build(capacity_rows, workload, *, timeout=50.0, service_seconds=2.0):
    engine = SimulationEngine()
    trace = SpotTrace("cli", ZONES, 60.0, np.asarray(capacity_rows))
    cloud = SimCloud(
        engine,
        trace,
        config=CloudConfig(provision_delay_mean=30.0, setup_delay_mean=30.0, delay_jitter=0.0),
    )
    spec = ServiceSpec(
        replica_policy=ReplicaPolicyConfig(fixed_target=1, num_overprovision=0),
        resources=ResourceSpec(
            accelerator="V100", any_of=(DomainFilter(cloud="aws", region="us-west-2"),)
        ),
        request_timeout=timeout,
    )
    policy = spothedge(ZONES, num_overprovision=0)
    profile = ModelProfile("m", overhead=service_seconds, prefill_per_token=0.0,
                           decode_per_token=0.0, max_concurrency=4)
    controller = ServiceController(engine, cloud, spec, policy, profile)
    client = ServiceClient(controller, workload, retry_interval=2.0)
    return engine, controller, client


def workload_at(times):
    return Workload(
        "w", [Request(i, t, 10, 10) for i, t in enumerate(times)]
    )


def full_rows(steps=60):
    return [[2] * steps, [2] * steps]


class TestHappyPath:
    def test_request_completes_with_latency(self):
        engine, controller, client = build(full_rows(), workload_at([100.0]))
        controller.start()
        client.start()
        engine.run_until(300.0)
        stats = client.stats()
        assert stats.completed == 1
        assert stats.failed == 0
        # ~2 s compute plus a sub-second WAN round trip.
        assert 2.0 <= stats.latency.p50 <= 3.0

    def test_latency_includes_wan_rtt(self):
        engine, controller, client = build(full_rows(), workload_at([100.0]))
        controller.start()
        client.start()
        engine.run_until(300.0)
        assert client.stats().latency.p50 > 2.0

    def test_all_requests_served(self):
        times = [100.0 + 5 * i for i in range(20)]
        engine, controller, client = build(full_rows(), workload_at(times))
        controller.start()
        client.start()
        engine.run_until(500.0)
        assert client.stats().completed == 20


class TestDowntime:
    def test_no_replicas_times_out(self):
        rows = [[0] * 60, [0] * 60]
        engine, controller, client = build(rows, workload_at([100.0]), timeout=20.0)
        # No on-demand fallback in this policy config? SpotHedge falls
        # back to OD, so disable by blocking OD via capacity-free spec:
        # instead, simply don't start the controller -> no replicas ever.
        client.start()
        engine.run_until(300.0)
        stats = client.stats()
        assert stats.failed == 1
        assert stats.completed == 0

    def test_request_waits_until_replica_ready(self):
        # Capacity exists but replicas are cold until ~60s; a request at
        # t=10 with a generous timeout completes after readiness.
        engine, controller, client = build(full_rows(), workload_at([10.0]), timeout=90.0)
        controller.start()
        client.start()
        engine.run_until(300.0)
        stats = client.stats()
        assert stats.completed == 1
        # It waited tens of seconds for the first replica.
        assert stats.latency.p50 > 30.0

    def test_completion_after_deadline_counts_as_failure(self):
        engine, controller, client = build(
            full_rows(), workload_at([10.0]), timeout=20.0
        )
        controller.start()
        client.start()
        engine.run_until(400.0)
        stats = client.stats()
        assert stats.failed == 1
        assert stats.completed == 0


class TestPreemptionRetry:
    def test_aborted_request_retried_on_surviving_replica(self):
        # Zone a dies at t=120; its in-flight work must retry on zone b.
        rows = [[1] * 2 + [0] * 58, [1] * 60]
        engine, controller, client = build(
            rows, workload_at([100.0 + i for i in range(10)]),
            timeout=150.0, service_seconds=10.0,
        )
        controller.start()
        client.start()
        engine.run_until(600.0)
        stats = client.stats()
        assert stats.retries > 0
        assert stats.completed + stats.failed == 10
        assert stats.completed >= 5

    def test_failure_time_included_in_latency(self):
        rows = [[1] * 2 + [0] * 58, [1] * 60]
        engine, controller, client = build(
            rows, workload_at([110.0]), timeout=200.0, service_seconds=30.0,
        )
        controller.start()
        client.start()
        engine.run_until(600.0)
        stats = client.stats()
        if stats.retries and stats.completed:
            # Wasted work before the preemption stays in the latency.
            assert stats.latency.p50 > 30.0


class TestRetryPolicy:
    def test_exponential_growth_capped(self):
        policy = RetryPolicy(base=2.0, multiplier=2.0, cap=30.0, jitter=0.0)
        assert [policy.delay(n) for n in range(6)] == [
            2.0, 4.0, 8.0, 16.0, 30.0, 30.0
        ]

    def test_jitter_is_seeded_and_bounded(self):
        policy = RetryPolicy(base=2.0, multiplier=2.0, cap=30.0, jitter=0.25)
        a = [policy.delay(n, np.random.default_rng(7)) for n in range(4)]
        b = [policy.delay(n, np.random.default_rng(7)) for n in range(4)]
        assert a == b  # same seed, same delays
        for n, value in enumerate(a):
            raw = min(2.0 * 2.0**n, 30.0)
            assert 0.75 * raw <= value <= 1.25 * raw

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(base=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(cap=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy().delay(-1)


class TestBackoffRetries:
    def test_no_replica_backs_off_exponentially(self):
        """With no replicas ever ready, the retry attempts follow the
        deterministic (jitter-0) exponential schedule."""
        rows = [[0] * 60, [0] * 60]
        engine, controller, _ = build(rows, workload_at([0.0]), timeout=120.0)
        client = ServiceClient(
            controller,
            workload_at([0.0]),
            backoff=RetryPolicy(base=2.0, multiplier=2.0, cap=30.0, jitter=0.0),
        )
        attempts = []
        original = controller.route

        def tracking_route(request):
            attempts.append(engine.now)
            return original(request)

        controller.route = tracking_route
        client.start()  # controller never starts -> no replicas
        engine.run_until(200.0)
        # Arrival attempt plus backoffs at +2, +4(=6), +8(=14), +16(=30),
        # +30(=60), +30(=90); the next (+30=120) would hit the deadline.
        assert attempts == [0.0, 2.0, 6.0, 14.0, 30.0, 60.0, 90.0]
        assert client.stats().failed == 1

    def test_shed_requests_retry_and_complete(self):
        """Admission-control sheds bounce back through the backoff path
        and eventually complete once the queue drains."""
        engine = SimulationEngine()
        trace = SpotTrace("cli", ZONES, 60.0, np.asarray(full_rows()))
        cloud = SimCloud(
            engine,
            trace,
            config=CloudConfig(provision_delay_mean=30.0, setup_delay_mean=30.0,
                               delay_jitter=0.0),
        )
        spec = ServiceSpec(
            replica_policy=ReplicaPolicyConfig(fixed_target=1, num_overprovision=0),
            resources=ResourceSpec(
                accelerator="V100",
                any_of=(DomainFilter(cloud="aws", region="us-west-2"),),
            ),
            request_timeout=400.0,
            max_queue_per_replica=1,
        )
        policy = spothedge(ZONES, num_overprovision=0)
        profile = ModelProfile("m", overhead=10.0, prefill_per_token=0.0,
                               decode_per_token=0.0, max_concurrency=1)
        controller = ServiceController(engine, cloud, spec, policy, profile)
        # Burst of 6 requests at one instant against a single replica
        # with 1 slot + 1 queue entry: most are shed at least once.
        times = [100.0] * 6
        client = ServiceClient(
            controller,
            workload_at(times),
            backoff=RetryPolicy(base=2.0, multiplier=2.0, cap=30.0, jitter=0.0),
        )
        controller.start()
        client.start()
        engine.run_until(500.0)
        stats = client.stats()
        assert stats.shed > 0
        assert stats.retries >= stats.shed
        assert stats.completed == 6

    def test_backoff_runs_are_deterministic(self):
        """Same seed in, same stats out — the jitter draws come from the
        seeded generator."""

        def run():
            rows = full_rows()
            engine = SimulationEngine()
            trace = SpotTrace("cli", ZONES, 60.0, np.asarray(rows))
            cloud = SimCloud(
                engine,
                trace,
                config=CloudConfig(provision_delay_mean=30.0,
                                   setup_delay_mean=30.0, delay_jitter=0.0),
            )
            spec = ServiceSpec(
                replica_policy=ReplicaPolicyConfig(fixed_target=1,
                                                   num_overprovision=0),
                resources=ResourceSpec(
                    accelerator="V100",
                    any_of=(DomainFilter(cloud="aws", region="us-west-2"),),
                ),
                request_timeout=300.0,
                max_queue_per_replica=1,
            )
            policy = spothedge(ZONES, num_overprovision=0)
            profile = ModelProfile("m", overhead=5.0, prefill_per_token=0.0,
                                   decode_per_token=0.0, max_concurrency=1)
            controller = ServiceController(engine, cloud, spec, policy, profile)
            client = ServiceClient(
                controller,
                workload_at([100.0] * 5),
                backoff=RetryPolicy(jitter=0.2),
                rng=np.random.default_rng(11),
            )
            controller.start()
            client.start()
            engine.run_until(400.0)
            s = client.stats()
            return (s.completed, s.failed, s.retries, s.shed,
                    tuple(client.latencies.samples))

        assert run() == run()


class TestParkedRetries:
    """A fixed-interval request that finds no ready replica parks: it
    holds no engine event until a replica is ready, yet every number a
    polling client would produce stays the same."""

    TIMES = [float(i) for i in range(20)]

    def outage(self, timeout, **client_kwargs):
        # The controller never starts, so no replica is ever ready.
        engine, controller, _ = build(
            [[0] * 60, [0] * 60], workload_at(self.TIMES), timeout=timeout
        )
        client = ServiceClient(controller, workload_at(self.TIMES), **client_kwargs)
        client.start()
        return engine, controller, client

    @pytest.mark.parametrize("timeout", [20.0, 50.0, 100.0])
    def test_parked_request_costs_arrival_and_deadline_only(self, timeout):
        engine, _, client = self.outage(timeout)
        engine.run_until(400.0)
        # Polling every 2 s cost 520 events at a 50 s timeout, 1020 at 100 s.
        assert engine.events_processed == 2 * len(self.TIMES)
        assert engine.pending_events == 0
        assert client.stats().failed == len(self.TIMES)

    def test_skipped_polls_fill_the_request_window(self):
        engine, controller, _ = self.outage(100.0)
        engine.run_until(60.0)
        # What polling at arrival, +2, +4, ... would have recorded by t=60.
        polls = [t + 2.0 * k for t in self.TIMES for k in range(31) if t + 2.0 * k <= 60.0]
        assert controller.autoscaler.request_rate(60.0) == len(polls) / 60.0

    def test_wake_on_grid_point_equal_to_ready_time(self):
        """A replica is ready at exactly t=60, from an event scheduled at
        launch (more than one retry interval earlier).  The poll due at
        60 was scheduled at 58, after that event, so it fires after the
        replica is ready: the parked request routes at t=60 itself."""
        engine, controller, client = build(full_rows(), workload_at([50.0]), timeout=90.0)
        routes = []
        original = controller.route

        def tracking_route(request):
            replica = original(request)
            routes.append((engine.now, replica))
            return replica

        controller.route = tracking_route
        controller.start()
        client.start()
        engine.run_until(300.0)
        (first, missed), (woken, replica) = routes
        assert (first, missed) == (50.0, None)
        assert replica is not None and woken == replica.ready_at == 60.0
        assert client.stats().completed == 1

    def test_tie_rule_for_polls_due_now(self):
        """A poll due at the current time has fired iff it was scheduled
        (at the previous grid point) before the running event was."""
        from repro.serving.client import _ParkedRequest

        _, _, client = self.outage(100.0)
        request = Request(0, 50.0, 10, 10)
        fired_first = _ParkedRequest(client, request, 150.0, 50.0)
        assert fired_first.skipped_polls(60.0, 58.5) == [52.0, 54.0, 56.0, 58.0, 60.0]
        for scheduled_at in (58.0, 30.0):
            fires_after = _ParkedRequest(client, request, 150.0, 50.0)
            assert fires_after.skipped_polls(60.0, scheduled_at) == [52.0, 54.0, 56.0, 58.0]
            assert fires_after.last == 58.0
        # No poll is due at or after the deadline.
        assert _ParkedRequest(client, request, 55.0, 50.0).skipped_polls(60.0, 0.0) == [
            52.0,
            54.0,
        ]

    def test_retry_policy_keeps_polling(self):
        """Backoff draws jitter from the shared RNG on every poll, so a
        RetryPolicy client polls as before: same events, same draws."""
        counts = {}
        for timeout, draw in [(50.0, 0.14362144311335512), (100.0, 0.1439302392509284)]:
            rng = np.random.default_rng(11)
            engine, _, client = self.outage(
                timeout, backoff=RetryPolicy(jitter=0.2), rng=rng
            )
            engine.run_until(400.0)
            counts[timeout] = engine.events_processed
            assert float(rng.random()) == draw
            assert client.stats().failed == len(self.TIMES)
        assert counts == {50.0: 120, 100.0: 160}


class TestValidation:
    def test_double_start_rejected(self):
        engine, controller, client = build(full_rows(), workload_at([1.0]))
        client.start()
        with pytest.raises(RuntimeError):
            client.start()

    def test_invalid_retry_interval(self):
        engine, controller, _ = build(full_rows(), workload_at([1.0]))
        with pytest.raises(ValueError):
            ServiceClient(controller, workload_at([1.0]), retry_interval=0.0)

    def test_stats_on_empty_workload(self):
        engine, controller, client = build(full_rows(), workload_at([]))
        client.start()
        engine.run_until(10.0)
        stats = client.stats()
        assert stats.total_requests == 0
        assert stats.failure_rate == 0.0
        # Empty recorders yield NaN-safe falsy summaries, not None.
        assert not stats.latency
        assert stats.latency.count == 0
