"""Unit tests for the QPS-window autoscaler (§4)."""


from repro.serving import Autoscaler, ReplicaPolicyConfig


def config(**kwargs):
    defaults = dict(
        target_qps_per_replica=1.0,
        qps_window=60.0,
        upscale_delay=300.0,
        downscale_delay=600.0,
        min_replicas=1,
        max_replicas=10,
    )
    defaults.update(kwargs)
    return ReplicaPolicyConfig(**defaults)


def feed_rate(scaler, rate, start, end, step=1.0):
    """Feed a constant request rate into the window."""
    t = start
    while t < end:
        count = rate * step
        whole = int(count)
        for i in range(whole):
            scaler.record_request(t + i * step / max(whole, 1))
        t += step


class TestCandidate:
    def test_candidate_is_ceil_rate_over_qtar(self):
        scaler = Autoscaler(config(target_qps_per_replica=2.0))
        for i in range(300):  # 5 req/s over the last 60s
            scaler.record_request(940.0 + i * 0.2)
        assert scaler.candidate_target(1000.0) == 3  # ceil(5/2)

    def test_candidate_clamped_to_bounds(self):
        scaler = Autoscaler(config(max_replicas=4))
        for i in range(600):
            scaler.record_request(999.0)
        assert scaler.candidate_target(1000.0) == 4

    def test_rate_window_expires_old_arrivals(self):
        scaler = Autoscaler(config())
        scaler.record_request(0.0)
        assert scaler.request_rate(1000.0) == 0.0


class TestWindowMemory:
    def test_fixed_target_window_stays_bounded(self):
        """Nothing reads the window under ``fixed_target``, so appends
        prune it: it never holds more than one window of arrivals."""
        import numpy as np

        scaler = Autoscaler(config(fixed_target=4, qps_window=60.0))
        times = np.sort(np.random.default_rng(3).uniform(0.0, 36_000.0, 100_000))
        largest = 0
        for t in times:
            scaler.record_request(float(t))
            largest = max(largest, len(scaler._arrivals))
            scaler.evaluate(float(t))
        in_any_window = int(np.max(np.searchsorted(times, times, side="right")
                                   - np.searchsorted(times, times - 60.0)))
        assert largest <= in_any_window < 300
        now = float(times[-1])
        expected = int(np.count_nonzero(times >= now - 60.0))
        assert len(scaler._arrivals) == expected
        assert scaler.request_rate(now) == expected / 60.0

    def test_late_arrivals_counted_like_timely_ones(self):
        """Arrivals recorded out of time order (a controller's skipped
        retry polls) count exactly as if recorded when they happened."""
        import numpy as np

        times = np.random.default_rng(4).uniform(0.0, 600.0, 2_000)
        scaler = Autoscaler(config(qps_window=60.0))
        now = 0.0
        for end in range(50, 2_001, 50):
            recorded = times[:end]
            now = max(now, float(recorded[-50:].max()))
            scaler.record_requests([float(t) for t in recorded[-50:]], now=now)
            brute = int(np.count_nonzero(recorded >= now - 60.0))
            assert scaler.request_rate(now) == brute / 60.0


class TestWarmUpRate:
    """During warm-up (now < qps_window) the divisor is the elapsed
    time — dividing by the full window underestimated R_t and delayed
    the first upscale."""

    def test_rate_normalised_by_elapsed_time(self):
        scaler = Autoscaler(config(qps_window=60.0))
        # 5 req/s for the first 10 simulated seconds.
        for i in range(50):
            scaler.record_request(i * 0.2)
        assert scaler.request_rate(10.0) == 5.0  # not 50/60

    def test_rate_zero_at_time_zero(self):
        scaler = Autoscaler(config())
        scaler.record_request(0.0)
        assert scaler.request_rate(0.0) == 0.0

    def test_full_window_unchanged_after_warmup(self):
        scaler = Autoscaler(config(qps_window=60.0))
        for i in range(300):  # 5 req/s over [940, 1000)
            scaler.record_request(940.0 + i * 0.2)
        assert scaler.request_rate(1000.0) == 5.0

    def test_warmup_trajectory_pinned(self):
        """The candidate tracks the true rate from the first seconds on:
        a steady 4 req/s feed proposes 4 replicas at t=10 as at t=120."""
        scaler = Autoscaler(config(target_qps_per_replica=1.0, qps_window=60.0))
        trajectory = []
        t = 0.0
        for tick in range(12):
            end = (tick + 1) * 10.0
            while t < end:
                scaler.record_request(t)
                t += 0.25
            trajectory.append(scaler.candidate_target(end))
        assert trajectory == [4] * 12


class TestHoldTimes:
    def test_upscale_only_after_sustained_load(self):
        scaler = Autoscaler(config(), initial_target=1)
        # High load at t=0: candidate jumps but target holds.
        feed_rate(scaler, 5.0, 0.0, 60.0)
        assert scaler.evaluate(60.0) == 1
        # Still high 100s later (short of the 300s delay).
        feed_rate(scaler, 5.0, 60.0, 160.0)
        assert scaler.evaluate(160.0) == 1
        # Past the upscale delay: target moves.
        feed_rate(scaler, 5.0, 160.0, 400.0)
        assert scaler.evaluate(400.0) == 5

    def test_downscale_slower_than_upscale(self):
        scaler = Autoscaler(config(), initial_target=5)
        # Low load: candidate = 1, but downscale needs 600 s.
        assert scaler.evaluate(0.0) == 5
        assert scaler.evaluate(400.0) == 5
        assert scaler.evaluate(700.0) == 1

    def test_blip_does_not_move_target(self):
        scaler = Autoscaler(config(), initial_target=1)
        feed_rate(scaler, 5.0, 0.0, 60.0)
        scaler.evaluate(60.0)
        # Load vanishes before the hold expires: candidate back to <= 1.
        assert scaler.evaluate(200.0) == 1
        assert scaler.evaluate(400.0) == 1


class TestFixedTarget:
    def test_fixed_target_ignores_load(self):
        scaler = Autoscaler(config(fixed_target=4))
        feed_rate(scaler, 50.0, 0.0, 60.0)
        assert scaler.evaluate(60.0) == 4
        assert scaler.n_tar == 4

    def test_fixed_target_clamped(self):
        scaler = Autoscaler(config(fixed_target=99, max_replicas=10))
        assert scaler.evaluate(0.0) == 10


class TestSloMode:
    def slo_config(self, **kwargs):
        defaults = dict(
            autoscale_mode="slo",
            ttft_slo=2.0,
            tpot_slo=0.2,
            slo_violation_threshold=0.1,
            slo_window=120.0,
        )
        defaults.update(kwargs)
        return config(**defaults)

    def test_violation_rate_counts_both_signals(self):
        scaler = Autoscaler(self.slo_config())
        scaler.record_ttft(10.0, 1.0)   # ok
        scaler.record_ttft(11.0, 5.0)   # violated
        scaler.record_tpot(12.0, 0.1)   # ok
        scaler.record_tpot(13.0, 0.5)   # violated
        assert scaler.slo_violation_rate(20.0) == 0.5

    def test_violation_window_expires(self):
        scaler = Autoscaler(self.slo_config(slo_window=100.0))
        scaler.record_ttft(0.0, 10.0)
        assert scaler.slo_violation_rate(50.0) == 1.0
        assert scaler.slo_violation_rate(200.0) == 0.0

    def test_candidate_bumped_on_violations(self):
        scaler = Autoscaler(self.slo_config(), initial_target=4)
        # No request-rate pressure, but every sample violates TTFT.
        for i in range(10):
            scaler.record_ttft(float(i), 100.0)
        # violation rate 1.0 -> bump = ceil(1.0 * 4) = 4 above n_tar.
        assert scaler.candidate_target(10.0) == 8

    def test_no_bump_below_threshold(self):
        scaler = Autoscaler(self.slo_config(slo_violation_threshold=0.5),
                            initial_target=4)
        scaler.record_ttft(0.0, 100.0)
        for i in range(1, 10):
            scaler.record_ttft(float(i), 0.1)
        assert scaler.candidate_target(10.0) == 1  # qps candidate only

    def test_qps_mode_ignores_slo_samples(self):
        scaler = Autoscaler(config(ttft_slo=2.0), initial_target=4)
        for i in range(10):
            scaler.record_ttft(float(i), 100.0)
        assert scaler.candidate_target(10.0) == 1

    def test_samples_without_slo_configured_are_dropped(self):
        scaler = Autoscaler(config())
        scaler.record_ttft(0.0, 100.0)
        scaler.record_tpot(0.0, 100.0)
        assert scaler.slo_violation_rate(1.0) == 0.0

    def test_evaluate_moves_target_after_hold(self):
        scaler = Autoscaler(
            self.slo_config(upscale_delay=300.0), initial_target=2
        )
        for t in range(0, 700, 10):
            scaler.record_ttft(float(t), 100.0)
            scaler.evaluate(float(t))
        assert scaler.n_tar > 2


class TestInitialTarget:
    def test_initial_target_respected(self):
        assert Autoscaler(config(), initial_target=3).n_tar == 3

    def test_initial_target_clamped(self):
        assert Autoscaler(config(max_replicas=2), initial_target=5).n_tar == 2
