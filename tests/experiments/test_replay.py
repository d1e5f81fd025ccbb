"""Unit tests for the §5.2 trace-replay harness."""

import math

import numpy as np
import pytest

from repro.cloud import HOUR, SpotTrace
from repro.core import OnDemandOnlyPolicy, even_spread_policy, round_robin_policy, spothedge
from repro.experiments import ReplayConfig, ReplayResult, TraceReplayer, erlang_c_wait, estimate_latency
from repro.workloads import poisson_workload

Z1, Z2, Z3 = "aws:r1:r1a", "aws:r1:r1b", "aws:r2:r2a"


def trace_with(rows, step=60.0, name="replay-test"):
    return SpotTrace(name, [Z1, Z2, Z3], step, np.asarray(rows))


def full(steps=100, cap=4):
    return [[cap] * steps] * 3


class TestReplayer:
    def test_spothedge_all_spot_when_available(self):
        replayer = TraceReplayer(trace_with(full()), ReplayConfig(n_tar=2, cold_start=60.0))
        result = replayer.run(spothedge([Z1, Z2, Z3], num_overprovision=1))
        assert result.availability > 0.9
        # Once spot is up, no on-demand cost accrues beyond the warmup.
        assert result.od_cost < 0.2 * result.spot_cost

    def test_ondemand_only_reference_cost_is_one(self):
        replayer = TraceReplayer(trace_with(full()), ReplayConfig(n_tar=2, cold_start=0.0))
        result = replayer.run(OnDemandOnlyPolicy([Z1]))
        assert result.relative_cost == pytest.approx(1.0)
        assert result.availability == 1.0

    def test_blackout_forces_fallback(self):
        rows = [[4] * 50 + [0] * 50] * 3
        replayer = TraceReplayer(trace_with(rows), ReplayConfig(n_tar=2, cold_start=60.0))
        result = replayer.run(spothedge([Z1, Z2, Z3]))
        # Available through the blackout thanks to Dynamic Fallback.
        assert result.availability > 0.9
        assert result.od_cost > 0

    def test_pure_spot_policy_dies_in_blackout(self):
        rows = [[4] * 50 + [0] * 50] * 3
        replayer = TraceReplayer(trace_with(rows), ReplayConfig(n_tar=2, cold_start=60.0))
        result = replayer.run(round_robin_policy([Z1, Z2, Z3]))
        assert result.availability < 0.6

    def test_preemptions_counted(self):
        rows = [[4] * 50 + [0] * 50] * 3
        replayer = TraceReplayer(trace_with(rows), ReplayConfig(n_tar=2))
        result = replayer.run(even_spread_policy([Z1, Z2, Z3]))
        assert result.preemptions >= 2

    def test_cold_start_delays_readiness(self):
        replayer = TraceReplayer(
            trace_with(full()), ReplayConfig(n_tar=2, cold_start=300.0)
        )
        result = replayer.run(spothedge([Z1, Z2, Z3]))
        # The first 5 steps (300 s) cannot have ready replicas.
        assert result.ready_series[:5].max() == 0

    def test_deterministic(self):
        rows = [[2] * 30 + [1] * 70] * 3
        results = []
        for _ in range(2):
            replayer = TraceReplayer(trace_with(rows), ReplayConfig(n_tar=2), seed=5)
            results.append(replayer.run(spothedge([Z1, Z2, Z3])))
        np.testing.assert_array_equal(results[0].ready_series, results[1].ready_series)
        assert results[0].relative_cost == results[1].relative_cost

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ReplayConfig(n_tar=0)
        with pytest.raises(ValueError):
            ReplayConfig(k=0.0)
        with pytest.raises(ValueError):
            ReplayConfig(cold_start=-1.0)


class TestErlangC:
    def test_no_load_no_wait(self):
        assert erlang_c_wait(0.0, 8.0, 4) == 0.0

    def test_no_servers_infinite(self):
        assert math.isinf(erlang_c_wait(1.0, 8.0, 0))

    def test_unstable_infinite(self):
        assert math.isinf(erlang_c_wait(2.0, 8.0, 4))  # rho = 4

    def test_wait_grows_with_load(self):
        light = erlang_c_wait(0.1, 8.0, 4)
        heavy = erlang_c_wait(0.45, 8.0, 4)
        assert heavy > light

    def test_more_servers_less_wait(self):
        few = erlang_c_wait(0.4, 8.0, 4)
        many = erlang_c_wait(0.4, 8.0, 16)
        assert many < few

    def test_single_server_matches_mm1(self):
        # M/M/1: W_q = rho / (mu - lambda).
        lam, service = 0.05, 10.0
        rho = lam * service
        expected = rho / (1 / service - lam)
        assert erlang_c_wait(lam, service, 1) == pytest.approx(expected, rel=1e-6)


class TestLatencyEstimate:
    def make_result(self, ready, step=60.0):
        return ReplayResult(
            policy="p",
            trace="t",
            n_tar=2,
            availability=1.0,
            relative_cost=0.5,
            spot_cost=1.0,
            od_cost=0.0,
            preemptions=0,
            launch_failures=0,
            ready_series=np.asarray(ready),
            step=step,
        )

    def test_healthy_service_latency_near_service_time(self):
        result = self.make_result([4] * 60)
        workload = poisson_workload(HOUR, rate=0.1, seed=1)
        latencies = estimate_latency(result, workload, service_time=8.0, timeout=100.0)
        assert np.median(latencies) == pytest.approx(8.0, rel=0.2)

    def test_downtime_hits_timeout(self):
        result = self.make_result([0] * 60)
        workload = poisson_workload(HOUR, rate=0.1, seed=2)
        latencies = estimate_latency(result, workload, service_time=8.0, timeout=100.0)
        assert (latencies == 100.0).all()

    def test_short_outage_adds_wait(self):
        ready = [4] * 20 + [0] * 2 + [4] * 38
        result = self.make_result(ready)
        workload = poisson_workload(HOUR, rate=0.2, seed=3)
        latencies = estimate_latency(result, workload, service_time=8.0, timeout=300.0)
        assert latencies.max() > 60.0  # someone waited out the outage
        assert np.median(latencies) < 20.0

    def test_fewer_replicas_higher_latency(self):
        workload = poisson_workload(HOUR, rate=1.0, seed=4)
        lat_many = estimate_latency(
            self.make_result([8] * 60), workload, service_time=8.0
        )
        lat_few = estimate_latency(
            self.make_result([2] * 60), workload, service_time=8.0
        )
        assert lat_few.mean() >= lat_many.mean()

    def test_validation(self):
        result = self.make_result([1])
        workload = poisson_workload(100.0, rate=0.1, seed=5)
        with pytest.raises(ValueError):
            estimate_latency(result, workload, service_time=0.0)


class TestCapacityWeights:
    """Effective-capacity tracking for heterogeneous (zone × type) pools."""

    def test_eff_fields_none_without_weights(self):
        replayer = TraceReplayer(trace_with(full()), ReplayConfig(n_tar=2))
        result = replayer.run(spothedge([Z1, Z2, Z3]))
        assert result.eff_ready_series is None
        assert result.eff_availability is None

    def test_eff_series_scales_spot_by_zone_weight(self):
        # Pure-spot policy, zero cold start, every zone weighted 2.0:
        # effective capacity is exactly twice the ready count.
        config = ReplayConfig(
            n_tar=2,
            cold_start=0.0,
            zone_capacity_weights={Z1: 2.0, Z2: 2.0, Z3: 2.0},
        )
        replayer = TraceReplayer(trace_with(full()), config)
        result = replayer.run(even_spread_policy([Z1, Z2, Z3]))
        assert result.eff_ready_series is not None
        assert np.array_equal(
            result.eff_ready_series, 2.0 * result.ready_series.astype(float)
        )
        assert result.eff_availability == 1.0

    def test_non_positive_weight_rejected(self):
        with pytest.raises(ValueError):
            ReplayConfig(n_tar=2, zone_capacity_weights={Z1: 0.0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(ValueError, match=f"capacity weight for {Z1}"):
            ReplayConfig(n_tar=2, zone_capacity_weights={Z1: bad, Z2: 1.0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_price_multiplier_rejected(self, bad):
        with pytest.raises(ValueError, match=f"price multiplier for {Z2}"):
            ReplayConfig(n_tar=2, zone_price_multipliers={Z1: 1.0, Z2: bad})

    def test_nan_and_inf_together_rejected(self):
        # The combination that used to construct silently.
        with pytest.raises(ValueError, match="price multiplier for a"):
            ReplayConfig(
                zone_price_multipliers={"a": math.nan},
                zone_capacity_weights={"a": math.inf},
            )


class TestNonFiniteInputs:
    """Cold starts, cost ratios and chaos factors must be finite: a
    non-finite cold start has no readiness step and a NaN cost ratio
    turns every cost into NaN."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_cold_start_rejected(self, bad):
        with pytest.raises(ValueError, match="cold_start"):
            ReplayConfig(cold_start=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_cost_ratio_rejected(self, bad):
        with pytest.raises(ValueError, match="cost ratio k"):
            ReplayConfig(k=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_cold_start_factor_rejected(self, bad):
        factors = [1.0] * 100
        factors[5] = bad
        with pytest.raises(ValueError, match="cold-start factor at step 5"):
            TraceReplayer(trace_with(full()), cold_start_factors=factors)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
    def test_price_factor_rejected(self, bad):
        factors = [1.0] * 100
        factors[3] = bad
        with pytest.raises(ValueError, match=f"zone '{Z2}': price factor at step 3"):
            TraceReplayer(trace_with(full()), zone_price_factors={Z1: [1.0] * 100, Z2: factors})

    @pytest.mark.parametrize("engine", ["discrete", "hybrid"])
    def test_finite_factors_accepted(self, engine):
        # Zero cold-start factors (instant readiness) stay valid.
        replayer = TraceReplayer(
            trace_with(full()),
            ReplayConfig(n_tar=2),
            cold_start_factors=[0.0] * 50 + [2.5] * 50,
            zone_price_factors={Z1: [0.5] * 100},
            engine=engine,
        )
        assert replayer.run(spothedge([Z1, Z2, Z3])).availability > 0.9
