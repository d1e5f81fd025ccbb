"""Unit tests for the baseline system policies (§5.1)."""

import pytest

from repro.baselines import (
    ASGPolicy,
    AWSSpotPolicy,
    MArkPolicy,
    SingleZonePolicy,
    spotserve_spec,
)
from repro.serving.policy import Observation

ZONES = [
    "aws:us-west-2:us-west-2a",
    "aws:us-west-2:us-west-2b",
    "aws:us-west-2:us-west-2c",
]
MULTI_REGION = ["aws:us-west-2:us-west-2a", "aws:us-east-1:us-east-1a"]


def obs(now=0.0, n_tar=4, spot_ready=0, by_zone=None):
    return Observation(
        now=now,
        n_tar=n_tar,
        spot_launched=0,
        spot_ready=spot_ready,
        od_launched=0,
        od_ready=0,
        spot_by_zone=by_zone or {},
    )


class TestASG:
    def test_static_10pct_mixture_with_min_one(self):
        """ASG keeps 10% on-demand (>= 1) regardless of spot health."""
        policy = ASGPolicy(ZONES)
        mix = policy.target_mix(obs(n_tar=4))
        assert mix.od_target == 1
        assert mix.spot_target == 3

    def test_large_fleet_scales_od_fraction(self):
        policy = ASGPolicy(ZONES)
        mix = policy.target_mix(obs(n_tar=30))
        assert mix.od_target == 3
        assert mix.spot_target == 27

    def test_mixture_static_under_preemption(self):
        """§2.4: the pool sizes never react to spot volatility."""
        policy = ASGPolicy(ZONES)
        before = policy.target_mix(obs(n_tar=4, spot_ready=3))
        for _ in range(10):
            policy.on_spot_preempted(ZONES[0])
        after = policy.target_mix(obs(n_tar=4, spot_ready=0))
        assert (before.spot_target, before.od_target) == (
            after.spot_target,
            after.od_target,
        )

    def test_counts_provisioning(self):
        assert ASGPolicy(ZONES).target_mix(obs()).count_provisioning_spot is True

    def test_single_region_enforced(self):
        with pytest.raises(ValueError):
            ASGPolicy(MULTI_REGION)

    def test_od_fraction_validation(self):
        with pytest.raises(ValueError):
            ASGPolicy(ZONES, od_fraction=1.5)

    def test_od_never_exceeds_total(self):
        policy = ASGPolicy(ZONES, od_fraction=0.1, min_od_replicas=5)
        mix = policy.target_mix(obs(n_tar=2))
        assert mix.od_target == 2
        assert mix.spot_target == 0


class TestAWSSpot:
    def test_pure_spot(self):
        mix = AWSSpotPolicy(ZONES).target_mix(obs(n_tar=4))
        assert mix.od_target == 0
        assert mix.spot_target == 4

    def test_does_not_count_provisioning(self):
        """The Fig. 12 over-request mechanism."""
        mix = AWSSpotPolicy(ZONES).target_mix(obs())
        assert mix.count_provisioning_spot is False

    def test_single_region_enforced(self):
        with pytest.raises(ValueError):
            AWSSpotPolicy(MULTI_REGION)

    def test_even_spread_placement(self):
        policy = AWSSpotPolicy(ZONES)
        policy.target_mix(obs(n_tar=3))
        placements = {}
        for _ in range(3):
            zone = policy.select_spot_zone(obs(n_tar=3, by_zone=placements))
            placements[zone] = placements.get(zone, 0) + 1
        assert placements == {z: 1 for z in ZONES}

    def test_relaunches_into_preempting_zones(self):
        """§5.1: the static spread has no preemption memory."""
        policy = AWSSpotPolicy(ZONES)
        policy.target_mix(obs(n_tar=3))
        policy.on_spot_preempted(ZONES[0])
        assert policy.select_spot_zone(obs(n_tar=3)) == ZONES[0]


class TestMArk:
    def test_spot_only_without_fallback(self):
        mix = MArkPolicy(ZONES).target_mix(obs(n_tar=4))
        assert mix.od_target == 0

    def test_over_requests_like_cpu_system(self):
        assert MArkPolicy(ZONES).target_mix(obs()).count_provisioning_spot is False

    def test_predicts_rising_trend(self):
        """Proactive autoscaling: a rising N_Tar trend is extrapolated."""
        policy = MArkPolicy(ZONES, prediction_horizon=600.0)
        for step, n in enumerate([1, 2, 3, 4]):
            mix = policy.target_mix(obs(now=step * 300.0, n_tar=n))
        assert mix.spot_target > 4

    def test_flat_load_not_inflated(self):
        policy = MArkPolicy(ZONES)
        for step in range(5):
            mix = policy.target_mix(obs(now=step * 300.0, n_tar=4))
        assert mix.spot_target == 4

    def test_never_below_reactive_target(self):
        """Falling trend must not starve the current load."""
        policy = MArkPolicy(ZONES, prediction_horizon=600.0)
        for step, n in enumerate([8, 6, 4, 2]):
            mix = policy.target_mix(obs(now=step * 300.0, n_tar=n))
        assert mix.spot_target >= 2

    def test_single_region_enforced(self):
        with pytest.raises(ValueError):
            MArkPolicy(MULTI_REGION)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            MArkPolicy(ZONES, history_window=0.0)

    def test_array_history_matches_deque_reference(self):
        """The preallocated-array history fits the same floats as the
        deque-of-tuples version it replaced, so predictions are equal."""
        import math
        from collections import deque

        import numpy as np

        def reference(history, now, n_tar, horizon=300.0, window=1800.0):
            history.append((now, n_tar))
            while history and history[0][0] < now - window:
                history.popleft()
            if len(history) < 2:
                return n_tar
            times = np.asarray([t for t, _ in history])
            targets = np.asarray([n for _, n in history], dtype=float)
            if float(times[-1] - times[0]) <= 0:
                return n_tar
            slope, intercept = np.polyfit(times, targets, 1)
            return max(n_tar, int(math.ceil(slope * (now + horizon) + intercept)))

        rng = np.random.default_rng(5)
        policy = MArkPolicy(ZONES)
        history: deque = deque()
        now = 0.0
        for _ in range(500):
            # Ticks 0-30 s apart (repeats included), N_Tar a random walk.
            now += float(rng.choice([0.0, 10.0, float(rng.uniform(0, 30))]))
            n_tar = int(rng.integers(1, 12))
            assert policy._predicted_target(obs(now=now, n_tar=n_tar)) == reference(
                history, now, n_tar
            )


class TestSpotServe:
    def test_single_zone_pinned(self):
        policy = SingleZonePolicy(ZONES[0])
        assert policy.select_spot_zone(obs()) == ZONES[0]
        assert policy.select_spot_zone(obs(), frozenset([ZONES[0]])) is None

    def test_no_fallback(self):
        mix = SingleZonePolicy(ZONES[0]).target_mix(obs(n_tar=4))
        assert mix.od_target == 0
        assert mix.spot_target == 4

    def test_spec_matches_paper_setup(self):
        """OPT-6.7B on T4s with a 20 s timeout (§5.1)."""
        spec = spotserve_spec(fixed_target=4)
        assert spec.request_timeout == 20.0
        assert spec.resources.accelerator == "T4"
        assert spec.replica_policy.fixed_target == 4
