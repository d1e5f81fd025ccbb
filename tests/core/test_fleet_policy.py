"""Tests for the capacity-weighted fleet policy (zone × type pools)."""

import numpy as np
import pytest

from repro.cloud import SpotTrace
from repro.core import DynamicSpotPlacer, FleetMixturePolicy, hetero_spothedge, spothedge
from repro.core.spothedge import MixturePolicy
from repro.experiments import ReplayConfig, TraceReplayer
from repro.serving.policy import Observation

POOLS = ["z1@small", "z2@big"]
COSTS = {"z1@small": 4.9, "z2@big": 1.2}  # per effective unit: big wins
WEIGHTS = {"z1@small": 1.0, "z2@big": 2.5}


def obs(*, n_tar=4, launched=0, ready=0, od_launched=0, od_ready=0, by_zone=None, now=0.0):
    return Observation(
        now=now,
        n_tar=n_tar,
        spot_launched=launched,
        spot_ready=ready,
        od_launched=od_launched,
        od_ready=od_ready,
        spot_by_zone=by_zone or {},
    )


def fleet_policy(**kwargs):
    kwargs.setdefault("pool_weights", WEIGHTS)
    kwargs.setdefault("dynamic_ondemand_fallback", True)
    return FleetMixturePolicy(DynamicSpotPlacer(POOLS, COSTS), **kwargs)


class TestUniformDelegation:
    """All-1.0 weights must reproduce the parent's integer arithmetic."""

    def test_matches_mixture_policy_decisions(self):
        weighted = FleetMixturePolicy(
            DynamicSpotPlacer(POOLS, COSTS),
            pool_weights={},  # every pool defaults to weight 1.0
            num_overprovision=2,
            dynamic_ondemand_fallback=True,
        )
        plain = MixturePolicy(
            DynamicSpotPlacer(POOLS, COSTS),
            num_overprovision=2,
            dynamic_ondemand_fallback=True,
        )
        for o in (
            obs(),
            obs(launched=3, ready=1, by_zone={"z2@big": 2, "z1@small": 1}),
            obs(launched=6, ready=6, by_zone={"z2@big": 3, "z1@small": 3}),
        ):
            assert weighted.target_mix(o) == plain.target_mix(o)

    def test_uniform_flag_only_for_all_ones(self):
        assert fleet_policy(pool_weights={})._uniform
        assert not fleet_policy()._uniform


class TestWeightedGrowth:
    def test_grows_until_capacity_goal_covered(self):
        policy = fleet_policy()
        # Goal 4 units from empty: plan walks the placer's MIN-COST
        # order — big pool (2.5), then the unused small pool (3.5),
        # then big again (6.0 >= 4): three launches.
        mix = policy.target_mix(obs(n_tar=4))
        assert mix.spot_target == 3

    def test_no_growth_when_capacity_covers_goal(self):
        policy = fleet_policy(num_overprovision=0)
        o = obs(n_tar=4, launched=2, ready=1, by_zone={"z2@big": 2})
        # 5.0 units launched >= 4: no new spot while settling.
        assert policy.target_mix(o).spot_target == 2


class TestConservativeScaleDown:
    def test_releases_only_when_any_victim_keeps_goal(self):
        policy = fleet_policy(num_overprovision=0)
        o = obs(n_tar=4, launched=4, ready=4, by_zone={"z2@big": 4})
        # 10 units for a 4-unit goal: the replay kills *its* choice of
        # victim, so release while surplus covers the heaviest (2.5):
        # 10 -> 7.5 -> 5.0, then surplus 1.0 < 2.5 stops.
        assert policy.target_mix(o).spot_target == 2

    def test_never_releases_inflight_capacity(self):
        policy = fleet_policy(num_overprovision=0)
        o = obs(n_tar=4, launched=4, ready=3, by_zone={"z2@big": 4})
        # Same surplus, but one launch still cold: releasing now would
        # kill the newest (cold) instance, so hold the target.
        assert policy.target_mix(o).spot_target == 4


class TestWeightedFallback:
    def test_cold_replicas_charged_at_heaviest_weight(self):
        policy = fleet_policy(num_overprovision=0)
        o = obs(
            n_tar=4,
            launched=2,
            ready=1,
            by_zone={"z1@small": 1, "z2@big": 1},
        )
        # Capacity 3.5 launched, one cold: assume the big one (2.5) is
        # the cold one, so ready >= 1.0 and fallback = ceil(4 - 1) = 3.
        assert policy.target_mix(o).od_target == 3

    def test_settled_fleet_fallback_is_exact(self):
        policy = fleet_policy(num_overprovision=0)
        o = obs(n_tar=4, launched=2, ready=2, by_zone={"z2@big": 2})
        # 5.0 units ready >= goal 4: no on-demand needed.
        assert policy.target_mix(o).od_target == 0


class TestValidation:
    def test_non_positive_weight_rejected(self):
        with pytest.raises(ValueError):
            fleet_policy(pool_weights={"z1@small": 0.0})

    def test_pool_weight_defaults_to_one(self):
        assert fleet_policy().pool_weight("unknown") == 1.0


class TestFactory:
    def test_hetero_spothedge_wiring(self):
        policy = hetero_spothedge(
            POOLS, pool_costs=COSTS, pool_weights=WEIGHTS, name="fleet-test"
        )
        assert isinstance(policy, FleetMixturePolicy)
        assert isinstance(policy.placer, DynamicSpotPlacer)
        assert policy.dynamic_ondemand_fallback
        assert policy.name == "fleet-test"
        assert policy.num_overprovision == 2

    def test_not_stationary(self):
        # The weighted planning loop probes select_zone, which the
        # placer protocol allows to be stateful — the fastpath must not
        # fast-forward this policy.
        assert FleetMixturePolicy.stationary_decisions is False


class TestPreferredPoolBlackout:
    """§6: when the preferred GPU's spot market dries up, the weighted
    fleet covers the goal from a slower GPU instead of on-demand."""

    A100 = ["gcp:us-central1:us-central1-a", "gcp:us-east1:us-east1-b"]
    V100 = ["aws:us-west-2:us-west-2a", "aws:us-west-2:us-west-2b"]

    def blackout_trace(self):
        # Twelve hours at 4 slots per zone; the A100 zones read 0 from
        # hour 3 to hour 8 while the V100 zones stay up.
        caps = np.full((4, 12 * 60), 4)
        caps[:2, 180:480] = 0
        return SpotTrace("hetero-blackout", self.A100 + self.V100, 60.0, caps)

    def test_weighted_fleet_beats_preferred_only(self):
        trace = self.blackout_trace()
        weights = {**dict.fromkeys(self.A100, 1.0), **dict.fromkeys(self.V100, 0.5)}
        costs = {**dict.fromkeys(self.A100, 1.0), **dict.fromkeys(self.V100, 1.2)}
        config = ReplayConfig(n_tar=4, k=3.0, zone_capacity_weights=weights)
        preferred = TraceReplayer(trace, config, engine="discrete").run(
            spothedge(self.A100, num_overprovision=1), spot_zones=trace.zone_ids
        )
        fleet = TraceReplayer(trace, config, engine="discrete").run(
            hetero_spothedge(
                trace.zone_ids, pool_costs=costs, pool_weights=weights,
                num_overprovision=1,
            )
        )
        assert fleet.eff_availability >= preferred.eff_availability
        assert fleet.od_cost < preferred.od_cost
