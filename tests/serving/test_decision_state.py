"""The ``ServingPolicy.decision_state`` contract.

The hybrid replay engine skips capacity-shortage steps once a policy's
decision state repeats, so equal states must imply equal futures: two
instances that reach the same ``decision_state()`` through different
histories must make the same decisions from then on.
"""

import copy
from collections import defaultdict

import numpy as np
import pytest

from repro.baselines import ASGPolicy, AWSSpotPolicy, MArkPolicy, SingleZonePolicy
from repro.core import (
    OnDemandOnlyPolicy,
    even_spread_policy,
    round_robin_policy,
    spothedge,
)
from repro.core.placement import DynamicSpotPlacer, RoundRobinPlacer
from repro.serving.policy import Observation

ZONES = ["aws:r1:a", "aws:r1:b", "aws:r1:c"]

STATIONARY_FACTORIES = {
    "ASG": ASGPolicy,
    "AWSSpot": AWSSpotPolicy,
    "EvenSpread": even_spread_policy,
    "OnDemand": OnDemandOnlyPolicy,
    "RoundRobin": round_robin_policy,
    "SingleZone": lambda zones: SingleZonePolicy(zones[0]),
    "SpotHedge": spothedge,
}


def random_observation(rng):
    counts = rng.integers(0, 4, size=len(ZONES))
    launched = int(counts.sum())
    return Observation(
        now=float(rng.integers(0, 10_000)),
        n_tar=int(rng.integers(1, 7)),
        spot_launched=launched,
        spot_ready=int(rng.integers(0, launched + 1)),
        od_launched=int(rng.integers(0, 3)),
        od_ready=0,
        spot_by_zone={z: int(c) for z, c in zip(ZONES, counts) if c},
    )


def drive(policy, rng, steps):
    """Feed ``policy`` ``steps`` random decision rounds; return what it
    decided and which lifecycle hooks it was fed."""
    decisions = []
    for _ in range(steps):
        obs = random_observation(rng)
        excluded = frozenset(z for z in ZONES if rng.random() < 0.3)
        decisions.append(
            (
                policy.target_mix(obs),
                policy.select_spot_zone(obs, excluded),
                policy.select_od_zone(obs, excluded),
            )
        )
        hook = ("on_spot_ready", "on_spot_preempted", "on_spot_launch_failed")[
            int(rng.integers(0, 3))
        ]
        zone = ZONES[int(rng.integers(0, len(ZONES)))]
        getattr(policy, hook)(zone)
        decisions.append((hook, zone))
    return decisions


@pytest.mark.parametrize("name", sorted(STATIONARY_FACTORIES))
def test_equal_states_make_equal_decisions(name):
    factory = STATIONARY_FACTORIES[name]
    assert factory(ZONES).stationary_decisions
    by_state = defaultdict(list)
    for seed in range(200):
        policy = factory(ZONES)
        rng = np.random.default_rng(seed)
        history = drive(policy, rng, int(rng.integers(0, 30)))
        by_state[policy.decision_state()].append((history, policy))
    pairs = [
        (group[0][1], policy)
        for group in by_state.values()
        for history, policy in group[1:]
        if history != group[0][0]
    ]
    assert pairs, "no two different histories reached one state"
    for first, second in pairs:
        # Clones, so a group's first member stays at the shared state
        # for the next comparison.
        first, second = copy.deepcopy(first), copy.deepcopy(second)
        script = np.random.default_rng(12345)
        first_future = drive(first, script, 50)
        script = np.random.default_rng(12345)
        second_future = drive(second, script, 50)
        assert first_future == second_future
        assert first.decision_state() == second.decision_state()


def test_round_robin_state_stays_bounded():
    placer = RoundRobinPlacer(ZONES)
    seen = set()
    for i in range(10):
        assert placer.select_zone({}, frozenset({ZONES[i % 3]})) is not None
        seen.add(placer.decision_state())
    assert seen <= set(range(len(ZONES)))


def test_dynamic_placer_state_is_both_zone_lists():
    placer = DynamicSpotPlacer(ZONES)
    placer.handle_preemption(ZONES[0])
    assert placer.decision_state() == ((ZONES[1], ZONES[2]), (ZONES[0],))


def test_default_state_is_unknown():
    # MArk keeps a time-indexed history it does not expose.
    assert MArkPolicy(ZONES).decision_state() is None
