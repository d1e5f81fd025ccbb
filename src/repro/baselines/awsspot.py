"""AWS spot node pool (AWSSpot) baseline (§5.1).

A pure-spot node pool with autoscaling, allocated over the zones of a
single region with a static even spread.  Two failure modes the paper
documents are reproduced by construction:

* it relaunches into highly-preempting zones (no preemption memory),
  causing the provision-then-preempt cycles of §5.1; and
* it assumes CPU-like fast readiness and does not count in-flight
  launches toward its target, so under unavailability it keeps
  requesting — the over-request behaviour of Fig. 12 (up to 14 replicas
  in provisioning state for a target of ~4).
"""

from __future__ import annotations

from typing import AbstractSet, Hashable, Mapping, Optional, Sequence

from repro.core.placement import EvenSpreadPlacer
from repro.serving.policy import MixTarget, Observation, ServingPolicy

__all__ = ["AWSSpotPolicy"]


class AWSSpotPolicy(ServingPolicy):
    """Single-region pure-spot pool with static even spread."""

    name = "AWSSpot"
    respects_zone_cooldown = False
    # Static pure-spot target — no time-dependent state.
    stationary_decisions = True

    def __init__(
        self,
        zones: Sequence[str],
        *,
        zone_costs: Optional[Mapping[str, float]] = None,
    ) -> None:
        regions = {z.rsplit(":", 1)[0] for z in zones}
        if len(regions) > 1:
            raise ValueError(
                f"AWSSpot is a single-region system; got zones in {sorted(regions)}"
            )
        self.placer = EvenSpreadPlacer(zones, zone_costs)

    def target_mix(self, obs: Observation) -> MixTarget:
        self.placer.set_target(obs.n_tar)
        return MixTarget(
            spot_target=obs.n_tar,
            od_target=0,
            count_provisioning_spot=False,
        )

    def decision_state(self) -> Optional[Hashable]:
        return self.placer.decision_state()

    def select_spot_zone(
        self, obs: Observation, excluded: AbstractSet[str] = frozenset()
    ) -> Optional[str]:
        return self.placer.select_zone(obs.spot_by_zone, excluded)
