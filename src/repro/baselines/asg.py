"""AWS Auto-scaling Group (ASG) baseline (§2.4, §5.1).

ASG maintains *static node pools*: a fixed percentage of on-demand
replicas (the paper follows AWS's official example and uses 10%, with a
minimum of one) and the rest spot, evenly spread across the zones of a
*single region*.  The mixture never adapts: when spot capacity vanishes
the on-demand pool is not grown (→ overload, the 36% failure rate of
§5.1), and when spot is plentiful the on-demand replica is kept anyway
(→ the 1.56× cost premium of §2.4).
"""

from __future__ import annotations

import math
from typing import AbstractSet, Hashable, Mapping, Optional, Sequence

from repro.core.placement import EvenSpreadPlacer
from repro.serving.policy import MixTarget, Observation, ServingPolicy

__all__ = ["ASGPolicy"]


class ASGPolicy(ServingPolicy):
    """Static spot/on-demand mixture with even spread in one region."""

    name = "ASG"
    # Static mixture — decisions depend only on fleet counts.
    stationary_decisions = True

    def __init__(
        self,
        zones: Sequence[str],
        *,
        od_fraction: float = 0.10,
        min_od_replicas: int = 1,
        zone_costs: Optional[Mapping[str, float]] = None,
    ) -> None:
        if not 0.0 <= od_fraction <= 1.0:
            raise ValueError(f"od_fraction {od_fraction} outside [0, 1]")
        if min_od_replicas < 0:
            raise ValueError("negative min_od_replicas")
        regions = {z.rsplit(":", 1)[0] for z in zones}
        if len(regions) > 1:
            raise ValueError(
                f"ASG is a single-region system; got zones in {sorted(regions)}"
            )
        self.placer = EvenSpreadPlacer(zones, zone_costs)
        self.od_fraction = od_fraction
        self.min_od_replicas = min_od_replicas

    def target_mix(self, obs: Observation) -> MixTarget:
        total = obs.n_tar
        od = max(int(math.floor(self.od_fraction * total)), self.min_od_replicas)
        od = min(od, total)
        self.placer.set_target(total - od)
        return MixTarget(spot_target=total - od, od_target=od)

    def decision_state(self) -> Optional[Hashable]:
        return self.placer.decision_state()

    def select_spot_zone(
        self, obs: Observation, excluded: AbstractSet[str] = frozenset()
    ) -> Optional[str]:
        return self.placer.select_zone(obs.spot_by_zone, excluded)

    def select_od_zone(
        self, obs: Observation, excluded: AbstractSet[str] = frozenset()
    ) -> Optional[str]:
        # On-demand nodes share the same single-region node group.
        for zone in self.placer.zones:
            if zone not in excluded:
                return zone
        return None
