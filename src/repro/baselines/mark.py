"""MArk baseline (Zhang et al., ATC '19), modified for spot GPUs (§5.1).

MArk serves ML models on spot *CPU* instances with proactive
(predictive) autoscaling; the original also offloads to burstable
instances and AWS Lambda, neither of which exists for GPUs, so — like
the paper — we keep its predictive autoscaling and spot-first allocation
but restrict it to GPU instances in a single region.

Behaviours reproduced from the paper's observations:

* *Proactive autoscaling*: MArk extrapolates the request-rate trend and
  provisions for the predicted load ``prediction_horizon`` seconds ahead
  (workload prediction via linear fit over a sliding window).
* *CPU-era readiness assumption*: in-flight launches do not count
  toward the target, so under GPU unavailability MArk over-requests
  (Fig. 12) and under availability it may briefly overshoot.
* *Spot-only GPUs in one region*: periods with no obtainable spot
  capacity become full downtime (the 6.8–79% failure rates of §5.1).
"""

from __future__ import annotations

import math
from typing import AbstractSet, Mapping, Optional, Sequence

import numpy as np

from repro.core.placement import EvenSpreadPlacer
from repro.serving.policy import MixTarget, Observation, ServingPolicy

__all__ = ["MArkPolicy"]


class MArkPolicy(ServingPolicy):
    """Predictive spot-first autoscaling in a single region."""

    name = "MArk"
    respects_zone_cooldown = False
    # The sliding prediction window keys on obs.now — every call
    # advances history, so the replay must consult it each step.
    stationary_decisions = False

    def __init__(
        self,
        zones: Sequence[str],
        *,
        zone_costs: Optional[Mapping[str, float]] = None,
        prediction_horizon: float = 300.0,
        history_window: float = 1800.0,
    ) -> None:
        if prediction_horizon < 0 or history_window <= 0:
            raise ValueError("invalid prediction windows")
        regions = {z.rsplit(":", 1)[0] for z in zones}
        if len(regions) > 1:
            raise ValueError(
                f"MArk is a single-region system; got zones in {sorted(regions)}"
            )
        self.placer = EvenSpreadPlacer(zones, zone_costs)
        self.prediction_horizon = prediction_horizon
        self.history_window = history_window
        # (time, N_Tar) history: rows [_start, _end) of two preallocated
        # arrays, so each fit slices them instead of rebuilding arrays.
        self._times = np.empty(64)
        self._targets = np.empty(64)
        self._start = 0
        self._end = 0

    def _append_history(self, now: float, n_tar: int) -> None:
        if self._end == len(self._times):
            # Full: drop the expired prefix, doubling when over half is live.
            live = self._end - self._start
            size = len(self._times) * (2 if 2 * live > len(self._times) else 1)
            times, targets = np.empty(size), np.empty(size)
            times[:live] = self._times[self._start : self._end]
            targets[:live] = self._targets[self._start : self._end]
            self._times, self._targets = times, targets
            self._start, self._end = 0, live
        self._times[self._end] = now
        self._targets[self._end] = n_tar
        self._end += 1

    def _predicted_target(self, obs: Observation) -> int:
        """Extrapolate the N_Tar trend ``prediction_horizon`` ahead."""
        self._append_history(obs.now, obs.n_tar)
        cutoff = obs.now - self.history_window
        while self._start < self._end and self._times[self._start] < cutoff:
            self._start += 1
        if self._end - self._start < 2:
            return obs.n_tar
        times = self._times[self._start : self._end]
        targets = self._targets[self._start : self._end]
        if float(times[-1] - times[0]) <= 0:
            return obs.n_tar
        slope, intercept = np.polyfit(times, targets, 1)
        predicted = slope * (obs.now + self.prediction_horizon) + intercept
        return max(obs.n_tar, int(math.ceil(predicted)))

    def target_mix(self, obs: Observation) -> MixTarget:
        target = self._predicted_target(obs)
        self.placer.set_target(target)
        return MixTarget(
            spot_target=target,
            od_target=0,
            count_provisioning_spot=False,
        )

    def select_spot_zone(
        self, obs: Observation, excluded: AbstractSet[str] = frozenset()
    ) -> Optional[str]:
        return self.placer.select_zone(obs.spot_by_zone, excluded)
