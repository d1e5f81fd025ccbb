"""Load-based autoscaler (§4, "Autoscaler").

The autoscaler tracks the average request rate R_t over a sliding window
(default one minute) and proposes a candidate target
``N_Can = ceil(R_t / Q_Tar)``.  The live target ``N_Tar`` only moves when
the candidate has been consistently above (for ``upscale_delay``) or
below (for ``downscale_delay``) the current target, which filters the
bursty noise of workloads like Arena.  ``fixed_target`` pins ``N_Tar``
for experiments that hold the desired replica count constant (§5.2).

A second mode (``autoscale_mode="slo"`` on the policy config) folds
latency SLO attainment into the candidate: the client reports each
request's time-to-first-token and time-per-output-token, the autoscaler
tracks the fraction of recent samples violating their SLO, and when that
fraction exceeds ``slo_violation_threshold`` the candidate is bumped
above the QPS-derived one.  QPS alone cannot see batch-level contention
— a fleet can be keeping up on throughput while every request decodes
at 2x slowness because batches are saturated — so the SLO signal is what
lets the autoscaler react to the continuous-batching overload regime.
"""

from __future__ import annotations

import heapq
import logging
import math
from collections import deque
from typing import Callable, Iterable, Optional

from repro.serving.spec import ReplicaPolicyConfig

__all__ = ["Autoscaler"]

logger = logging.getLogger(__name__)


class Autoscaler:
    """QPS-window autoscaler computing the paper's N_Tar(t)."""

    def __init__(
        self,
        config: ReplicaPolicyConfig,
        *,
        initial_target: int = 1,
        before_read: Optional[Callable[[], None]] = None,
    ) -> None:
        self.config = config
        #: Called before every read of the arrival window, so arrivals
        #: recorded lazily (a controller's parked retries) are counted.
        self._before_read = before_read
        if config.fixed_target is not None:
            initial_target = config.fixed_target
        self._n_tar = self._clamp(initial_target)
        #: Arrival times in the trailing window, as a min-heap: lazily
        #: counted retries arrive out of time order.
        self._arrivals: list[float] = []
        self._above_since: Optional[float] = None
        self._below_since: Optional[float] = None
        #: (time, violated) samples for TTFT / TPOT, pruned to slo_window.
        self._slo_samples: deque[tuple[float, bool]] = deque()

    def _clamp(self, target: int) -> int:
        return max(self.config.min_replicas, min(target, self.config.max_replicas))

    @property
    def n_tar(self) -> int:
        """The current target number of ready replicas, N_Tar(t)."""
        return self._n_tar

    def _prune(self, now: float) -> float:
        """Drop arrivals before the window ending at ``now``; returns
        the window's start."""
        cutoff = now - self.config.qps_window
        arrivals = self._arrivals
        while arrivals and arrivals[0] < cutoff:
            heapq.heappop(arrivals)
        return cutoff

    def record_request(self, time: float) -> None:
        """Note one request arrival (fed by the load balancer)."""
        self.record_requests((time,), now=time)

    def record_requests(self, times: Iterable[float], *, now: float) -> None:
        """Note arrivals at or before ``now`` (the current simulated
        time), in any order.  Arrivals older than one window before
        ``now`` are dropped here, since no later read can count them, so
        the window never outgrows itself."""
        cutoff = self._prune(now)
        arrivals = self._arrivals
        for time in times:
            if time >= cutoff:
                heapq.heappush(arrivals, time)

    def request_rate(self, now: float) -> float:
        """Average request rate over the trailing window.

        During warm-up (``now < qps_window``) the divisor is the elapsed
        time, not the full window — dividing by the window there
        underestimates R_t and delays the first upscale by however much
        of the window has not happened yet.
        """
        if self._before_read is not None:
            self._before_read()
        self._prune(now)
        window = min(now, self.config.qps_window)
        if window <= 0.0:
            return 0.0
        return len(self._arrivals) / window

    # -- SLO signal -----------------------------------------------------
    def record_ttft(self, time: float, value: float) -> None:
        """One client-observed time-to-first-token sample."""
        slo = self.config.ttft_slo
        if slo is not None:
            self._slo_samples.append((time, value > slo))

    def record_tpot(self, time: float, value: float) -> None:
        """One client-observed time-per-output-token sample."""
        slo = self.config.tpot_slo
        if slo is not None:
            self._slo_samples.append((time, value > slo))

    def slo_violation_rate(self, now: float) -> float:
        """Fraction of SLO samples in the trailing ``slo_window`` that
        violated their objective (0.0 with no samples)."""
        cutoff = now - self.config.slo_window
        while self._slo_samples and self._slo_samples[0][0] < cutoff:
            self._slo_samples.popleft()
        if not self._slo_samples:
            return 0.0
        violated = sum(1 for _, bad in self._slo_samples if bad)
        return violated / len(self._slo_samples)

    def candidate_target(self, now: float) -> int:
        """N_Can = ceil(R_t / Q_Tar), clamped to the replica bounds.

        The QPS-derived candidate is handed to the configured autoscale
        mode (:data:`repro.serving.registry.AUTOSCALE_MODES`), which may
        raise it; in ``slo`` mode, when the recent violation rate
        exceeds the configured threshold the candidate is raised to at
        least ``N_Tar + ceil(rate * N_Tar)`` — proportional pressure:
        the worse the attainment, the harder the push — before clamping.
        """
        from repro.serving.registry import AUTOSCALE_MODES

        rate = self.request_rate(now)
        candidate = math.ceil(rate / self.config.target_qps_per_replica)
        mode = AUTOSCALE_MODES.get(self.config.autoscale_mode)
        return self._clamp(mode(self, now, candidate))

    def evaluate(self, now: float) -> int:
        """Update and return N_Tar; call once per controller tick."""
        if self.config.fixed_target is not None:
            self._n_tar = self._clamp(self.config.fixed_target)
            return self._n_tar
        candidate = self.candidate_target(now)
        if candidate > self._n_tar:
            self._below_since = None
            if self._above_since is None:
                self._above_since = now
            if now - self._above_since >= self.config.upscale_delay:
                logger.debug("t=%.1f upscale to N_Tar=%d", now, candidate)
                self._n_tar = candidate
                self._above_since = None
        elif candidate < self._n_tar:
            self._above_since = None
            if self._below_since is None:
                self._below_since = now
            if now - self._below_since >= self.config.downscale_delay:
                logger.debug("t=%.1f downscale to N_Tar=%d", now, candidate)
                self._n_tar = candidate
                self._below_since = None
        else:
            self._above_since = None
            self._below_since = None
        return self._n_tar


# -- autoscale modes ------------------------------------------------------
# A mode maps the QPS-derived candidate to the final (unclamped)
# candidate: ``mode(autoscaler, now, qps_candidate) -> int``.  Registered
# by name so specs can select third-party scaling signals.


def _qps_mode(autoscaler: Autoscaler, now: float, candidate: int) -> int:
    """Scale on request rate only (the paper's default)."""
    return candidate


def _slo_mode(autoscaler: Autoscaler, now: float, candidate: int) -> int:
    """Additionally push the target up under TTFT/TPOT SLO violations."""
    violation = autoscaler.slo_violation_rate(now)
    if violation > autoscaler.config.slo_violation_threshold:
        bump = max(1, math.ceil(violation * autoscaler.n_tar))
        candidate = max(candidate, autoscaler.n_tar + bump)
    return candidate


from repro.serving.registry import AUTOSCALE_MODES as _AUTOSCALE_MODES  # noqa: E402

_AUTOSCALE_MODES.register("qps", _qps_mode)
_AUTOSCALE_MODES.register("slo", _slo_mode)
