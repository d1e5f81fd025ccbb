"""Entry point and skip rule of the fast replay engines.

:class:`~repro.experiments.replay.TraceReplayer` runs one step loop for
every engine; the skip rule described here is part of that loop.
``engine="discrete"`` processes every step; ``engine="vectorized"`` and
``engine="hybrid"`` come through :func:`run_fastpath`, which runs the
same loop with its skip rule on for policies that pass
:func:`supports_fluid`.  Skipped steps are
filled in closed form: the ready/on-demand (and effective-capacity)
series are slice fills, and both costs advance by a seeded
``np.add.accumulate`` — a strict left fold, so the floats are
bit-identical to per-step ``cost += x``.

A step can start a skip only if it left the fleet unchanged: no live
promotion, preemption, successful launch, scale-down or on-demand
change.  Two kinds of such steps are skipped:

* **Quiescent windows.**  The step did not enter the spot launch loop.
  A policy that declares
  :attr:`~repro.serving.policy.ServingPolicy.stationary_decisions`
  (with no audit log attached) then makes the same no-op decision at
  every following step — a one-step cycle with no launch attempts.
* **Shortage cycles.**  Under a capacity shortage every step runs the
  launch loop.  A *stuck* step is one whose attempts all fail (or whose
  policy holds off): only the policy's state moves.  Within a run of
  stuck steps each step is a function of
  :meth:`~repro.serving.policy.ServingPolicy.decision_state` alone, so
  once that state repeats, the steps since its first occurrence form a
  cycle that repeats exactly while every zone the cycle tries stays
  full.  Launch failures grow by the cycle's count per cycle and each
  skipped step's ``ReplicaLaunchFailed`` events are emitted in order.
  A policy whose ``decision_state()`` is ``None`` is stepped.

Whole cycles are skipped up to the earliest of: the next readiness step
of a pending queue's head (:func:`bucket_step` of the smallest
``ready_at``; a dead head only ends the skip early), the next step at
which an occupied zone's capacity drops below its count, the next step
at which a zone the cycle tries gains capacity (both from cached
``flatnonzero`` + ``searchsorted`` step indices), or the horizon.

Engines:

* ``"hybrid"`` — always safe.  Skips when it can, and processes every
  step when the policy is not stationary (e.g. MArk's sliding
  prediction window).
* ``"vectorized"`` — the strict variant: identical to hybrid but
  *requires* a policy that passes :func:`supports_fluid` and raises
  ``ValueError`` otherwise, so sweeps that depend on the ≥1M steps/s
  path fail loudly instead of silently degrading.

The reference (``discrete``) and the skipping engines share every line
of per-step code, so the property suite in ``tests/properties`` checks
exactly the skip rule: byte-identical
:class:`~repro.experiments.replay.ReplayResult` fields, telemetry event
content and RNG stream position over random traces, policies, capacity
weights and chaos overlays.  Because results are engine-independent,
:class:`~repro.experiments.results.ReplayCache` keys do not include the
engine.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Sequence

from repro.serving.policy import ServingPolicy

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.experiments.replay import ReplayResult, TraceReplayer

__all__ = ["bucket_step", "run_fastpath", "supports_fluid"]


def bucket_step(ready_at: float, step: float) -> int:
    """First step index ``s`` with ``s * step >= ready_at``.

    This is the step at which the loop's ``ready_at <= now`` promotion
    check first passes, computed with explicit fix-ups so float
    rounding in the division can never disagree with the comparison
    the loop actually performs.
    """
    s = int(math.ceil(ready_at / step))
    while s * step < ready_at:
        s += 1
    while s > 0 and (s - 1) * step >= ready_at:
        s -= 1
    return s


def supports_fluid(policy: ServingPolicy) -> bool:
    """Whether quiescent windows and shortage cycles may be
    fast-forwarded for ``policy``.

    Requires the policy's stationarity declaration *and* no attached
    audit log — ``PolicyAuditLog.touch`` keys on ``obs.now``, so an
    audited policy must be consulted every step.
    """
    return bool(getattr(policy, "stationary_decisions", False)) and policy.audit is None


def run_fastpath(
    replayer: "TraceReplayer",
    policy: ServingPolicy,
    *,
    spot_zones: Optional[Sequence[str]] = None,
) -> ReplayResult:
    """Replay ``policy`` on the vectorized/hybrid engine: the step loop
    with the skip rule on when :func:`supports_fluid` allows it."""
    skip = supports_fluid(policy)
    if replayer.engine == "vectorized" and not skip:
        raise ValueError(
            f"policy {policy.name!r} cannot run on the strict vectorized "
            f"engine: it does not declare stationary_decisions (or has an "
            f"audit log attached), so quiescent windows cannot be "
            f"fast-forwarded — use engine='hybrid' for exact per-step "
            f"processing with opportunistic fast-forwarding"
        )
    profiler = replayer.profiler
    t_run = profiler.clock() if profiler.enabled else 0.0
    result = replayer._run_steps(policy, spot_zones, skip=skip)
    if profiler.enabled:
        profiler.accumulate("replay.fastpath", profiler.clock() - t_run)
    return result
