"""Numpy fluid/flow data plane for trace replay — the fast engines.

:class:`~repro.experiments.replay.TraceReplayer` dispatches here for
``engine="vectorized"`` and ``engine="hybrid"``.  Fleet state lives in
per-zone integer/float arrays instead of per-instance Python objects:

* per-zone parallel arrays of replica ids (sorted ascending — ids are
  issued monotonically and removals preserve order), ``ready_at``
  stamps and readiness flags, with per-zone counts alongside;
* preemption excess straight from ``capacity - count`` row math, with
  victim subsets drawn by the *same* partial Fisher–Yates procedure —
  one ``rng.random(excess)`` batch per preempting zone — so the RNG
  stream consumption matches the discrete oracle draw for draw;
* readiness promotion via ring buffers bucketed by ready-step: each
  pending launch is filed under the first step at which its
  ``ready_at`` has passed, and promotion pops whole buckets instead of
  polling a queue per step;
* cost accrual via per-step products against the folded price rows
  (static zone multipliers × chaos price factors), accumulated with
  ``np.add.accumulate`` — a strict left fold, so the float result is
  bit-identical to the discrete ``cost += x`` loop.

On top of the array stepper sits the hybrid dispatcher: the trace is
segmented into *churn windows* — steps around capacity crossings,
policy mix changes and chaos injection edges, which run the exact
discrete per-step semantics (identical victim-sampling RNG draws,
identical telemetry events) — and *quiescent windows*, where capacity
sits comfortably above placements and nothing is pending, which are
fast-forwarded in closed form: readiness/on-demand series are constant
slice fills and both cost series advance by a seeded sequential
accumulate.  A window is quiescent only when the step before it
completed with *zero* fleet activity (no promotions, preemptions,
launch attempts, scale-downs or on-demand changes) and the policy
declares :attr:`~repro.serving.policy.ServingPolicy.stationary_decisions`
(with no audit log attached), in which case the policy provably makes
the same no-op decision at every skipped step.  The window ends at the
earliest of: the next pending-readiness bucket, the next capacity
crossing below any occupied zone's count (cached ``capacity < count``
index arrays + ``searchsorted``), or the trace horizon.

Engines:

* ``"hybrid"`` — always safe.  Fast-forwards when it can, degrades to
  exact per-step array stepping when the policy is not stationary
  (e.g. MArk's sliding prediction window) or a step saw activity.
* ``"vectorized"`` — the strict fastpath: identical to hybrid but
  *requires* a fast-forwardable policy and raises ``ValueError``
  otherwise, so sweeps that depend on the ≥1M steps/s path fail loudly
  instead of silently degrading.

Both produce byte-identical :class:`~repro.experiments.replay.ReplayResult`
fields (availability, costs, preemption/launch-failure counts, ready
and on-demand series) and identical telemetry event content to the
discrete oracle — property-tested in ``tests/properties`` over random
traces, policies and chaos overlays.  Because results are engine-
independent, :class:`~repro.experiments.results.ReplayCache` keys do
not include the engine.

Capacity shortage (total capacity below the spot target) makes every
step run the launch loop.  A *stuck* step is one whose attempts all
fail (or whose policy holds off): the fleet does not change and only
the policy's state moves.  Within a run of stuck steps each step is a
function of :meth:`~repro.serving.policy.ServingPolicy.decision_state`
alone, so once that state repeats, the steps since its first
occurrence form a cycle that repeats exactly while every zone the
cycle tries stays full.  The engine skips whole cycles up to the
earliest of: the next pending-readiness bucket, the next capacity
crossing below an occupied zone's count, the next capacity rise above
the count of a zone the cycle tries (a cached ``capacity > count``
twin of the crossing index), or the horizon.  Launch failures grow by
the cycle's count per cycle, the series and costs reuse the quiescent
fill and fold, and each skipped step's ``ReplicaLaunchFailed`` events
are emitted in order.  A policy whose ``decision_state()`` is ``None``
is stepped.
"""

from __future__ import annotations

import logging
import math
from bisect import insort
from collections import deque
from functools import partial
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Hashable, Optional, Sequence

import numpy as np

from repro.experiments.replay import (
    _EMPTY_FROZENSET,
    ReplayResult,
    _ReplayInstance,
    _ready_order,
)
from repro.serving.policy import Observation, ServingPolicy
from repro.telemetry.events import (
    CostSnapshot,
    FleetSample,
    ReplicaLaunch,
    ReplicaLaunchFailed,
    ReplicaPreempted,
    ReplicaTerminated,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.experiments.replay import TraceReplayer

__all__ = ["bucket_step", "run_fastpath", "supports_fluid"]

logger = logging.getLogger(__name__)


def bucket_step(ready_at: float, step: float) -> int:
    """First step index ``s`` with ``s * step >= ready_at``.

    This is the step at which the discrete loop's ``ready_at <= now``
    promotion check first passes, computed with explicit fix-ups so
    float rounding in the division can never disagree with the
    comparison the oracle actually performs.
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
    """Replay ``policy`` on the array data plane (vectorized/hybrid)."""
    cfg = replayer.config
    trace = replayer.trace
    bus = replayer.telemetry
    rng = replayer._rng
    profiler = replayer.profiler
    prof_enabled = profiler.enabled

    fluid_ok = supports_fluid(policy)
    if replayer.engine == "vectorized" and not fluid_ok:
        raise ValueError(
            f"policy {policy.name!r} cannot run on the strict vectorized "
            f"engine: it does not declare stationary_decisions (or has an "
            f"audit log attached), so quiescent windows cannot be "
            f"fast-forwarded — use engine='hybrid' for exact per-step "
            f"processing with opportunistic fast-forwarding"
        )

    zones = list(spot_zones) if spot_zones is not None else list(trace.zone_ids)
    n_zones = len(zones)
    zone_index = {zone: i for i, zone in enumerate(zones)}
    step = trace.step
    n_steps = trace.n_steps
    base_d = cfg.cold_start
    d = base_d
    chaos_cs = replayer._cold_start_factors
    # Capacity rows both ways: numpy rows feed the crossing queries and
    # plain int lists feed scalar indexing on churn steps (boxing a
    # numpy scalar per access costs ~100 ns).
    caps_np = [np.ascontiguousarray(trace.zone_row(zone)) for zone in zones]
    caps_list: list[list[int]] = [row.tolist() for row in caps_np]

    # Per-zone array fleet (amortised-doubling storage).  Ids ascend
    # within each zone, so bucket promotions locate entries by
    # searchsorted and a missing id means the replica died.
    fleet_cap = 8
    z_ids = [np.zeros(fleet_cap, dtype=np.int64) for _ in range(n_zones)]
    z_ready_at = [np.zeros(fleet_cap) for _ in range(n_zones)]
    z_ready = [np.zeros(fleet_cap, dtype=bool) for _ in range(n_zones)]
    sizes = [0] * n_zones
    spot_total = 0
    spot_ready = 0

    # Pending-readiness ring buffers: ready-step -> [(zone_idx, id)].
    buckets: dict[int, list[tuple[int, int]]] = {}
    bucket_heap: list[int] = []

    # The on-demand fleet reuses the oracle's object representation
    # verbatim — on-demand churn is rare and always obtainable, so the
    # arrays buy nothing and sharing the code shares its semantics.
    od: list[_ReplayInstance] = []
    od_ready = 0
    if chaos_cs is None:
        pending_od: list[_ReplayInstance] | deque[_ReplayInstance] = deque()
        push_od = pending_od.append
        pop_od = pending_od.popleft
    else:
        pending_od = []
        push_od = partial(insort, pending_od, key=_ready_order)
        pop_od = partial(pending_od.pop, 0)

    # Price rows folded exactly as the discrete engine folds them, kept
    # as lists (churn-step scalar access) and float64 rows (fluid
    # window products).
    multipliers = dict(cfg.zone_price_multipliers or {})
    mult_by_zone = [multipliers.get(zone, 1.0) for zone in zones]
    price_rows: Optional[list[list[float]]] = None
    price_np: Optional[list[np.ndarray]] = None
    if replayer._zone_price_factors is not None:
        price_rows = []
        price_np = []
        for zi, zone in enumerate(zones):
            factors = replayer._zone_price_factors.get(zone)
            if factors is None:
                row = [mult_by_zone[zi]] * n_steps
            else:
                row = [mult_by_zone[zi] * f for f in factors]
            price_rows.append(row)
            price_np.append(np.asarray(row))

    # capacity-crossing cache: (zone_idx, count) -> sorted step indices
    # where that zone's capacity sits below ``count``.
    below_cache: dict[tuple[int, int], np.ndarray] = {}

    def next_crossing(zi: int, count: int, after: int) -> int:
        key = (zi, count)
        arr = below_cache.get(key)
        if arr is None:
            arr = np.flatnonzero(caps_np[zi] < count)
            below_cache[key] = arr
        pos = int(np.searchsorted(arr, after))
        return int(arr[pos]) if pos < len(arr) else n_steps

    # Its twin: (zone_idx, count) -> steps where capacity exceeds
    # ``count``, i.e. where a launch into that zone would succeed.
    above_cache: dict[tuple[int, int], np.ndarray] = {}

    def next_rise(zi: int, count: int, after: int) -> int:
        key = (zi, count)
        arr = above_cache.get(key)
        if arr is None:
            arr = np.flatnonzero(caps_np[zi] > count)
            above_cache[key] = arr
        pos = int(np.searchsorted(arr, after))
        return int(arr[pos]) if pos < len(arr) else n_steps

    def boundary(after: int) -> int:
        """First step at or after ``after`` where a pending replica
        becomes ready or an occupied zone's capacity drops below its
        count, capped at the horizon."""
        nxt = bucket_heap[0] if bucket_heap else n_steps
        if pending_od:
            od_bucket = bucket_step(pending_od[0].ready_at, step)
            if od_bucket < nxt:
                nxt = od_bucket
        for zi in range(n_zones):
            count = sizes[zi]
            if count:
                crossing = next_crossing(zi, count, after)
                if crossing < nxt:
                    nxt = crossing
        return min(nxt, n_steps)

    hours = step / 3600.0

    def fast_forward(
        lo: int, hi: int, total_ready: int, spot_cost: float, od_cost: float
    ) -> tuple[float, float]:
        """Fill steps ``lo..hi-1`` of a window in which the fleet does
        not change, and return both costs advanced across it."""
        width = hi - lo
        n_od = len(od)
        ready_series[lo:hi] = total_ready
        od_series[lo:hi] = n_od
        # Seeded sequential accumulate: buf[0] carries the running
        # total and np.add.accumulate applies the per-step adds in
        # order — the exact float left fold of the discrete loop.
        buf = np.empty(width + 1)
        if price_np is not None:
            contrib = np.zeros(width)
            for i in range(n_zones):
                if sizes[i]:
                    contrib = contrib + sizes[i] * price_np[i][lo:hi]
            buf[1:] = contrib * hours
        elif multipliers:
            buf[1:] = (
                sum(sizes[i] * mult_by_zone[i] for i in range(n_zones) if sizes[i])
                * hours
            )
        else:
            buf[1:] = sum(sizes) * hours
        buf[0] = spot_cost
        np.add.accumulate(buf, out=buf)
        spot_cost = float(buf[-1])
        buf[0] = od_cost
        buf[1:] = n_od * cfg.k * hours
        np.add.accumulate(buf, out=buf)
        return spot_cost, float(buf[-1])

    preemptions = 0
    launch_failures = 0
    spot_cost = 0.0
    od_cost = 0.0
    ready_series = np.zeros(n_steps, dtype=int)
    od_series = np.zeros(n_steps, dtype=int)
    prev_ready = -1
    next_id = 0

    on_preempted = policy.on_spot_preempted
    on_ready = policy.on_spot_ready
    on_launch_failed = policy.on_spot_launch_failed
    target_mix = policy.target_mix
    select_spot_zone = policy.select_spot_zone
    decision_state = policy.decision_state
    n_tar = cfg.n_tar
    max_attempts = cfg.max_launch_attempts_per_step

    # The current stuck run: decision state after each stuck step ->
    # its index in ``run_failed``, the zones each step failed in order.
    run_index: dict[Hashable, int] = {}
    run_failed: list[list[str]] = []

    prof_clock = profiler.clock
    fluid_time = 0.0
    t_run = prof_clock() if prof_enabled else 0.0

    logger.info(
        "replaying %s over %s (%d steps, %s engine)",
        policy.name,
        trace.name,
        n_steps,
        replayer.engine,
    )

    k = 0
    while k < n_steps:
        now = k * step
        bus_enabled = bus.enabled
        if chaos_cs is not None:
            d = base_d * chaos_cs[k]
        # Whether the fleet changed this step (promotion, preemption,
        # launch, scale-down or on-demand change).
        churn = False

        # 0. Promote pending replicas whose ready step has arrived.
        # Bucket pops replace the oracle's queue polling; entries whose
        # id is gone from the zone arrays died in the meantime.
        while bucket_heap and bucket_heap[0] <= k:
            for zi, rid in buckets.pop(heappop(bucket_heap)):
                n_i = sizes[zi]
                ids_i = z_ids[zi]
                pos = int(np.searchsorted(ids_i[:n_i], rid))
                if pos < n_i and ids_i[pos] == rid and not z_ready[zi][pos]:
                    z_ready[zi][pos] = True
                    spot_ready += 1
                    churn = True
        while pending_od and pending_od[0].ready_at <= now:
            inst = pop_od()
            if inst.alive:
                inst.ready = True
                od_ready += 1
                churn = True

        # 1. Preemptions from capacity - count row math; victim subsets
        # drawn by the identical partial Fisher–Yates procedure (and
        # the identical whole-zone wipe shortcut) as the oracle.
        for zi in range(n_zones):  # repro: draw-parity[victim-sampling]: oracle (replay.py) must draw the identical victim skeleton
            count = sizes[zi]
            if count == 0:
                continue
            excess = count - caps_list[zi][k]
            if excess <= 0:
                continue
            churn = True
            ids_i = z_ids[zi]
            rd_i = z_ready[zi]
            if excess >= count:
                victim_positions: Sequence[int] = range(count - 1, -1, -1)
            else:
                u = rng.random(excess)
                idx = list(range(count))
                for t in range(excess):
                    j = t + int(u[t] * (count - t))
                    idx[t], idx[j] = idx[j], idx[t]
                victim_positions = sorted(idx[:excess], reverse=True)
            zone = zones[zi]
            for pos in victim_positions:
                if rd_i[pos]:
                    spot_ready -= 1
                preemptions += 1
                if bus_enabled:
                    bus.emit(ReplicaPreempted(now, int(ids_i[pos]), zone, True))
                on_preempted(zone)
            remaining = count - excess
            if remaining:
                keep = np.ones(count, dtype=bool)
                keep[list(victim_positions)] = False
                ids_i[:remaining] = ids_i[:count][keep]
                z_ready_at[zi][:remaining] = z_ready_at[zi][:count][keep]
                rd_i[:remaining] = rd_i[:count][keep]
            sizes[zi] = remaining
            spot_total -= excess

        # 2. Observe and ask the policy for targets.
        ready_spot_obs = spot_ready
        ready_od_obs = od_ready
        n_od = len(od)
        obs = Observation(
            now,
            n_tar,
            spot_total,
            ready_spot_obs,
            n_od,
            ready_od_obs,
            {zones[i]: sizes[i] for i in range(n_zones) if sizes[i]},
        )
        mix = target_mix(obs)

        # 3. Reconcile the spot fleet — the loop is line-for-line the
        # oracle's, over array state.  Entering it at all (even for a
        # fruitless attempt) rules out a quiescent window: selection may
        # mutate placer state (e.g. round-robin rotation), so only the
        # cycle rule below may skip such steps.
        spot_target = mix.spot_target
        counted = spot_total if mix.count_provisioning_spot else ready_spot_obs
        launching = counted < spot_target
        attempts = 0
        failed: list[str] = []
        excluded = _EMPTY_FROZENSET
        obs_now: Optional[Observation] = obs
        while counted < spot_target and attempts < max_attempts:
            attempts += 1
            if obs_now is None:
                obs_now = Observation(
                    now,
                    n_tar,
                    spot_total,
                    ready_spot_obs,
                    n_od,
                    ready_od_obs,
                    {zones[i]: sizes[i] for i in range(n_zones) if sizes[i]},
                )
            zone = select_spot_zone(obs_now, excluded)
            if zone is None:
                break
            zi = zone_index[zone]  # KeyError for unknown zones, like the oracle
            n_i = sizes[zi]
            if n_i < caps_list[zi][k]:
                next_id += 1
                if n_i == len(z_ids[zi]):
                    for arrs in (z_ids, z_ready_at, z_ready):
                        grown = np.zeros(2 * n_i, dtype=arrs[zi].dtype)
                        grown[:n_i] = arrs[zi]
                        arrs[zi] = grown
                ready_at = now + d
                z_ids[zi][n_i] = next_id
                z_ready_at[zi][n_i] = ready_at
                if d <= 0:
                    z_ready[zi][n_i] = True
                    spot_ready += 1
                else:
                    z_ready[zi][n_i] = False
                    s = bucket_step(ready_at, step)
                    bucket = buckets.get(s)
                    if bucket is None:
                        buckets[s] = [(zi, next_id)]
                        heappush(bucket_heap, s)
                    else:
                        bucket.append((zi, next_id))
                sizes[zi] = n_i + 1
                spot_total += 1
                churn = True
                if bus_enabled:
                    bus.emit(ReplicaLaunch(now, next_id, zone, True))
                on_ready(zone)
                counted += 1
                obs_now = None
            else:
                launch_failures += 1
                failed.append(zone)
                excluded = frozenset(failed)
                if bus_enabled:
                    bus.emit(ReplicaLaunchFailed(now, -1, zone, True))
                on_launch_failed(zone)
        while spot_total > spot_target:
            churn = True
            # Scale down the unique max of (ready_at, id); ids ascend
            # within a zone, so the last occurrence of the zone's max
            # ready_at is its (ready_at, id) maximum.
            best_ra = -math.inf
            best_id = -1
            best_zi = -1
            best_pos = -1
            for zi in range(n_zones):
                n_i = sizes[zi]
                if n_i == 0:
                    continue
                ra_i = z_ready_at[zi][:n_i]
                pos = n_i - 1 - int(np.argmax(ra_i[::-1]))
                ra_v = float(ra_i[pos])
                id_v = int(z_ids[zi][pos])
                if ra_v > best_ra or (ra_v == best_ra and id_v > best_id):
                    best_ra, best_id, best_zi, best_pos = ra_v, id_v, zi, pos
            zi, pos = best_zi, best_pos
            n_i = sizes[zi]
            if z_ready[zi][pos]:
                spot_ready -= 1
            z_ids[zi][pos : n_i - 1] = z_ids[zi][pos + 1 : n_i].copy()
            z_ready_at[zi][pos : n_i - 1] = z_ready_at[zi][pos + 1 : n_i].copy()
            z_ready[zi][pos : n_i - 1] = z_ready[zi][pos + 1 : n_i].copy()
            sizes[zi] = n_i - 1
            spot_total -= 1
            if bus_enabled:
                bus.emit(ReplicaTerminated(now, best_id, zones[zi], True, "scale_down"))

        # 4. Reconcile the on-demand fleet (oracle code, shared types).
        while len(od) < mix.od_target:
            churn = True
            inst = _ReplayInstance(zone=None, spot=False, ready_at=now + d)
            od.append(inst)
            if d <= 0:
                inst.ready = True
                od_ready += 1
            else:
                push_od(inst)
        while len(od) > mix.od_target:
            churn = True
            victim = od.pop()
            victim.alive = False
            if victim.ready:
                od_ready -= 1

        # 5. Accrue cost and record readiness — same fold order and
        # expressions as the oracle, so the floats agree bit for bit.
        if price_rows is not None:
            spot_cost += (
                sum(sizes[i] * price_rows[i][k] for i in range(n_zones) if sizes[i])
                * hours
            )
        elif multipliers:
            spot_cost += (
                sum(sizes[i] * mult_by_zone[i] for i in range(n_zones) if sizes[i])
                * hours
            )
        else:
            spot_cost += spot_total * hours
        od_cost += len(od) * cfg.k * hours
        total_ready = spot_ready + od_ready
        if bus_enabled and (k == 0 or total_ready != prev_ready):
            bus.emit(FleetSample(now, total_ready, n_tar))
        prev_ready = total_ready
        ready_series[k] = total_ready
        od_series[k] = len(od)

        if churn or not fluid_ok:
            if run_failed:
                run_index, run_failed = {}, []
            k += 1
            continue

        if launching:
            # Stuck step: every launch attempt failed, so only the
            # policy's state moved.  Once it repeats, the steps since
            # its first occurrence form a cycle that later steps repeat
            # until a tried zone gains capacity or a window boundary.
            key = decision_state()
            first = run_index.get(key) if key is not None else None
            if first is None:
                if key is not None:
                    run_index[key] = len(run_failed)
                    run_failed.append(failed)
                k += 1
                continue
            cycle = run_failed[first + 1 :] + [failed]
            run_index, run_failed = {key: 0}, [failed]
            nxt = boundary(k + 1)
            tried = {zone_index[zone] for zones_tried in cycle for zone in zones_tried}
            for zi in sorted(tried):
                rise = next_rise(zi, sizes[zi], k + 1)
                if rise < nxt:
                    nxt = rise
        else:
            # Quiescent window: this step completed with zero fleet
            # activity under a stationary policy, so every step until
            # the next pending-readiness bucket or capacity crossing
            # repeats the same no-op decision: a one-step cycle with no
            # launch attempts.
            if run_failed:
                run_index, run_failed = {}, []
            cycle = [[]]
            nxt = boundary(k + 1)
        period = len(cycle)
        whole = (nxt - 1 - k) // period
        if whole <= 0:
            k += 1
            continue
        # Fast-forward whole cycles in closed form.
        t_fluid = prof_clock() if prof_enabled else 0.0
        hi = k + 1 + whole * period
        if launching:
            launch_failures += whole * sum(len(zones_tried) for zones_tried in cycle)
            if bus_enabled:
                for skipped in range(k + 1, hi):
                    skipped_now = skipped * step
                    for zone in cycle[(skipped - k - 1) % period]:
                        bus.emit(ReplicaLaunchFailed(skipped_now, -1, zone, True))
        spot_cost, od_cost = fast_forward(k + 1, hi, total_ready, spot_cost, od_cost)
        if prof_enabled:
            fluid_time += prof_clock() - t_fluid
        k = hi

    if prof_enabled:
        profiler.accumulate("replay.fastpath", prof_clock() - t_run)
        profiler.accumulate("replay.fastpath.fluid", fluid_time)

    replayer._next_id = next_id
    if bus.enabled:
        end = n_steps * step
        bus.emit(CostSnapshot(end, spot_cost, od_cost, spot_cost + od_cost))
    baseline = cfg.k * cfg.n_tar * (n_steps * step / 3600.0)
    return ReplayResult(
        policy=policy.name,
        trace=trace.name,
        n_tar=cfg.n_tar,
        availability=float((ready_series >= cfg.n_tar).mean()),
        relative_cost=(spot_cost + od_cost) / baseline,
        spot_cost=spot_cost,
        od_cost=od_cost,
        preemptions=preemptions,
        launch_failures=launch_failures,
        ready_series=ready_series,
        step=step,
        od_series=od_series,
        # The fastpath rejects zone_capacity_weights up front (run()
        # raises before dispatching here), so the effective-capacity
        # fields are always untracked on this engine path.
        eff_ready_series=None,
        eff_availability=None,
    )
