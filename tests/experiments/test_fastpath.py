"""Unit tests for the vectorized/hybrid replay engines.

The contract under test: every engine produces *byte-identical*
:class:`ReplayResult` fields and telemetry event content, consuming the
same RNG stream — the discrete loop stays the oracle.
"""

import dataclasses

import numpy as np
import pytest

from repro.baselines import ASGPolicy, AWSSpotPolicy, MArkPolicy, SingleZonePolicy
from repro.chaos import BUILTIN_SCENARIOS, builtin_scenario, compile_scenario
from repro.cloud import SpotTrace
from repro.cloud.traces import aws1, aws2, aws3, cpu_trace, gcp1
from repro.core import (
    OnDemandOnlyPolicy,
    even_spread_policy,
    round_robin_policy,
    spothedge,
)
from repro.core.spothedge import MixturePolicy
from repro.experiments import ENGINES, ReplayConfig, TraceReplayer
from repro.experiments.fastpath import bucket_step, supports_fluid
from repro.telemetry.audit import PolicyAuditLog
from repro.telemetry.events import EventBus
from repro.telemetry.sinks import RingBufferSink

Z1, Z2, Z3 = "aws:r1:r1a", "aws:r1:r1b", "aws:r2:r2a"
ZONES = [Z1, Z2, Z3]

POLICY_FACTORIES = {
    "SpotHedge": spothedge,
    "RoundRobin": round_robin_policy,
    "EvenSpread": even_spread_policy,
    "OnDemand": OnDemandOnlyPolicy,
}


def trace_with(rows, step=60.0, name="fastpath-test"):
    return SpotTrace(name, ZONES, step, np.asarray(rows))


def assert_identical(ref, got):
    """Byte-identical ReplayResult comparison — no approx anywhere."""
    for field in dataclasses.fields(ref):
        want, have = getattr(ref, field.name), getattr(got, field.name)
        if isinstance(want, np.ndarray):
            assert have.dtype == want.dtype, field.name
            np.testing.assert_array_equal(have, want, err_msg=field.name)
        else:
            assert have == want, field.name


def replay(trace, factory, engine, *, seed=3, config=None, **kwargs):
    config = config or ReplayConfig(n_tar=4, k=4.0)
    replayer = TraceReplayer(trace, config, seed=seed, engine=engine, **kwargs)
    return replayer.run(factory(trace.zone_ids))


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown replay engine"):
            TraceReplayer(aws1(), engine="fluid")

    def test_engines_constant(self):
        assert ENGINES == ("discrete", "vectorized", "hybrid")

    def test_vectorized_requires_stationary_policy(self):
        trace = aws1()
        replayer = TraceReplayer(trace, engine="vectorized")
        with pytest.raises(ValueError, match="stationary_decisions"):
            replayer.run(MArkPolicy(trace.zone_ids))

    def test_vectorized_rejects_audited_policy(self):
        trace = aws1()
        policy = spothedge(trace.zone_ids)
        policy.attach_audit(PolicyAuditLog())
        assert not supports_fluid(policy)
        with pytest.raises(ValueError, match="audit"):
            TraceReplayer(trace, engine="vectorized").run(policy)

    def test_hybrid_accepts_non_stationary_policy(self):
        trace = aws1()
        ref = replay(trace, MArkPolicy, "discrete")
        got = replay(trace, MArkPolicy, "hybrid")
        assert_identical(ref, got)

    def test_stationarity_declarations(self):
        assert MixturePolicy.stationary_decisions
        assert OnDemandOnlyPolicy.stationary_decisions
        assert ASGPolicy.stationary_decisions
        assert AWSSpotPolicy.stationary_decisions
        assert SingleZonePolicy.stationary_decisions
        assert not MArkPolicy.stationary_decisions


class TestBundledTraceEquivalence:
    @pytest.mark.parametrize("trace_factory", [aws1, aws2, aws3, gcp1, cpu_trace])
    @pytest.mark.parametrize("policy", sorted(POLICY_FACTORIES))
    @pytest.mark.parametrize("engine", ["vectorized", "hybrid"])
    def test_byte_identical_on_bundled_traces(self, trace_factory, policy, engine):
        trace = trace_factory()
        factory = POLICY_FACTORIES[policy]
        ref = replay(trace, factory, "discrete")
        got = replay(trace, factory, engine)
        assert_identical(ref, got)

    @pytest.mark.parametrize("engine", ["vectorized", "hybrid"])
    def test_identical_rng_stream_consumption(self, engine):
        # After a replay, the *next* draw from the stream must agree —
        # i.e. both engines consumed exactly the same draws.
        trace = aws3()
        ref_replayer = TraceReplayer(trace, ReplayConfig(n_tar=4), seed=9)
        ref_replayer.run(spothedge(trace.zone_ids))
        fast_replayer = TraceReplayer(trace, ReplayConfig(n_tar=4), seed=9, engine=engine)
        fast_replayer.run(spothedge(trace.zone_ids))
        assert ref_replayer._rng.random() == fast_replayer._rng.random()
        assert ref_replayer._next_id == fast_replayer._next_id

    @pytest.mark.parametrize("engine", ["vectorized", "hybrid"])
    def test_baseline_policies_match(self, engine):
        trace = aws1()  # single-region: ASG rejects multi-region zones
        for factory in (
            lambda z: ASGPolicy(z),
            lambda z: AWSSpotPolicy(z),
            lambda z: SingleZonePolicy(z[0]),
        ):
            ref = replay(trace, factory, "discrete")
            got = replay(trace, factory, engine)
            assert_identical(ref, got)

    @pytest.mark.parametrize("engine", ["vectorized", "hybrid"])
    def test_spot_zones_subset(self, engine):
        trace = aws1()
        subset = list(trace.zone_ids[:2])
        config = ReplayConfig(n_tar=3)
        ref = TraceReplayer(trace, config, seed=1).run(
            spothedge(subset), spot_zones=subset
        )
        got = TraceReplayer(trace, config, seed=1, engine=engine).run(
            spothedge(subset), spot_zones=subset
        )
        assert_identical(ref, got)

    @pytest.mark.parametrize("engine", ["vectorized", "hybrid"])
    def test_zone_price_multipliers_match(self, engine):
        trace = aws2()
        config = ReplayConfig(
            n_tar=4, zone_price_multipliers={trace.zone_ids[0]: 0.7, trace.zone_ids[1]: 1.3}
        )
        ref = replay(trace, spothedge, "discrete", config=config)
        got = replay(trace, spothedge, engine, config=config)
        assert_identical(ref, got)


class TestChaosEquivalence:
    @pytest.mark.parametrize("scenario", sorted(BUILTIN_SCENARIOS))
    @pytest.mark.parametrize("engine", ["vectorized", "hybrid"])
    def test_builtin_scenarios_byte_identical(self, scenario, engine):
        trace = aws1()
        compiled = compile_scenario(builtin_scenario(scenario), trace)
        kwargs = dict(
            cold_start_factors=compiled.cold_start_factors,
            zone_price_factors=compiled.price_factors,
        )
        ref = replay(compiled.trace, spothedge, "discrete", **kwargs)
        got = replay(compiled.trace, spothedge, engine, **kwargs)
        assert_identical(ref, got)


class TestTelemetryEquivalence:
    @pytest.mark.parametrize("engine", ["vectorized", "hybrid"])
    @pytest.mark.parametrize("policy", ["SpotHedge", "RoundRobin"])
    def test_event_streams_identical(self, engine, policy):
        trace = aws1()
        factory = POLICY_FACTORIES[policy]
        streams = []
        for eng in ("discrete", engine):
            sink = RingBufferSink()
            replayer = TraceReplayer(
                trace, ReplayConfig(n_tar=4), seed=3, engine=eng,
                telemetry=EventBus([sink]),
            )
            replayer.run(factory(trace.zone_ids))
            streams.append(sink.events)
        assert streams[0] == streams[1]

    @pytest.mark.parametrize("engine", ["vectorized", "hybrid"])
    def test_chaos_event_streams_identical(self, engine):
        trace = aws1()
        compiled = compile_scenario(builtin_scenario("cold-start-storm"), trace)
        streams = []
        for eng in ("discrete", engine):
            sink = RingBufferSink()
            replayer = TraceReplayer(
                compiled.trace, ReplayConfig(n_tar=4), seed=3, engine=eng,
                telemetry=EventBus([sink]),
                cold_start_factors=compiled.cold_start_factors,
                zone_price_factors=compiled.price_factors,
            )
            replayer.run(spothedge(compiled.trace.zone_ids))
            streams.append(sink.events)
        assert streams[0] == streams[1]


class _CountingSpotHedge(MixturePolicy):
    """SpotHedge that records the step index of every target_mix call."""

    def __init__(self, zones, step):
        from repro.core.placement import DynamicSpotPlacer

        super().__init__(
            DynamicSpotPlacer(zones), dynamic_ondemand_fallback=True, name="SpotHedge"
        )
        self._obs_step = step
        self.consulted_steps = []

    def target_mix(self, obs):
        self.consulted_steps.append(int(obs.now // self._obs_step))
        return super().target_mix(obs)


class TestHybridWindowing:
    def make_quiet_trace(self, crossing_step=120, n_steps=300):
        # Plenty of capacity everywhere, except zone 1 collapses to 0
        # at ``crossing_step`` for 10 steps — the one churn window.
        rows = np.full((3, n_steps), 6, dtype=np.int64)
        rows[1, crossing_step : crossing_step + 10] = 0
        return trace_with(rows.tolist())

    def test_windows_skip_quiescent_steps(self):
        trace = self.make_quiet_trace()
        policy = _CountingSpotHedge(ZONES, trace.step)
        TraceReplayer(trace, ReplayConfig(n_tar=4), engine="hybrid").run(policy)
        # The hybrid engine consulted the policy on far fewer steps...
        assert len(policy.consulted_steps) < trace.n_steps / 4
        # ...including exactly the forced boundary: the capacity
        # crossing.  Capacity *restoration* is not a churn point — the
        # fleet re-settled in other zones during the outage — so after
        # the outage churn dies out, no further steps are consulted.
        assert 120 in policy.consulted_steps
        assert max(policy.consulted_steps) < 130

    def test_discrete_consults_every_step(self):
        trace = self.make_quiet_trace()
        policy = _CountingSpotHedge(ZONES, trace.step)
        TraceReplayer(trace, ReplayConfig(n_tar=4)).run(policy)
        assert len(policy.consulted_steps) == trace.n_steps

    def test_window_boundary_at_chaos_injection_edge(self):
        # A cold-start spike alone changes nothing unless a launch
        # happens — force one by a capacity dip inside the spike, and
        # check the boundary steps were processed discretely.
        trace = self.make_quiet_trace(crossing_step=150)
        compiled = compile_scenario(builtin_scenario("cold-start-storm"), trace)
        policy = _CountingSpotHedge(ZONES, trace.step)
        got = TraceReplayer(
            compiled.trace,
            ReplayConfig(n_tar=4),
            engine="hybrid",
            cold_start_factors=compiled.cold_start_factors,
            zone_price_factors=compiled.price_factors,
        ).run(policy)
        assert 150 in policy.consulted_steps
        ref = TraceReplayer(
            compiled.trace,
            ReplayConfig(n_tar=4),
            cold_start_factors=compiled.cold_start_factors,
            zone_price_factors=compiled.price_factors,
        ).run(_CountingSpotHedge(ZONES, trace.step))
        assert_identical(ref, got)

    def test_windowing_respects_pending_readiness(self):
        # Cold start of 5 steps: after the initial launches the engine
        # must wake exactly when replicas become ready (readiness
        # changes availability), not at the end of the trace.
        trace = self.make_quiet_trace(crossing_step=50, n_steps=200)
        config = ReplayConfig(n_tar=4, cold_start=300.0)
        ref = replay(trace, spothedge, "discrete", config=config)
        got = replay(trace, spothedge, "hybrid", config=config)
        assert_identical(ref, got)

    def test_mid_shortage_equivalence(self):
        # Sustained shortage: total capacity below target — the launch
        # loop fails every step, so hybrid degrades to per-step churn
        # but must stay byte-identical.
        rows = [[1] * 80, [0] * 80, [0] * 80]
        trace = trace_with(rows)
        config = ReplayConfig(n_tar=4)
        ref = replay(trace, round_robin_policy, "discrete", config=config)
        got = replay(trace, round_robin_policy, "hybrid", config=config)
        assert_identical(ref, got)
        assert got.launch_failures > 0


class TestBucketStep:
    @pytest.mark.parametrize("step", [60.0, 1.0, 0.1, 7.3])
    def test_matches_promotion_comparison(self, step):
        # bucket_step must return the first k with ready_at <= k*step.
        for k_launch in range(0, 50, 7):
            for d in (0.05, 0.1, 1.0, 59.9, 60.0, 180.0, 183.7):
                ready_at = k_launch * step + d
                s = bucket_step(ready_at, step)
                assert s * step >= ready_at
                assert (s - 1) * step < ready_at

    def test_exact_multiple(self):
        assert bucket_step(180.0, 60.0) == 3
        assert bucket_step(180.0000001, 60.0) == 4


class TestStatefulReuse:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_second_run_identical(self, engine):
        trace = aws1()
        replayer = TraceReplayer(trace, ReplayConfig(n_tar=4), seed=5, engine=engine)
        first = replayer.run(spothedge(trace.zone_ids))
        second = replayer.run(spothedge(trace.zone_ids))
        assert_identical(first, second)


class _OpaqueRoundRobin(MixturePolicy):
    """Round Robin that does not expose its decision state."""

    def __init__(self, zones):
        from repro.core.placement import RoundRobinPlacer

        super().__init__(RoundRobinPlacer(zones), name="OpaqueRoundRobin")

    def decision_state(self):
        return None


SHORTAGE_ZONES = ["aws:r1:a", "aws:r1:b", "aws:r1:c"]

SHORTAGE_POLICIES = {
    "SpotHedge": spothedge,
    "EvenSpread": even_spread_policy,
    "RoundRobin": round_robin_policy,
    "ASG": ASGPolicy,
    "AWSSpot": AWSSpotPolicy,
    "Opaque": _OpaqueRoundRobin,
}


def shortage_trace(window):
    """Three zones with some capacity, then ``window`` steps with none
    anywhere, then recovery."""
    rows = [[2] * 30 + [0] * window + [3] * 30 for _ in SHORTAGE_ZONES]
    return SpotTrace("shortage", SHORTAGE_ZONES, 60.0, np.asarray(rows))


def count_selections(policy):
    """Wrap ``policy.select_spot_zone`` with a call counter."""
    calls = [0]
    select = policy.select_spot_zone

    def counted(obs, excluded=frozenset()):
        calls[0] += 1
        return select(obs, excluded)

    policy.select_spot_zone = counted
    return calls


class TestShortageCycleSkip:
    """Steps whose launches all fail are skipped a whole decision cycle
    at a time, with results and events identical to the oracle."""

    CONFIG = ReplayConfig(n_tar=4, cold_start=120.0)

    #: ``select_spot_zone`` calls on the hybrid engine, independent of
    #: the shortage window's length.
    HYBRID_SELECTIONS = {
        "ASG": 18,
        "AWSSpot": 22,
        "EvenSpread": 20,
        "RoundRobin": 20,
        "SpotHedge": 36,
    }

    def run(self, trace, name, engine):
        sink = RingBufferSink(capacity=1_000_000)
        policy = SHORTAGE_POLICIES[name](SHORTAGE_ZONES)
        calls = count_selections(policy)
        result = TraceReplayer(
            trace, self.CONFIG, seed=7, engine=engine, telemetry=EventBus([sink])
        ).run(policy)
        return result, sink.events, calls[0]

    @pytest.mark.parametrize("name", sorted(SHORTAGE_POLICIES))
    def test_matches_discrete(self, name):
        trace = shortage_trace(10_000)
        ref, ref_events, _ = self.run(trace, name, "discrete")
        assert ref.launch_failures > 10_000
        engines = ["hybrid"] if name == "Opaque" else ["hybrid", "vectorized"]
        for engine in engines:
            got, events, _ = self.run(trace, engine=engine, name=name)
            assert_identical(ref, got)
            assert events == ref_events

    @pytest.mark.parametrize("name", sorted(HYBRID_SELECTIONS))
    def test_work_does_not_grow_with_the_window(self, name):
        for window in (10_000, 20_000):
            _, _, calls = self.run(shortage_trace(window), name, "hybrid")
            assert calls == self.HYBRID_SELECTIONS[name]
        # The oracle asks once per zone per shortage step.
        _, _, calls = self.run(shortage_trace(10_000), name, "discrete")
        assert calls > 3 * 10_000

    def test_unknown_state_is_stepped(self):
        # decision_state() is None: the engine cannot prove a cycle, so
        # it consults the policy at every shortage step.
        short = self.run(shortage_trace(10_000), "Opaque", "hybrid")[2]
        long = self.run(shortage_trace(20_000), "Opaque", "hybrid")[2]
        assert long - short == 4 * 10_000

    def test_skip_stops_where_capacity_returns_mid_window(self):
        # A one-step blip in the middle of the window must land on its
        # own step, not inside a skipped cycle.
        trace = shortage_trace(5_000)
        rows = np.asarray(trace.capacity).copy()
        rows[1, 2_517] = 1
        trace = SpotTrace("shortage-blip", SHORTAGE_ZONES, 60.0, rows)
        for name in ("SpotHedge", "RoundRobin", "AWSSpot"):
            ref, ref_events, _ = self.run(trace, name, "discrete")
            got, events, _ = self.run(trace, name, "hybrid")
            assert_identical(ref, got)
            assert events == ref_events


class TestCapacityWeights:
    """Capacity weights run on every engine: skipped steps repeat the
    last processed step's effective capacity."""

    WEIGHTS = {Z1: 2.0, Z2: 0.5}

    def test_weighted_engines_match_discrete(self):
        # Ample capacity, a long shortage (3 slots for a target of 4)
        # and a recovery: quiescent windows and stuck cycles both skip.
        rows = [[6] * 100 + [1] * 2_000 + [6] * 100 for _ in ZONES]
        trace = trace_with(rows)
        config = ReplayConfig(
            n_tar=4, cold_start=120.0, zone_capacity_weights=self.WEIGHTS
        )
        policy = _CountingSpotHedge(ZONES, trace.step)
        ref = TraceReplayer(trace, config, seed=3).run(policy)
        assert len(policy.consulted_steps) == trace.n_steps
        assert ref.eff_ready_series is not None
        assert ref.launch_failures > 2_000
        for engine in ("hybrid", "vectorized"):
            policy = _CountingSpotHedge(ZONES, trace.step)
            got = TraceReplayer(trace, config, seed=3, engine=engine).run(policy)
            assert_identical(ref, got)
            assert len(policy.consulted_steps) < trace.n_steps / 20

    @pytest.mark.parametrize("base", [aws1, aws2])
    def test_hetero_spothedge_hybrid_matches_discrete(self, base):
        from repro.cloud import PriceBook, hetero_catalog, make_hetero_trace
        from repro.cloud.gpus import (
            pool_capacity_weights,
            pool_price_multipliers,
            pool_spot_costs,
        )
        from repro.core import hetero_spothedge

        catalog = hetero_catalog()
        book = PriceBook(catalog)
        window = base()
        window = window.window(0.0, 12 * 3600.0, name=window.name)
        trace = make_hetero_trace(window, ["g5.48xlarge", "p4d.24xlarge"], catalog)
        pools = list(trace.zone_ids)
        reference = catalog.get("g5.48xlarge")
        config = ReplayConfig(
            n_tar=4,
            k=reference.on_demand_hourly / reference.spot_hourly,
            zone_price_multipliers=pool_price_multipliers(
                pools, book, reference_price=reference.spot_hourly
            ),
            zone_capacity_weights=pool_capacity_weights(pools, catalog),
        )

        def run(engine):
            policy = hetero_spothedge(
                pools,
                pool_costs=pool_spot_costs(pools, book),
                pool_weights=config.zone_capacity_weights,
            )
            return TraceReplayer(trace, config, seed=2, engine=engine).run(policy)

        ref = run("discrete")
        assert ref.eff_ready_series is not None
        assert_identical(ref, run("hybrid"))
