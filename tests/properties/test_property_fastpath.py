"""Property tests: discrete ↔ vectorized ↔ hybrid engine equivalence.

Every engine runs the one replay step loop; ``discrete`` processes
every step and is the reference.  The skipping engines must reproduce
every :class:`ReplayResult` field byte-for-byte — including the float
cost accumulators, the capacity-weighted ``eff_*`` fields and the
RNG-driven preemption counts — over random traces, policies, seeds,
capacity weights and chaos overlays, so these tests check exactly the
skip rule.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.baselines import MArkPolicy
from repro.cloud import SpotTrace
from repro.core import (
    OnDemandOnlyPolicy,
    even_spread_policy,
    round_robin_policy,
    spothedge,
)
from repro.experiments import ReplayConfig, TraceReplayer

ZONES = ["aws:r1:a", "aws:r1:b", "aws:r2:a"]


@st.composite
def traces(draw):
    n_steps = draw(st.integers(min_value=10, max_value=60))
    capacity = draw(
        st.lists(
            st.lists(st.integers(0, 8), min_size=n_steps, max_size=n_steps),
            min_size=len(ZONES),
            max_size=len(ZONES),
        )
    )
    return SpotTrace("prop", ZONES, 60.0, np.asarray(capacity))


@st.composite
def quiet_traces(draw):
    """Piecewise-constant high-capacity traces with a few dips — the
    regime where the hybrid engine actually fast-forwards."""
    n_segments = draw(st.integers(min_value=2, max_value=5))
    seg_len = draw(st.integers(min_value=5, max_value=20))
    rows = []
    for _ in ZONES:
        segs = draw(
            st.lists(
                st.integers(0, 8), min_size=n_segments, max_size=n_segments
            )
        )
        rows.append([c for c in segs for _ in range(seg_len)])
    return SpotTrace("prop-quiet", ZONES, 60.0, np.asarray(rows))


@st.composite
def shortage_traces(draw):
    """A random lead-in, then a long window whose total capacity stays
    below the spot target (with a few one-step blips), then a random
    tail — the regime where the hybrid engine skips decision cycles.
    Returns ``(trace, n_tar)``."""
    n_tar = draw(st.integers(1, 6))
    window = draw(st.integers(min_value=50, max_value=1500))
    lead = draw(st.integers(min_value=0, max_value=20))
    tail = draw(st.integers(min_value=0, max_value=20))
    # Per-zone shortage levels summing to less than n_tar.
    levels = [0] * len(ZONES)
    budget = n_tar - 1
    for i in range(len(ZONES)):
        levels[i] = draw(st.integers(0, budget))
        budget -= levels[i]
    rows = []
    for level in levels:
        head = draw(st.lists(st.integers(0, 8), min_size=lead, max_size=lead))
        end = draw(st.lists(st.integers(0, 8), min_size=tail, max_size=tail))
        rows.append(head + [level] * window + end)
    blips = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(ZONES) - 1),
                st.integers(0, window - 1),
                st.integers(0, 8),
            ),
            max_size=4,
        )
    )
    for zone, at, cap in blips:
        rows[zone][lead + at] = cap
    return SpotTrace("prop-shortage", ZONES, 60.0, np.asarray(rows)), n_tar


@st.composite
def piecewise_overlays(draw, trace):
    """Chaos factor rows that are piecewise constant, so they stay
    cheap to draw on long traces."""
    n = trace.n_steps

    def row(lo, hi):
        cuts = sorted(draw(st.lists(st.integers(1, n - 1), max_size=3)))
        values = draw(
            st.lists(st.floats(lo, hi), min_size=len(cuts) + 1, max_size=len(cuts) + 1)
        )
        out = []
        for value, start, stop in zip(values, [0] + cuts, cuts + [n]):
            out.extend([value] * (stop - start))
        return out

    cold = row(0.25, 4.0) if draw(st.booleans()) else None
    prices = None
    if draw(st.booleans()):
        prices = {ZONES[0]: row(0.5, 3.0), ZONES[2]: row(0.5, 3.0)}
    return cold, prices


policy_factories = st.sampled_from(
    [spothedge, even_spread_policy, round_robin_policy, OnDemandOnlyPolicy]
)

#: Optional capacity weights for two of the zones (the third weighs
#: 1.0): skipped steps must repeat the effective capacity exactly.
capacity_weights = st.one_of(
    st.none(),
    st.fixed_dictionaries(
        {ZONES[0]: st.floats(0.25, 4.0), ZONES[2]: st.floats(0.25, 4.0)}
    ),
)


def assert_identical(ref, got):
    assert got.policy == ref.policy
    assert got.availability == ref.availability
    assert got.relative_cost == ref.relative_cost
    assert got.spot_cost == ref.spot_cost
    assert got.od_cost == ref.od_cost
    assert got.preemptions == ref.preemptions
    assert got.launch_failures == ref.launch_failures
    np.testing.assert_array_equal(got.ready_series, ref.ready_series)
    np.testing.assert_array_equal(got.od_series, ref.od_series)
    assert got.eff_availability == ref.eff_availability
    if ref.eff_ready_series is None:
        assert got.eff_ready_series is None
    else:
        np.testing.assert_array_equal(got.eff_ready_series, ref.eff_ready_series)


@given(
    traces(), policy_factories, st.integers(1, 6), st.integers(0, 5), capacity_weights
)
@settings(max_examples=60, deadline=None)
def test_engines_byte_identical_random_traces(trace, factory, n_tar, seed, weights):
    config = ReplayConfig(
        n_tar=n_tar, k=3.0, cold_start=120.0, zone_capacity_weights=weights
    )
    ref = TraceReplayer(trace, config, seed=seed).run(factory(ZONES))
    for engine in ("vectorized", "hybrid"):
        got = TraceReplayer(trace, config, seed=seed, engine=engine).run(
            factory(ZONES)
        )
        assert_identical(ref, got)


@given(
    quiet_traces(), policy_factories, st.integers(1, 6), st.integers(0, 3), capacity_weights
)
@settings(max_examples=40, deadline=None)
def test_engines_byte_identical_quiet_traces(trace, factory, n_tar, seed, weights):
    # Quiet piecewise-constant traces exercise the fluid fast-forward
    # (window boundaries at capacity crossings) rather than per-step
    # churn; results must still match bit for bit.
    config = ReplayConfig(
        n_tar=n_tar, k=3.0, cold_start=180.0, zone_capacity_weights=weights
    )
    ref = TraceReplayer(trace, config, seed=seed).run(factory(ZONES))
    for engine in ("vectorized", "hybrid"):
        got = TraceReplayer(trace, config, seed=seed, engine=engine).run(
            factory(ZONES)
        )
        assert_identical(ref, got)


@given(
    quiet_traces(),
    st.floats(min_value=0.0, max_value=600.0),
    st.integers(1, 5),
)
@settings(max_examples=30, deadline=None)
def test_engines_byte_identical_cold_start_sweep(trace, cold_start, n_tar):
    # Cold starts that are non-multiples of the step stress the
    # ready-step bucketing against the oracle's float comparison.
    config = ReplayConfig(n_tar=n_tar, cold_start=cold_start)
    ref = TraceReplayer(trace, config, seed=2).run(spothedge(ZONES))
    for engine in ("vectorized", "hybrid"):
        got = TraceReplayer(trace, config, seed=2, engine=engine).run(
            spothedge(ZONES)
        )
        assert_identical(ref, got)


@st.composite
def chaos_overlays(draw, trace):
    """Random per-step cold-start factors and per-zone price rows —
    the shape the chaos overlay compiler hands to the replayer."""
    n = trace.n_steps
    cold = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.floats(min_value=0.25, max_value=4.0),
                min_size=n,
                max_size=n,
            ),
        )
    )
    prices = draw(
        st.one_of(
            st.none(),
            st.fixed_dictionaries(
                {
                    ZONES[0]: st.lists(
                        st.floats(min_value=0.5, max_value=3.0),
                        min_size=n,
                        max_size=n,
                    ),
                    ZONES[2]: st.lists(
                        st.floats(min_value=0.5, max_value=3.0),
                        min_size=n,
                        max_size=n,
                    ),
                }
            ),
        )
    )
    return cold, prices


@given(st.data(), policy_factories, st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_engines_byte_identical_chaos_overlays(data, factory, n_tar):
    trace = data.draw(traces())
    cold, prices = data.draw(chaos_overlays(trace))
    config = ReplayConfig(
        n_tar=n_tar, zone_price_multipliers={ZONES[1]: 1.4}
    )
    kwargs = dict(cold_start_factors=cold, zone_price_factors=prices)
    ref = TraceReplayer(trace, config, seed=1, **kwargs).run(factory(ZONES))
    for engine in ("vectorized", "hybrid"):
        got = TraceReplayer(
            trace, config, seed=1, engine=engine, **kwargs
        ).run(factory(ZONES))
        assert_identical(ref, got)


@given(traces(), st.integers(1, 5), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_hybrid_matches_oracle_for_nonstationary_policy(trace, n_tar, seed):
    # MArk keeps a time-keyed prediction history (not stationary): the
    # hybrid engine must degrade to per-step processing and still agree.
    # MArk is single-region, so remap the trace onto one region's zones.
    one_region = ["aws:r1:a", "aws:r1:b", "aws:r1:c"]
    trace = SpotTrace(trace.name, one_region, trace.step, trace.capacity)
    config = ReplayConfig(n_tar=n_tar)
    ref = TraceReplayer(trace, config, seed=seed).run(MArkPolicy(one_region))
    got = TraceReplayer(trace, config, seed=seed, engine="hybrid").run(
        MArkPolicy(one_region)
    )
    assert_identical(ref, got)


@given(traces(), policy_factories, st.integers(1, 5))
@settings(max_examples=30, deadline=None)
def test_rng_stream_consumption_identical(trace, factory, n_tar):
    # Same stream position after the run ⇒ the engines drew the same
    # victim-sampling batches in the same order.
    config = ReplayConfig(n_tar=n_tar)
    ref = TraceReplayer(trace, config, seed=4)
    ref.run(factory(ZONES))
    for engine in ("vectorized", "hybrid"):
        fast = TraceReplayer(trace, config, seed=4, engine=engine)
        fast.run(factory(ZONES))
        assert ref._rng.bit_generator.state == fast._rng.bit_generator.state


@given(st.data(), policy_factories, st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_engines_byte_identical_shortage_windows(data, factory, seed):
    # Long windows with total capacity below the spot target: every
    # step runs the launch loop and fails, so the hybrid engine skips
    # whole decision cycles.  With and without chaos overlays.
    trace, n_tar = data.draw(shortage_traces())
    cold, prices = data.draw(piecewise_overlays(trace))
    weights = data.draw(capacity_weights)
    config = ReplayConfig(n_tar=n_tar, cold_start=120.0, zone_capacity_weights=weights)
    kwargs = dict(cold_start_factors=cold, zone_price_factors=prices)
    ref = TraceReplayer(trace, config, seed=seed, **kwargs).run(factory(ZONES))
    for engine in ("vectorized", "hybrid"):
        got = TraceReplayer(
            trace, config, seed=seed, engine=engine, **kwargs
        ).run(factory(ZONES))
        assert_identical(ref, got)
