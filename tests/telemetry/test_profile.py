"""Unit tests for the zero-overhead-when-disabled phase profiler."""

import pytest

from repro.telemetry import (
    NULL_PROFILER,
    EventBus,
    PhaseProfiler,
    RingBufferSink,
)
from repro.telemetry.profile import profiler_or_null


class TestPhaseProfiler:
    def test_accumulate_aggregates(self):
        prof = PhaseProfiler()
        prof.accumulate("a", 0.5)
        prof.accumulate("a", 1.5)
        prof.accumulate("b", 0.25)
        stats = prof.stats()
        assert list(stats) == ["a", "b"]  # sorted
        assert stats["a"].calls == 2
        assert stats["a"].total_s == 2.0
        assert stats["a"].max_s == 1.5
        assert stats["a"].mean_s == 1.0
        assert prof.total_s() == 2.25

    def test_phase_context_manager_times(self):
        prof = PhaseProfiler()
        ticks = iter([1.0, 3.5])
        prof.clock = lambda: next(ticks)
        with prof.phase("work"):
            pass
        assert prof.stats()["work"].total_s == 2.5

    def test_disabled_phase_is_shared_noop(self):
        prof = PhaseProfiler(enabled=False)
        a = prof.phase("a")
        b = prof.phase("b")
        assert a is b  # one shared instance: zero allocations
        with a:
            pass
        assert prof.stats() == {}

    def test_top_orders_by_total_then_name(self):
        prof = PhaseProfiler()
        prof.accumulate("z", 1.0)
        prof.accumulate("a", 1.0)
        prof.accumulate("big", 9.0)
        assert [s.name for s in prof.top(2)] == ["big", "a"]

    def test_merge(self):
        a, b = PhaseProfiler(), PhaseProfiler()
        a.accumulate("x", 1.0)
        b.accumulate("x", 2.0, calls=3)
        b.accumulate("y", 0.5)
        a.merge(b)
        assert a.stats()["x"].calls == 4
        assert a.stats()["x"].total_s == 3.0
        assert a.stats()["x"].max_s == 2.0
        assert "y" in a.stats()

    def test_stride_validation(self):
        with pytest.raises(ValueError):
            PhaseProfiler(stride=0)

    def test_emit_publishes_profile_phase_events(self):
        prof = PhaseProfiler(stride=16)
        prof.accumulate("replay.policy", 1.0, calls=10)
        sink = RingBufferSink()
        prof.emit(EventBus([sink]))
        (event,) = sink.events
        assert event.kind == "profile.phase"
        assert event.phase == "replay.policy"
        assert event.calls == 10
        assert event.sampled is True

    def test_null_profiler_guards_against_unguarded_hot_paths(self):
        assert not NULL_PROFILER.enabled
        with pytest.raises(RuntimeError):
            NULL_PROFILER.accumulate("x", 1.0)

    def test_profiler_or_null(self):
        prof = PhaseProfiler()
        assert profiler_or_null(prof) is prof
        assert profiler_or_null(None) is NULL_PROFILER


class TestReplayIntegration:
    def test_replay_records_all_five_phases(self):
        import numpy as np

        from repro.cloud import SpotTrace
        from repro.core import spothedge
        from repro.experiments import ReplayConfig, TraceReplayer

        zones = ["aws:r1:a", "aws:r1:b"]
        rng = np.random.default_rng(0)
        trace = SpotTrace(
            "t", zones, 60.0, rng.integers(0, 4, size=(2, 256))
        )
        prof = PhaseProfiler()
        replayer = TraceReplayer(trace, ReplayConfig(n_tar=2), profiler=prof)
        replayer.run(spothedge(zones))
        assert set(prof.stats()) == {
            "replay.promote", "replay.preempt", "replay.policy",
            "replay.reconcile", "replay.accrue",
        }
        # Stride-sampled: ~256/stride samples per phase.
        assert prof.stride > 1
        expected = 256 // prof.stride
        for stats in prof.stats().values():
            assert stats.calls == expected

    def test_hybrid_replay_records_phases_and_skip_time(self):
        # Every engine runs the same stride-sampled step loop; the
        # skipping engines add their whole-run and skipped-step time.
        import numpy as np

        from repro.cloud import SpotTrace
        from repro.core import spothedge
        from repro.experiments import ReplayConfig, TraceReplayer

        zones = ["aws:r1:a", "aws:r1:b"]
        trace = SpotTrace("t", zones, 60.0, np.full((2, 256), 4))
        prof = PhaseProfiler()
        replayer = TraceReplayer(
            trace, ReplayConfig(n_tar=2), profiler=prof, engine="hybrid"
        )
        replayer.run(spothedge(zones))
        stats = prof.stats()
        assert set(stats) == {
            "replay.promote", "replay.preempt", "replay.policy",
            "replay.reconcile", "replay.accrue",
            "replay.fastpath", "replay.fastpath.fluid",
        }
        assert stats["replay.fastpath"].calls == 1
        assert stats["replay.fastpath.fluid"].calls == 1
        # Quiet capacity: most steps are skipped, so fewer phase
        # samples than the discrete engine's 256 / stride.
        assert 0 < stats["replay.promote"].calls < 256 // prof.stride

    def test_replay_results_identical_with_and_without_profiler(self):
        import numpy as np

        from repro.cloud import SpotTrace
        from repro.core import spothedge
        from repro.experiments import ReplayConfig, TraceReplayer

        zones = ["aws:r1:a", "aws:r1:b"]
        rng = np.random.default_rng(1)
        trace = SpotTrace(
            "t", zones, 60.0, rng.integers(0, 4, size=(2, 200))
        )

        def run(profiler):
            replayer = TraceReplayer(
                trace, ReplayConfig(n_tar=2), seed=3, profiler=profiler
            )
            return replayer.run(spothedge(zones))

        plain = run(None)
        profiled = run(PhaseProfiler())
        assert plain.availability == profiled.availability
        assert plain.relative_cost == profiled.relative_cost
        assert plain.preemptions == profiled.preemptions
        assert np.array_equal(plain.ready_series, profiled.ready_series)
