"""Unit/integration tests for the service controller."""

import numpy as np
import pytest

from repro.cloud import CloudConfig, SimCloud, SpotTrace
from repro.core import spothedge
from repro.serving import (
    DomainFilter,
    ModelProfile,
    ReplicaPolicyConfig,
    ResourceSpec,
    ServiceController,
    ServiceSpec,
)
from repro.sim import SimulationEngine

ZONES = [
    "aws:us-west-2:us-west-2a",
    "aws:us-west-2:us-west-2b",
    "aws:us-west-2:us-west-2c",
]


def build(capacity_rows, *, policy=None, spec=None, steps=120, step=60.0):
    engine = SimulationEngine()
    capacity = np.asarray(capacity_rows)
    assert capacity.shape[0] == len(ZONES)
    trace = SpotTrace("ctl", ZONES, step, capacity)
    cloud = SimCloud(
        engine,
        trace,
        config=CloudConfig(provision_delay_mean=60.0, setup_delay_mean=120.0, delay_jitter=0.0),
    )
    spec = spec or ServiceSpec(
        replica_policy=ReplicaPolicyConfig(fixed_target=2, num_overprovision=1),
        resources=ResourceSpec(
            accelerator="V100",
            any_of=(DomainFilter(cloud="aws", region="us-west-2"),),
        ),
    )
    policy = policy or spothedge(ZONES, num_overprovision=1)
    profile = ModelProfile("m", overhead=1.0, prefill_per_token=0.0,
                           decode_per_token=0.0, max_concurrency=8)
    controller = ServiceController(engine, cloud, spec, policy, profile)
    return engine, cloud, controller


def full_capacity(steps=120):
    return [[4] * steps for _ in ZONES]


class TestReconciliation:
    def test_launches_target_plus_overprovision_spot(self):
        engine, cloud, controller = build(full_capacity())
        controller.start()
        engine.run_until(600.0)
        obs = controller.observe()
        assert obs.spot_ready == 3  # fixed_target 2 + overprovision 1
        assert obs.od_ready == 0  # fallback scaled down once spot is up

    def test_ondemand_fallback_while_spot_cold(self):
        engine, cloud, controller = build(full_capacity())
        controller.start()
        engine.run_until(30.0)  # spot still provisioning
        obs = controller.observe()
        assert obs.od_launched == 2  # min(n_tar, target+extra-ready) = 2

    def test_spot_spread_across_zones(self):
        engine, cloud, controller = build(full_capacity())
        controller.start()
        engine.run_until(600.0)
        obs = controller.observe()
        # Dynamic placement prefers unused zones: 3 replicas in 3 zones.
        assert len(obs.spot_by_zone) == 3

    def test_preemption_triggers_replacement(self):
        rows = full_capacity()
        # Zone a loses capacity at step 20 (t=1200) and stays down.
        rows[0] = [4] * 20 + [0] * 100
        engine, cloud, controller = build(rows)
        controller.start()
        engine.run_until(3000.0)
        obs = controller.observe()
        assert obs.spot_ready == 3
        assert "aws:us-west-2:us-west-2a" not in obs.spot_by_zone
        assert controller.preemption_count.value >= 1

    def test_total_blackout_falls_back_to_ondemand(self):
        rows = [[4] * 10 + [0] * 110 for _ in ZONES]
        engine, cloud, controller = build(rows)
        controller.start()
        engine.run_until(3000.0)
        obs = controller.observe()
        assert obs.spot_ready == 0
        assert obs.od_ready == 2  # capped at N_Tar

    def test_ondemand_scaled_down_when_spot_returns(self):
        rows = [[0] * 20 + [4] * 100 for _ in ZONES]
        engine, cloud, controller = build(rows)
        controller.start()
        engine.run_until(4000.0)
        obs = controller.observe()
        assert obs.spot_ready == 3
        assert obs.od_launched == 0

    def test_start_twice_rejected(self):
        engine, cloud, controller = build(full_capacity())
        controller.start()
        with pytest.raises(RuntimeError):
            controller.start()


class TestReadySet:
    def test_ready_list_tracks_every_state_change(self):
        """The incrementally kept ready list equals a fresh scan of the
        fleet after every event of a run with preemptions, launch
        failures, probes and scale-down drains."""
        from repro.serving import ServiceClient
        from repro.workloads import poisson_workload

        rng = np.random.default_rng(8)
        rows = (rng.random((len(ZONES), 120)) < 0.7).astype(int) * 3
        spec = ServiceSpec(
            replica_policy=ReplicaPolicyConfig(
                target_qps_per_replica=0.2, min_replicas=1, max_replicas=6,
                upscale_delay=60.0, downscale_delay=120.0,
            ),
            resources=ResourceSpec(
                accelerator="V100", any_of=(DomainFilter(cloud="aws", region="us-west-2"),)
            ),
        )
        engine, cloud, controller = build(rows, spec=spec)
        controller.probe_interval = 30.0
        ServiceClient(controller, poisson_workload(7200.0, rate=0.6, seed=8)).start()
        controller.start()
        drained = []
        while engine.step() and engine.now < 7200.0:
            scan = [r for r in controller.replicas if r.is_ready and not r.draining]
            assert controller.ready_replicas() == scan
            drained += [r.id for r in controller.replicas if r.draining]
        assert controller.preemption_count.value > 0
        assert drained


class TestMetricsSeries:
    def test_ready_series_recorded(self):
        engine, cloud, controller = build(full_capacity())
        controller.start()
        engine.run_until(1000.0)
        assert controller.ready_total_series.value_at(900.0) == 3
        assert controller.n_tar_series.value_at(900.0) == 2

    def test_availability_window(self):
        engine, cloud, controller = build(full_capacity())
        controller.start()
        engine.run_until(2000.0)
        # Cold start eats the first ~3 minutes; after that it holds.
        assert controller.availability(0.0, 2000.0, n_tar=2) > 0.8
        assert controller.availability(500.0, 2000.0, n_tar=2) == pytest.approx(1.0)


class TestZoneResolution:
    def test_accelerator_unavailable_anywhere_rejected(self):
        spec = ServiceSpec(resources=ResourceSpec(accelerator="H100"))
        with pytest.raises(ValueError):
            build(full_capacity(), spec=spec)

    def test_spec_restricts_spot_zones(self):
        spec = ServiceSpec(
            replica_policy=ReplicaPolicyConfig(fixed_target=2),
            resources=ResourceSpec(
                accelerator="V100",
                any_of=(
                    DomainFilter(
                        cloud="aws", region="us-west-2", zone="us-west-2a"
                    ),
                ),
            ),
        )
        engine, cloud, controller = build(full_capacity(), spec=spec)
        assert controller.spot_zones == ["aws:us-west-2:us-west-2a"]

    def test_instance_type_is_cheapest_for_accelerator(self):
        engine, cloud, controller = build(full_capacity())
        itype = controller._zone_itype[ZONES[0]]
        # p3.2xlarge is the cheapest V100 carrier on AWS in the catalog.
        assert itype == "p3.2xlarge"
