"""Tests for multi-service fleets sharing one cloud (repro.control.ControlPlane)."""

import numpy as np
import pytest

from repro.cloud import HOUR, SpotTrace
from repro.control import ControlPlane, DeploymentSpec, TenantSpec
from repro.serving import DomainFilter, ReplicaPolicyConfig, ResourceSpec, ServiceSpec

ZONES = ["aws:us-west-2:us-west-2a", "aws:us-west-2:us-west-2b"]


def make_tenant(name, target=2, **kwargs):
    kwargs.setdefault("workload", "poisson")
    kwargs.setdefault("rate", 0.2)
    service = ServiceSpec(
        name=name,
        replica_policy=ReplicaPolicyConfig(fixed_target=target, num_overprovision=0),
        resources=ResourceSpec(any_of=(DomainFilter(cloud="aws", region="us-west-2"),)),
    )
    return TenantSpec(service, **kwargs)


def make_fleet(tenants, cap, seed, hours=2, admission="fair_share"):
    trace = SpotTrace("fleet", ZONES, 60.0, np.full((2, int(hours * 60)), cap))
    dep = DeploymentSpec(
        name="fleet", tenants=tuple(tenants), admission=admission, hours=hours
    )
    return ControlPlane(dep, trace, seed=seed)


class TestFleetBasics:
    def test_two_services_serve_independently(self):
        plane = make_fleet([make_tenant("chat"), make_tenant("rag")], cap=8, seed=1)
        fleet = plane.run()
        assert {r.tenant for r in fleet.tenants} == {"chat", "rag"}
        for report in fleet.tenants:
            assert report.total_requests > 0
            assert report.failure_rate < 0.05
            assert report.availability > 0.9

    def test_shared_bill_covers_both_services(self):
        plane = make_fleet([make_tenant("a"), make_tenant("b")], cap=8, seed=2)
        fleet = plane.run(HOUR)
        assert fleet.fleet_total_cost > 0
        for report in fleet.tenants:
            assert report.spot_cost > 0
        # Four spot replicas (2 per service) on the one shared bill.
        instances = plane.cloud.billing.instances
        assert len([i for i in instances if i.spot]) >= 4

    def test_status_lists_every_service(self):
        plane = make_fleet([make_tenant("solo")], cap=8, seed=3)
        plane.run(HOUR)
        status = plane.status()
        assert "solo" in status
        assert status["solo"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            make_fleet([make_tenant("x"), make_tenant("x")], cap=8, seed=0)

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            make_fleet([], cap=8, seed=0)


class TestCapacityContention:
    def test_services_compete_for_scarce_capacity(self):
        """Total capacity 3/zone; two services each wanting 4 replicas
        cannot both be satisfied — the shared market is the constraint."""
        tenants = [make_tenant("first", target=4, priority=1),
                   make_tenant("second", target=4)]
        for admission in ("fair_share", "strict_priority"):
            plane = make_fleet(tenants, cap=3, seed=4, admission=admission)
            plane.run()
            observed = [c.observe() for c in plane.controllers.values()]
            spot_ready = sum(o.spot_ready for o in observed)
            # 6 spot slots total; 8 wanted: the sum is capacity-bound.
            assert spot_ready <= 6, admission
            # On-demand fallback covers the shortfall for both services.
            assert spot_ready + sum(o.od_ready for o in observed) >= 7, admission

    def test_contention_harms_no_one_with_fallback(self):
        tenants = [make_tenant("a", target=3), make_tenant("b", target=3)]
        fleet = make_fleet(tenants, cap=2, seed=5).run()
        for report in fleet.tenants:
            assert report.failure_rate < 0.1, report.tenant
