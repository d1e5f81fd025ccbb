"""SpotServe baseline (Miao et al.) — preemption-adaptive inference.

SpotServe is *not* a provisioning system: it "does not consider or
implement instance provisioning, placement, or scheduling" (§2.1), so —
exactly as in the paper's §5.1 — it runs *together with* a provisioning
system (SkyServe, ASG, AWSSpot, MArk).  What SpotServe contributes is
inside the replica: when a replica is partitioned over several spot
instances and one is preempted, it re-parallelises the model over the
survivors (after a migration pause) instead of dying, at proportionally
reduced throughput.

Two entry points:

* :func:`spotserve_spec` — a service spec for the §5.1 OPT-6.7B setup:
  multi-worker replicas with adaptive parallelism and a 20 s request
  timeout; combine with any provisioning policy through ``SkyService``.
* :class:`SingleZonePolicy` — the "naively using SpotServe in a single
  zone" deployment of §2.2/§5.1: all spot replicas pinned to one zone
  with no fallback, whose failure rate depends entirely on that zone's
  obtainability (the paper measures 2.0–75.9% depending on region).
"""

from __future__ import annotations

from typing import AbstractSet, Hashable, Optional, Sequence

from repro.serving.policy import MixTarget, Observation, ServingPolicy
from repro.serving.spec import ReplicaPolicyConfig, ResourceSpec, ServiceSpec

__all__ = ["SingleZonePolicy", "spotserve_spec"]


class SingleZonePolicy(ServingPolicy):
    """All spot replicas in one pinned zone; no fallback, no spread."""

    name = "SpotServe-1zone"
    # Pinned single zone, static target — trivially stationary.
    stationary_decisions = True

    def __init__(self, zone: str) -> None:
        self.zone = zone

    def target_mix(self, obs: Observation) -> MixTarget:
        return MixTarget(spot_target=obs.n_tar, od_target=0)

    def decision_state(self) -> Optional[Hashable]:
        return ()

    def select_spot_zone(
        self, obs: Observation, excluded: AbstractSet[str] = frozenset()
    ) -> Optional[str]:
        if self.zone in excluded:
            return None
        return self.zone


def spotserve_spec(
    *,
    name: str = "opt-6.7b-spotserve",
    workers_per_replica: int = 1,
    fixed_target: Optional[int] = None,
    target_qps_per_replica: float = 1.0,
    num_overprovision: int = 2,
    accelerator: str = "T4",
    any_of: Sequence = (),
) -> ServiceSpec:
    """Service spec matching the paper's SpotServe experiment (OPT-6.7B
    on 4×T4 g4dn.12xlarge replicas, 20 s request timeout)."""
    return ServiceSpec(
        name=name,
        replica_policy=ReplicaPolicyConfig(
            target_qps_per_replica=target_qps_per_replica,
            fixed_target=fixed_target,
            num_overprovision=num_overprovision,
        ),
        resources=ResourceSpec(
            accelerator=accelerator,
            any_of=tuple(any_of),
            workers_per_replica=workers_per_replica,
        ),
        request_timeout=20.0,
    )
