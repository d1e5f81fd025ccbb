"""Byte-identical fixtures for the request-level harness.

Two recorded runs pin every simulated number the client's retry path can
reach: a QPS-autoscaled MArk run whose autoscaler samples expose each
routed attempt counted in the request-rate window, and a smoke-sized
§5.1 comparison of all four systems.  Re-record (only when a change is
*meant* to move simulated results) with::

    PYTHONPATH=src python tests/experiments/test_exactness_fixtures.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.cloud import HOUR
from repro.experiments import e2e_trace, run_comparison, run_system, standard_policies
from repro.experiments.endtoend import SINGLE_REGION
from repro.experiments.results import service_report_to_dict
from repro.serving import DomainFilter, ReplicaPolicyConfig, ResourceSpec, ServiceSpec
from repro.telemetry.events import AutoscaleDecision, AutoscalerSample, EventBus
from repro.telemetry.sinks import RingBufferSink
from repro.workloads import arena_workload

DATA = Path(__file__).resolve().parents[1] / "data"
MARK_FIXTURE = DATA / "autoscaled_mark_events.json"
COMPARE_FIXTURE = DATA / "compare_volatile_smoke.json"


def _report(report: Any) -> dict[str, Any]:
    payload = service_report_to_dict(report)
    payload["latency_samples"] = list(report.latency_samples)
    return payload


def autoscaled_mark_payload() -> dict[str, Any]:
    duration = 1800.0
    trace = e2e_trace("volatile", seed=3, duration=duration)
    workload = arena_workload(duration, base_rate=1.2, burst_multiplier=3.0, seed=3)
    cloud, region = SINGLE_REGION.split(":")
    spec = ServiceSpec(
        name="auto-MArk",
        replica_policy=ReplicaPolicyConfig(
            target_qps_per_replica=0.3, min_replicas=1, max_replicas=8
        ),
        resources=ResourceSpec(
            accelerator="A10G", any_of=(DomainFilter(cloud=cloud, region=region),)
        ),
        request_timeout=100.0,
    )
    sink = RingBufferSink()
    result = run_system(
        standard_policies(trace)["MArk"],
        trace,
        workload,
        duration,
        spec=spec,
        seed=3,
        telemetry=EventBus([sink]),
    )
    payload = _report(result.report)
    payload["autoscaler_samples"] = [
        [e.time, e.request_rate] for e in sink.events if isinstance(e, AutoscalerSample)
    ]
    payload["autoscale_decisions"] = [
        [e.time, e.old_target, e.new_target, e.request_rate]
        for e in sink.events
        if isinstance(e, AutoscaleDecision)
    ]
    return payload


def compare_volatile_payload() -> dict[str, Any]:
    duration = 0.25 * HOUR
    workload = arena_workload(duration, base_rate=1.2, burst_multiplier=3.0, seed=3)
    results = run_comparison("volatile", workload, duration, seed=3)
    return {name: _report(result.report) for name, result in results.items()}


def test_autoscaled_mark_matches_fixture() -> None:
    payload = autoscaled_mark_payload()
    assert payload["autoscaler_samples"], "telemetry recorded no autoscaler samples"
    assert payload == json.loads(MARK_FIXTURE.read_text())


def test_compare_volatile_smoke_matches_fixture() -> None:
    assert compare_volatile_payload() == json.loads(COMPARE_FIXTURE.read_text())


if __name__ == "__main__":
    MARK_FIXTURE.write_text(json.dumps(autoscaled_mark_payload(), indent=1) + "\n")
    COMPARE_FIXTURE.write_text(json.dumps(compare_volatile_payload(), indent=1) + "\n")
