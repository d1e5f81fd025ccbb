"""The benchmark's four workloads.

Each workload wraps one public ``repro`` entry point, called with
``workers=1`` in this process:

* ``compare-volatile`` — ``run_comparison`` (§5.1, Fig. 9/13), four
  systems serving the same arena trace on the volatile spot scenario;
* ``serve-three-tenants`` — ``ControlPlane.run`` on the bundled
  three-tenant deployment for 24 simulated hours;
* ``chaos-matrix`` — ``run_matrix`` on the hybrid array engine, every
  bundled chaos scenario × four policies (§5.2 replay + chaos);
* ``hetero-frontier`` — ``run_frontier``, the five bundled fleets on the
  discrete reference engine with capacity weights.

A workload object owns its inputs (built in :meth:`Workload.setup`, from
the seed), calls the entry point (:meth:`Workload.call`, the timed part)
and reduces a result to an :class:`Outcome`: the output checks, a
canonical digest of every simulated number, the simulated end-to-end
metrics and the amount of simulated work.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Optional

HOUR = 3600.0


@dataclass
class Outcome:
    """One entry-point call, reduced to what the benchmark reports."""

    #: Simulated runs in the call: systems, tenants, cells or fleets.
    operations: int
    #: Operations among ``operations`` whose own output check failed.
    failed_ops: int
    #: Output-check failures, one line each (empty when all pass).
    errors: list[str]
    #: Simulated requests the call served (0 for replay workloads).
    requests: int
    #: Trace steps simulated, summed over operations.
    steps: int
    #: SHA-256 over the canonical form of every simulated output.
    digest: str
    #: Simulated end-to-end metrics (exact for a given seed).
    sim: dict[str, float]


def _digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def import_repro() -> None:
    """Import every module the workloads and the tracer reach,
    including the lazily imported ones (chaos overlay and injector,
    the array engine, scipy via the omniscient solver), so no timed call
    pays for an import."""
    import repro.baselines  # noqa: F401
    import repro.chaos.harness  # noqa: F401
    import repro.chaos.injector  # noqa: F401
    import repro.chaos.overlay  # noqa: F401
    import repro.control.plane  # noqa: F401
    import repro.core.fleet  # noqa: F401
    import repro.core.omniscient  # noqa: F401
    import repro.experiments.endtoend  # noqa: F401
    import repro.experiments.fastpath  # noqa: F401
    import repro.experiments.hetero  # noqa: F401
    import repro.experiments.results  # noqa: F401


def _percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def _od_hourly(accelerator: str) -> float:
    """Hourly on-demand price of the cheapest type carrying
    ``accelerator`` — the all-on-demand fleet ``cost_vs_od`` divides by."""
    from repro.cloud import default_catalog

    return min(t.on_demand_hourly for t in default_catalog().with_accelerator(accelerator))


class Workload:
    """Base class: inputs, the timed call and the reduction."""

    name = ""
    #: Whether the workload serves simulated requests.
    serves_requests = False

    def __init__(self, root: Path, seed: int, *, smoke: bool = False) -> None:
        self.root = root
        self.seed = seed
        self.smoke = smoke

    def setup(self) -> dict[str, float]:
        """Import ``repro`` and build the inputs; returns the seconds
        spent on each part."""
        start = time.perf_counter()
        import_repro()
        imported = time.perf_counter()
        self.build_trace()
        traced = time.perf_counter()
        self.build_workload()
        done = time.perf_counter()
        return {
            "import_s": imported - start,
            "trace_s": traced - imported,
            "workload_s": done - traced,
        }

    def build_trace(self) -> None:
        """Build the capacity trace the call replays, when it is an input."""

    def build_workload(self) -> None:
        """Build the remaining inputs."""

    def call(self) -> Any:
        raise NotImplementedError

    def outcome(self, result: Any) -> Outcome:
        raise NotImplementedError

    def oracle(self, result: Any) -> list[str]:
        """Extra correctness checks on one call's ``result``, run once
        per benchmark run outside the timed calls."""
        return []

    @property
    def key(self) -> str:
        """Identifies the inputs: workload, seed and size."""
        return f"{self.name}-seed{self.seed}" + ("-smoke" if self.smoke else "")


# ----------------------------------------------------------------------
# Request-level workloads
# ----------------------------------------------------------------------


def _request_checks(label: str, total: int, completed: int, failed: int,
                    latencies: list[float], timeout: float) -> list[str]:
    errors = []
    if completed + failed > total:
        errors.append(f"{label}: {completed} completed + {failed} failed > {total} sent")
    late = [x for x in latencies if not 0.0 <= x <= timeout]
    if late:
        errors.append(f"{label}: {len(late)} latencies outside [0, {timeout}] s")
    return errors


def _e2e_step() -> float:
    """Step of the trace ``run_comparison`` builds inside the call:
    ``e2e_trace`` keeps ``make_correlated_trace``'s default step."""
    import inspect

    from repro.cloud.traces import make_correlated_trace

    return float(inspect.signature(make_correlated_trace).parameters["step"].default)


class CompareVolatile(Workload):
    """§5.1 comparison of SkyServe, ASG, AWSSpot and MArk on the volatile
    scenario.

    The scenario is the default one (trace and simulation seed 3, arena
    workload seed 3, 2 h, base rate 1.2/s, burst multiplier 3).  The
    benchmark seed shifts every arrival by a seeded uniform offset in
    ``[0, 2)`` s — one client retry interval — so each seed replays a
    different event interleaving of the same scenario.  A different
    arena seed moves the burst against the outage windows and changes
    SkyServe's failure rate several-fold (3.9%–32% over seeds 11–18),
    which one 2 h window cannot average out.
    """

    name = "compare-volatile"
    serves_requests = True
    SCENARIO_SEED = 3
    TIMEOUT = 100.0
    N_TAR = 4

    @property
    def duration(self) -> float:
        return 0.25 * HOUR if self.smoke else 2 * HOUR

    def build_workload(self) -> None:
        import numpy as np

        from repro.workloads import arena_workload
        from repro.workloads.request import Request, Workload as Requests

        base = arena_workload(self.duration, base_rate=1.2, burst_multiplier=3.0,
                              seed=self.SCENARIO_SEED)
        shift = np.random.default_rng(self.seed).uniform(0.0, 2.0, len(base))
        shifted = sorted(zip((r.arrival_time + float(s) for r, s in zip(base, shift)), base),
                         key=lambda pair: pair[0])
        self.workload = Requests(base.name, [
            Request(r.request_id, t, r.input_tokens, r.output_tokens) for t, r in shifted
        ])

    def call(self) -> Any:
        from repro.experiments.endtoend import run_comparison

        return run_comparison("volatile", self.workload, self.duration,
                              seed=self.SCENARIO_SEED, request_timeout=self.TIMEOUT,
                              fixed_target=self.N_TAR, workers=1)

    def outcome(self, results: Any) -> Outcome:
        errors: list[str] = []
        failed_ops = 0
        payload = {}
        slo_min = 0.0
        requests = 0
        for name, result in results.items():
            r = result.report
            problems = _request_checks(name, r.total_requests, r.completed, r.failed,
                                       list(r.latency_samples), self.TIMEOUT)
            if not 0.0 <= r.availability <= 1.0:
                problems.append(f"{name}: availability {r.availability} outside [0, 1]")
            if r.total_requests != len(self.workload):
                problems.append(f"{name}: sent {r.total_requests} of {len(self.workload)}")
            errors += problems
            failed_ops += bool(problems)
            requests += r.total_requests
            slo_min += (1.0 - r.availability) * r.duration / 60.0
            payload[name] = {
                "counts": [r.total_requests, r.completed, r.failed, r.preemptions,
                           r.launch_failures],
                "floats": [repr(x) for x in (r.availability, r.spot_cost, r.od_cost)],
                "latency": _digest([repr(x) for x in r.latency_samples]),
                "ttft": repr(r.ttft.p50) if r.ttft else None,
            }
        if list(results) != ["SkyServe", "ASG", "AWSSpot", "MArk"]:
            errors.append(f"systems {list(results)}")
        sky = results["SkyServe"].report
        baseline = _od_hourly("A10G") * self.N_TAR * self.duration / HOUR
        sim = {
            "availability": sky.availability,
            "cost_vs_od": sky.total_cost / baseline,
            "request_failure_rate": sky.failed / sky.total_requests,
            "latency_p50_s": sky.effective_percentile(50, self.TIMEOUT),
            "latency_p99_s": sky.effective_percentile(99, self.TIMEOUT),
            "ttft_p50_s": sky.ttft.p50 if sky.ttft else self.TIMEOUT,
            "slo_violation_min": slo_min,
        }
        return Outcome(
            operations=len(results),
            errors=errors,
            failed_ops=failed_ops,
            requests=requests,
            steps=round(self.duration / _e2e_step()) * len(results),
            digest=_digest(payload),
            sim=sim,
        )


class ServeThreeTenants(Workload):
    """Three tenants on one engine and one cloud behind the capacity
    broker (fair share, capacity-blackout chaos) over AWS 1 for 24
    simulated hours.

    The scenario is the bundled deployment at the control plane's
    default root seed 0, which draws every tenant's workload, the chaos
    realisation and the cloud's jitter.  The benchmark seed scales each
    tenant's request rate by a seeded factor in ``[1, 1 + 1e-4)``: the
    arrival generators then time-warp the same draws, moving arrivals by
    up to a few seconds over the day.  A different root seed changes
    the burst realisation and the fleet failure rate up to 2.8× (6.2%
    to 17.3% over seeds 101–105).
    """

    name = "serve-three-tenants"
    serves_requests = True
    SCENARIO_SEED = 0

    @property
    def duration(self) -> float:
        return 1 * HOUR if self.smoke else 24 * HOUR

    def build_trace(self) -> None:
        from repro.cloud.traces import aws1

        self.trace = aws1()

    def build_workload(self) -> None:
        import dataclasses

        import numpy as np

        from repro.control.spec import load_deployment

        deployment = load_deployment(
            self.root / "configs" / "deployments" / "three-tenants.json"
        )
        scale = 1.0 + np.random.default_rng(self.seed).uniform(0.0, 1e-4, len(deployment.tenants))
        self.deployment = dataclasses.replace(deployment, tenants=tuple(
            dataclasses.replace(tenant, rate=tenant.rate * float(factor))
            for tenant, factor in zip(deployment.tenants, scale)
        ))

    def call(self) -> Any:
        from repro.control.plane import ControlPlane

        plane = ControlPlane(self.deployment, self.trace, seed=self.SCENARIO_SEED)
        return plane, plane.run(self.duration)

    def outcome(self, result: Any) -> Outcome:
        plane, report = result
        errors: list[str] = []
        failed_ops = 0
        latencies: list[float] = []
        ttfts: list[float] = []
        baseline = 0.0
        slo_min = 0.0
        payload: dict[str, Any] = {"report": report.to_json()}
        for tenant_spec, tenant in zip(self.deployment.tenants, report.tenants):
            client = plane.clients[tenant.tenant]
            samples = list(client.latencies.samples)
            problems = _request_checks(tenant.tenant, tenant.total_requests, tenant.completed,
                                       tenant.failed, samples, client.timeout)
            errors += problems
            failed_ops += bool(problems)
            latencies += samples + [client.timeout] * tenant.failed
            ttfts += list(client.ttfts.samples)
            n_tar = plane.controllers[tenant.tenant].autoscaler.n_tar
            baseline += (_od_hourly(tenant_spec.service.resources.accelerator) * n_tar
                         * self.duration / HOUR)
            slo_min += (1.0 - tenant.availability) * self.duration / 60.0
            payload[tenant.tenant] = {
                "latency": _digest([repr(x) for x in samples]),
                "ttft": _digest([repr(x) for x in client.ttfts.samples]),
                "costs": [repr(tenant.spot_cost), repr(tenant.od_cost)],
            }
        billed = sum(t.total_cost for t in report.tenants)
        if abs(billed - report.fleet_total_cost) > 1e-9 * max(1.0, report.fleet_total_cost):
            errors.append(f"tenant bills {billed!r} != fleet bill {report.fleet_total_cost!r}")
        payload["fleet"] = [repr(report.fleet_spot_cost), repr(report.fleet_od_cost)]
        sent = sum(t.total_requests for t in report.tenants)
        sim = {
            "availability": min(t.availability for t in report.tenants),
            "cost_vs_od": report.fleet_total_cost / baseline,
            "request_failure_rate": sum(t.failed for t in report.tenants) / sent,
            "latency_p50_s": _percentile(latencies, 50),
            "latency_p99_s": _percentile(latencies, 99),
            "ttft_p50_s": _percentile(ttfts, 50),
            "slo_violation_min": slo_min,
        }
        return Outcome(
            operations=len(report.tenants),
            errors=errors,
            failed_ops=failed_ops,
            requests=sent,
            steps=round(self.duration / self.trace.step) * len(report.tenants),
            digest=_digest(payload),
            sim=sim,
        )


# ----------------------------------------------------------------------
# Replica-level (replay) workloads
# ----------------------------------------------------------------------


def _same_result(a: Any, b: Any) -> list[str]:
    """Fields on which two ``ReplayResult``\\ s differ."""
    import numpy as np

    differ = []
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            same = x is not None and y is not None and np.array_equal(x, y)
        else:
            same = x == y
        if not same:
            differ.append(f.name)
    return differ


class ChaosMatrix(Workload):
    """Every bundled chaos scenario plus the fault-free baseline × four
    policies on the hybrid array engine over AWS 1.  The seed is the
    matrix seed: it draws the chaos realisations and the replay's
    victim sampling."""

    name = "chaos-matrix"
    POLICIES = ("SpotHedge", "EvenSpread", "RoundRobin", "OnDemand")
    #: The cell the discrete engine re-runs as the oracle.
    ORACLE = ("kitchen-sink", "SpotHedge")

    def build_trace(self) -> None:
        from repro.cloud.traces import aws1

        trace = aws1()
        if self.smoke:
            trace = trace.window(0.0, 6 * HOUR, name=f"{trace.name} [6h]")
        self.trace = trace

    def build_workload(self) -> None:
        from repro.chaos.library import builtin_scenario, list_builtin

        self.scenarios = [builtin_scenario(name) for name in list_builtin()]

    def call(self) -> Any:
        from repro.chaos.harness import run_matrix

        return run_matrix(self.trace, self.scenarios, self.POLICIES, seed=self.seed,
                          workers=1, use_cache=False, engine="hybrid")

    @property
    def cells(self) -> int:
        return (len(self.scenarios) + 1) * len(self.POLICIES)

    def outcome(self, card: Any) -> Outcome:
        errors = []
        failed_ops = 0
        for score in card.scores:
            problems = []
            if not 0.0 <= score["availability"] <= 1.0:
                problems.append("availability outside [0, 1]")
            if score["relative_cost"] < 0:
                problems.append("negative cost")
            if problems:
                errors.append(f"{score['scenario']}/{score['policy']}: {', '.join(problems)}")
                failed_ops += 1
        if len(card.scores) + len(card.baselines) != self.cells:
            errors.append(f"{len(card.scores)} scored cells + {len(card.baselines)} "
                          f"baselines, expected {self.cells} cells")
        spothedge = card.baselines["SpotHedge"]
        sim = {
            "availability": spothedge["availability"],
            "cost_vs_od": spothedge["relative_cost"],
            "slo_violation_min": sum(s["slo_violation_minutes"] for s in card.scores),
        }
        return Outcome(
            operations=self.cells,
            errors=errors,
            failed_ops=failed_ops,
            requests=0,
            steps=self.trace.n_steps * self.cells,
            digest=_digest(card.to_json()),
            sim=sim,
        )

    def oracle(self, card: Any) -> list[str]:
        """Re-run one cell on the discrete reference engine: it must
        equal the hybrid engine in every ``ReplayResult`` field, and the
        hybrid result must score to the matrix's own scorecard cell."""
        from repro.chaos.harness import POLICY_FACTORIES, score_run
        from repro.chaos.overlay import compile_scenario
        from repro.experiments.replay import ReplayConfig, TraceReplayer

        scenario_name, policy = self.ORACLE
        scenario = next(s for s in self.scenarios if s.name == scenario_name)
        config = ReplayConfig()
        compiled = compile_scenario(scenario, self.trace, root_seed=self.seed)

        def replay(trace: Any, engine: str, **factors: Any) -> Any:
            replayer = TraceReplayer(trace, config, seed=self.seed, engine=engine, **factors)
            return replayer.run(POLICY_FACTORIES[policy](trace.zone_ids))

        factors = {"cold_start_factors": compiled.cold_start_factors,
                   "zone_price_factors": compiled.price_factors}
        hybrid = replay(compiled.trace, "hybrid", **factors)
        discrete = replay(compiled.trace, "discrete", **factors)
        errors = []
        differ = _same_result(hybrid, discrete)
        if differ:
            errors.append(f"oracle {scenario_name}/{policy}: hybrid != discrete in {differ}")
        baseline = replay(self.trace, "hybrid")
        expected = dict(card.cell(scenario_name, policy))
        scored = {"scenario": scenario_name, "policy": policy,
                  **score_run(scenario, hybrid, baseline, config)}
        if scored != expected:
            errors.append(f"oracle {scenario_name}/{policy}: re-run does not score to the cell")
        return errors


class HeteroFrontier(Workload):
    """The five bundled fleets (four homogeneous GPU generations and the
    mixed fleet) replayed over the full AWS 1 trace on the discrete
    engine with capacity weights.  The seed gates the per-(zone, type)
    pools of the heterogeneous trace."""

    name = "hetero-frontier"

    @property
    def duration(self) -> Optional[float]:
        return 6 * HOUR if self.smoke else None

    def call(self) -> Any:
        from repro.experiments.hetero import run_frontier

        return run_frontier(seed=self.seed, duration=self.duration, workers=1,
                            use_cache=False)

    def outcome(self, points: Any) -> Outcome:
        from repro.experiments.hetero import FLEETS, frontier_to_json

        errors = []
        failed_ops = 0
        steps = 0
        slo_min = 0.0
        for point in points:
            fleet = point.params["fleet"]
            result = point.result
            if not point.ok:
                errors.append(f"{fleet}: {point.error}")
                failed_ops += 1
                continue
            problems = []
            if result.eff_availability is None or not 0.0 <= result.eff_availability <= 1.0:
                problems.append(f"eff_availability {result.eff_availability}")
            if len(result.eff_ready_series) != len(result.ready_series):
                problems.append("series lengths differ")
            if result.relative_cost <= 0:
                problems.append(f"relative_cost {result.relative_cost}")
            if problems:
                errors.append(f"{fleet}: {', '.join(problems)}")
                failed_ops += 1
            steps += len(result.ready_series)
            slo_min += (float((result.eff_ready_series < result.n_tar).sum())
                        * result.step / 60.0)
        if [p.params["fleet"] for p in points] != list(FLEETS):
            errors.append(f"fleets {[p.params['fleet'] for p in points]}")
        mixed = next(p.result for p in points if p.params["fleet"] == "mixed")
        sim = {
            "availability": mixed.eff_availability,
            "cost_vs_od": mixed.relative_cost,
            "slo_violation_min": slo_min,
        }
        return Outcome(
            operations=len(points),
            errors=errors,
            failed_ops=failed_ops,
            requests=0,
            steps=steps,
            digest=_digest(frontier_to_json(points, seed=self.seed)),
            sim=sim,
        )


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (CompareVolatile, ServeThreeTenants, ChaosMatrix, HeteroFrontier)
}
