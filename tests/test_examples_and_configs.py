"""Smoke tests for shipped examples and configs.

The fast examples run end-to-end (interface drift in the public API
breaks them first); the shipped service-spec configs must always parse
and deploy.
"""

import json
import runpy
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


class TestConfigs:
    @pytest.mark.parametrize(
        "name", ["llama2-70b-service.json", "opt-6.7b-spotserve.json"]
    )
    def test_config_parses_and_round_trips(self, name):
        from repro.serving import ServiceSpec

        data = json.loads((REPO / "configs" / name).read_text())
        spec = ServiceSpec.from_dict(data)
        assert ServiceSpec.from_dict(spec.to_dict()) == spec

    def test_llama_config_matches_listing1_knobs(self):
        from repro.serving import ServiceSpec

        data = json.loads((REPO / "configs" / "llama2-70b-service.json").read_text())
        spec = ServiceSpec.from_dict(data)
        assert spec.replica_policy.num_overprovision == 2
        assert spec.replica_policy.dynamic_ondemand_fallback is True
        assert spec.replica_policy.spot_placer == "dynamic"
        assert spec.readiness_probe_path == "/v1/chat/completions"

    def test_llama_config_deploys(self):
        from repro.core import spothedge
        from repro.cloud import HOUR
        from repro.experiments import e2e_trace
        from repro.serving import ServiceSpec, SkyService
        from repro.workloads import poisson_workload

        data = json.loads((REPO / "configs" / "llama2-70b-service.json").read_text())
        spec = ServiceSpec.from_dict(data)
        trace = e2e_trace("available", duration=HOUR, seed=1)
        service = SkyService(spec, spothedge(list(trace.zone_ids)), trace, seed=1)
        report = service.run(poisson_workload(HOUR, rate=0.1, seed=1), HOUR)
        assert report.total_requests > 0
        assert report.failure_rate < 0.5


class TestExampleScripts:
    """Run the fast examples as scripts (catches API drift)."""

    def _run(self, name, capsys):
        path = REPO / "examples" / name
        argv = sys.argv
        sys.argv = [str(path)]
        try:
            runpy.run_path(str(path), run_name="__main__")
        finally:
            sys.argv = argv
        return capsys.readouterr().out

    def test_quickstart(self, capsys):
        out = self._run("quickstart.py", capsys)
        assert "availability:" in out
        assert "SpotHedge" in out

    def test_heterogeneous_gpus(self, capsys):
        out = self._run("heterogeneous_gpus.py", capsys)
        assert "Capacity-weighted fleet" in out
        line = next(ln for ln in out.splitlines() if "on-demand spend:" in ln)
        before, after = line.split(":")[1].split("replica-hour")[0].split("->")
        assert float(after) < float(before)

    def test_custom_policy(self, capsys):
        out = self._run("custom_policy.py", capsys)
        assert "FavouriteZone" in out
        assert "SpotHedge" in out

    def test_trace_replay_policies(self, capsys):
        out = self._run("trace_replay_policies.py", capsys)
        assert "Omniscient" in out
        assert "EvenSpread" in out
