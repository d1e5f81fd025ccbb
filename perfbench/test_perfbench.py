"""Tests of the benchmark itself, on smoke-sized inputs.

Run from the repository root::

    python3 -m pytest perfbench -q

The exact work counters are deterministic functions of the inputs, so
they are pinned to the value; a change that moves one must say so.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SEED = 5


def _run(workload: str, trace: int, seed: int = SEED, cwd: Path = ROOT,
         script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@lru_cache(maxsize=None)
def smoke(workload: str, trace: int, seed: int = SEED) -> tuple[list[str], dict]:
    done = _run(workload, trace, seed)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def _digest(lines: list[str]) -> str:
    header = next(line for line in lines if "sim_digest" in line)
    return header.rsplit("sim_digest ", 1)[1].split()[0]


def test_benchmark_json_matches_the_runner() -> None:
    sys.path.insert(0, str(HERE))
    from run import END_TO_END

    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == END_TO_END
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for workload in BENCH["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit(workload: str, trace: int) -> None:
    lines, result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], [line for line in lines if line.startswith("CHECK FAILED")]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


#: Exact work counters of one traced smoke call at seed 5.  ``attempted``
#: counts the operations of the untraced and the traced call: 4 systems,
#: 3 tenants, 32 matrix cells (7 scenarios + baseline, × 4 policies) or
#: 5 fleets per call.
PINNED = {
    "compare-volatile": {
        "attempted": 8,
        "sim.events": 44743,
        "sim.events_per_request": 10.196672743846856,
        "client.route_attempts_per_request": 7.324521422060164,
        "policy.calls_per_step": 11.766666666666667,
    },
    "serve-three-tenants": {
        "attempted": 6,
        "sim.events": 22784,
        "sim.events_per_request": 5.484833895040924,
        "client.route_attempts_per_request": 2.2363986519017813,
        "policy.calls_per_step": 7.366666666666666,
    },
    "chaos-matrix": {
        "attempted": 64,
        "sim.events": 0,
        "sim.events_per_request": 0.0,
        "client.route_attempts_per_request": 0.0,
        "policy.calls_per_step": 1.6250868055555556,
    },
    "hetero-frontier": {
        "attempted": 10,
        "sim.events": 0,
        "sim.events_per_request": 0.0,
        "client.route_attempts_per_request": 0.0,
        "policy.calls_per_step": 2.1661111111111113,
    },
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_work_counters_are_pinned(workload: str) -> None:
    _, result = smoke(workload, 1)
    found = {name: result["metrics"][name]["value"] for name in PINNED[workload]
             if name != "attempted"}
    found["attempted"] = result["attempted"]
    assert found == PINNED[workload]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_digest_repeats_at_one_seed(workload: str) -> None:
    first, _ = smoke(workload, 0)
    traced, _ = smoke(workload, 1)
    again = _run(workload, 0)
    assert again.returncode == 0, again.stderr
    lines = again.stdout.strip().splitlines()
    assert json.loads(lines[-1])["correct"]
    assert _digest(first) == _digest(traced) == _digest(lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_the_inputs(workload: str) -> None:
    first, _ = smoke(workload, 0)
    other, _ = smoke(workload, 0, SEED + 1)
    assert _digest(first) != _digest(other)


def test_fails_without_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run("hetero-frontier", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert not done.stdout.strip()
