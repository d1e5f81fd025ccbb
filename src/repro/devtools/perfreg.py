"""Perf-regression tracker: compare benchmark runs against a committed
baseline, normalised for machine speed, and append to a trajectory log.

The smoke benchmarks (``REPRO_BENCH_SMOKE=1 pytest
benchmarks/test_simulator_performance.py``) record their throughputs
into ``benchmarks/BENCH_replay.json``.  This module turns that artifact
into a CI gate:

* ``benchmarks/PERF_BASELINE.json`` (committed) holds the reference
  throughputs *and* the calibration score of the machine that recorded
  them;
* a fixed CPU-bound :func:`calibration_probe` measures how fast the
  current machine is relative to the baseline machine, so a slow CI
  runner does not read as a code regression (and a fast one does not
  mask a real regression);
* each check multiplies the measured throughput by the calibration
  ratio and fails when the normalised value falls more than
  :data:`REGRESSION_TOLERANCE` (20%) below the baseline;
* every run — pass or fail — appends one JSON line to
  ``benchmarks/TRAJECTORY.jsonl`` (throughputs, calibration, profiler
  phase timings when present, verdicts), building the longitudinal
  perf trajectory the CI job uploads as an artifact.

Run it as a module::

    python -m repro.devtools.perfreg check      # gate (exit 1 on regression)
    python -m repro.devtools.perfreg baseline   # refresh PERF_BASELINE.json

``repro.devtools`` is outside the simulation import graph, so the
wall-clock reads here (timing the probe, stamping trajectory rows) are
legitimate; they still go through :mod:`repro.telemetry.clock`.
"""

from __future__ import annotations

import argparse
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Sequence

import numpy as np

from repro.telemetry.clock import wall_monotonic, wall_time

__all__ = [
    "BENCH_PATH",
    "BASELINE_PATH",
    "REGRESSION_TOLERANCE",
    "THROUGHPUT_FIELDS",
    "TRAJECTORY_PATH",
    "PerfCheck",
    "append_trajectory",
    "build_record",
    "calibration_probe",
    "check_entries",
    "main",
    "write_baseline",
]

_BENCH_DIR = Path(__file__).resolve().parents[3] / "benchmarks"

#: Where the smoke benchmarks record their numbers (gitignored).
BENCH_PATH = _BENCH_DIR / "BENCH_replay.json"
#: The committed reference throughputs + calibration.
BASELINE_PATH = _BENCH_DIR / "PERF_BASELINE.json"
#: Append-only longitudinal log of every tracked run (committed).
TRAJECTORY_PATH = _BENCH_DIR / "TRAJECTORY.jsonl"

#: Fail when normalised throughput drops more than this below baseline.
REGRESSION_TOLERANCE = 0.20

#: Benchmark entry -> its throughput field (higher is better).
THROUGHPUT_FIELDS: dict[str, str] = {
    "replay": "steps_per_second",
    "replay_hetero": "steps_per_second",
    "replay_vectorized": "steps_per_second",
    "hybrid_sweep": "points_per_second",
    "batched_inference": "requests_per_second",
    "latency_estimation": "requests_per_second",
    "comparison": "requests_per_second",
    "chaos_matrix": "steps_per_second",
}


def calibration_probe(repeats: int = 3) -> float:
    """Seconds (min of ``repeats``) for a fixed CPU-bound workload.

    Mixes a pure-Python loop with numpy array math in roughly the
    proportions of the replay hot path, so the score tracks how fast
    *this* machine runs the benchmarks — the ratio of two machines'
    probe times normalises their throughputs onto one scale.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be positive, got {repeats!r}")
    best = math.inf
    # One untimed warm-up settles allocator pools and cache state so the
    # first timed repeat is comparable to the rest.
    for _ in range(repeats + 1):
        start = wall_monotonic()
        acc = 0
        for i in range(200_000):
            acc += i * i
        values = np.arange(100_000, dtype=float)
        for _ in range(20):
            values = np.sqrt(values * 1.0001 + 1.0)
        # Fold results into the timing window so nothing is dead code.
        _ = acc + float(values[0])
        elapsed = wall_monotonic() - start
        if elapsed < best:
            best = elapsed
    return best


@dataclass(frozen=True)
class PerfCheck:
    """One entry's verdict against the baseline."""

    entry: str
    field: str
    measured: float
    #: ``measured`` scaled by (this machine's probe / baseline probe).
    normalized: float
    baseline: float
    #: ``normalized / baseline`` — < 1 - tolerance fails.
    ratio: float
    ok: bool

    def to_dict(self) -> dict[str, Any]:
        return {
            "entry": self.entry,
            "field": self.field,
            "measured": round(self.measured, 3),
            "normalized": round(self.normalized, 3),
            "baseline": round(self.baseline, 3),
            "ratio": round(self.ratio, 4),
            "ok": self.ok,
        }


def check_entries(
    bench: dict[str, Any],
    baseline: dict[str, Any],
    calibration_s: float,
    *,
    tolerance: float = REGRESSION_TOLERANCE,
) -> list[PerfCheck]:
    """Compare every tracked throughput in ``bench`` to ``baseline``.

    Entries absent from either side are skipped (a new benchmark has no
    baseline yet; a retired one no longer runs) — the gate only judges
    what both sides measured.  Mode mismatches (smoke vs full) are
    skipped too: their workload sizes are not comparable.

    The calibration scale is asymmetric on purpose: a runner *slower*
    than the baseline machine gets its throughput scaled up
    proportionally (a slow CI box is not a code regression), but a
    faster runner is never scaled down — probe jitter on a fast machine
    must not manufacture a regression out of identical numbers.  Real
    regressions still fail on same-or-slower machines, which CI runners
    (vs the dev box that records baselines) essentially always are.
    """
    base_cal = float(baseline.get("calibration_seconds", 0.0))
    scale = max(1.0, calibration_s / base_cal) if base_cal > 0 else 1.0
    base_entries = baseline.get("entries", {})
    checks: list[PerfCheck] = []
    for entry, field in sorted(THROUGHPUT_FIELDS.items()):
        current = bench.get(entry)
        reference = base_entries.get(entry)
        if not current or not reference:
            continue
        if current.get("smoke") != reference.get("smoke"):
            continue
        measured = float(current.get(field, 0.0))
        base_value = float(reference.get(field, 0.0))
        if measured <= 0 or base_value <= 0:
            continue
        normalized = measured * scale
        ratio = normalized / base_value
        checks.append(
            PerfCheck(
                entry=entry,
                field=field,
                measured=measured,
                normalized=normalized,
                baseline=base_value,
                ratio=ratio,
                ok=ratio >= 1.0 - tolerance,
            )
        )
    return checks


def build_record(
    bench: dict[str, Any],
    checks: Sequence[PerfCheck],
    calibration_s: float,
) -> dict[str, Any]:
    """One trajectory row: throughputs, verdicts, profiler phases."""
    entries = {
        entry: {
            field: round(float(bench[entry][field]), 3)
            for field in (THROUGHPUT_FIELDS[entry], "seconds")
            if field in bench[entry]
        }
        for entry in sorted(THROUGHPUT_FIELDS)
        if entry in bench
    }
    record: dict[str, Any] = {
        "timestamp": round(wall_time(), 3),
        "calibration_seconds": round(calibration_s, 6),
        "smoke": any(v.get("smoke") for v in bench.values() if isinstance(v, dict)),
        "entries": entries,
        "checks": [c.to_dict() for c in checks],
        "ok": all(c.ok for c in checks),
    }
    phases = bench.get("replay_phases")
    if isinstance(phases, dict):
        record["replay_phases"] = {
            name: round(float(value), 6)
            for name, value in sorted(phases.items())
            # record_baseline tags every entry with a "smoke" bool;
            # only the phase-total floats belong in the trajectory.
            if isinstance(value, float)
        }
    return record


def append_trajectory(
    record: dict[str, Any], path: Path = TRAJECTORY_PATH
) -> None:
    """Append one JSON line to the trajectory log."""
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True))
        handle.write("\n")


def write_baseline(
    bench: dict[str, Any],
    calibration_s: float,
    path: Path = BASELINE_PATH,
) -> dict[str, Any]:
    """Record the current run as the committed reference baseline."""
    entries = {}
    for entry, field in sorted(THROUGHPUT_FIELDS.items()):
        current = bench.get(entry)
        if not current or field not in current:
            continue
        entries[entry] = {
            field: round(float(current[field]), 3),
            "smoke": bool(current.get("smoke")),
        }
    if not entries:
        raise SystemExit(
            f"no tracked entries in benchmark artifact; run the smoke "
            f"benchmarks first (expected one of {sorted(THROUGHPUT_FIELDS)})"
        )
    baseline = {
        "calibration_seconds": round(calibration_s, 6),
        "entries": entries,
        "tolerance": REGRESSION_TOLERANCE,
    }
    path.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    return baseline


def _load(path: Path, what: str) -> dict[str, Any]:
    if not path.exists():
        raise SystemExit(f"no {what} at {path}")
    try:
        data = json.loads(path.read_text())
    except ValueError as exc:
        raise SystemExit(f"malformed {what} at {path}: {exc}")
    if not isinstance(data, dict):
        raise SystemExit(f"malformed {what} at {path}: expected an object")
    return data


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.perfreg",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "command",
        nargs="?",
        default="check",
        choices=("check", "baseline"),
        help="check: gate against PERF_BASELINE.json (default); "
        "baseline: refresh it from the current BENCH artifact",
    )
    parser.add_argument(
        "--bench", default=str(BENCH_PATH), help="benchmark artifact to read"
    )
    parser.add_argument(
        "--baseline", default=str(BASELINE_PATH), help="committed baseline path"
    )
    parser.add_argument(
        "--trajectory",
        default=str(TRAJECTORY_PATH),
        help="trajectory JSONL to append to",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=REGRESSION_TOLERANCE,
        help="fractional regression that fails the gate (default 0.20)",
    )
    args = parser.parse_args(argv)

    bench = _load(Path(args.bench), "benchmark artifact")
    calibration_s = calibration_probe()

    if args.command == "baseline":
        write_baseline(bench, calibration_s, Path(args.baseline))
        print(f"wrote baseline to {args.baseline} "
              f"(calibration {calibration_s * 1e3:.1f}ms)")
        return 0

    baseline = _load(Path(args.baseline), "perf baseline")
    checks = check_entries(
        bench, baseline, calibration_s, tolerance=args.tolerance
    )
    record = build_record(bench, checks, calibration_s)
    append_trajectory(record, Path(args.trajectory))

    base_cal = float(baseline.get("calibration_seconds", 0.0))
    speed = base_cal / calibration_s if calibration_s > 0 else float("nan")
    print(f"machine calibration: {calibration_s * 1e3:.1f}ms probe "
          f"({speed:.2f}x the baseline machine)")
    if not checks:
        print("no comparable entries (new baseline or mode mismatch): pass")
        return 0
    for check in checks:
        verdict = "ok" if check.ok else "REGRESSION"
        print(
            f"  {check.entry}.{check.field}: {check.measured:,.0f} measured, "
            f"{check.normalized:,.0f} normalized vs {check.baseline:,.0f} "
            f"baseline ({check.ratio:.2f}x) {verdict}"
        )
    if not record["ok"]:
        print(
            f"perf regression: normalized throughput fell more than "
            f"{args.tolerance:.0%} below the committed baseline"
        )
        return 1
    print("perf gate: pass")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
