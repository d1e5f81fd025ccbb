"""End-to-end benchmark of the SkyServe reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload compare-volatile --seed 1 --seconds 20 --trace 0

Set-up (imports and input builds) runs first and is timed; then the
workload's entry point is called repeatedly, whole calls only, while
another call still fits in ``--seconds``.  Every call's output is
checked and reduced to a digest that must repeat exactly.  The last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of one traced call (see ``tracer.py``) and the
tracing overhead against one untraced call.  Spans and digests are
written under ``.perfbench/`` in the checkout.

The exit code is 0 when a result line was printed, 1 when a call
raised, and 2 when the checkout has no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

#: End-to-end metrics and their units.  Host seconds are wall-clock
#: seconds of this single-threaded process scaled to the reference host
#: (see ``HostClock``); ``sim_s`` is simulated seconds.
END_TO_END = {
    "setup_s": "s",
    "sim_requests_per_s": "1/s",
    "replay_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "availability": "fraction",
    "cost_vs_od": "fraction",
    "request_failure_rate": "fraction",
    "latency_p50_s": "sim_s",
    "latency_p99_s": "sim_s",
    "ttft_p50_s": "sim_s",
    "slo_violation_min": "sim_min",
}

#: Request-level metrics of the request workloads.  The replay
#: workloads serve no requests; the output format still needs every
#: metric, so they print NO_REQUESTS (a non-zero stand-in for "none").
REQUEST_METRICS = (
    "sim_requests_per_s",
    "request_failure_rate",
    "latency_p50_s",
    "latency_p99_s",
    "ttft_p50_s",
)
NO_REQUESTS = 1e-9

#: Set-up samples per run: this process plus fresh interpreters.
SETUP_SAMPLES = 3

#: Mean seconds of one speed probe inside a call on the reference host,
#: the 2-vCPU x86 machine the bounds were set on at a quiet moment, and
#: the probe period.
REFERENCE_PROBE_S = 0.00045
PROBE_INTERVAL_S = 0.05
_PROBE_HEAP: list[int] = []
_PROBE_TABLE: dict[int, int] = {}


def _probe_task() -> None:
    """A fixed pure-Python task: heap pushes and pops and dict updates,
    the operations the simulators spend their time in.  It allocates no
    container objects, so it never triggers a collection of the
    simulators' heap."""
    heap, table = _PROBE_HEAP, _PROBE_TABLE
    for i in range(400):
        heapq.heappush(heap, (i * 7919) % 10007)
    while heap:
        heapq.heappop(heap)
    for i in range(1500):
        table[i & 511] = table.get(i & 511, 0) + i


def _probe() -> float:
    """Wall seconds of the probe task, run with warm caches: a first,
    untimed pass loads what the code around it evicted, so the code
    under test cannot slow the probe through its memory behaviour."""
    _probe_task()
    start = time.perf_counter()
    _probe_task()
    return time.perf_counter() - start


class HostClock:
    """Times a block in reference-host seconds.

    The benchmark shares its host with other jobs, which slow the same
    call by up to 1.7× from one call to the next.  While the block runs,
    a SIGALRM timer runs a short probe every ``PROBE_INTERVAL_S`` in this
    thread, so the probes see the same contention as the work around
    them.  The block's wall time is scaled by ``REFERENCE_PROBE_S`` over
    the probes' mean (the middle 80%).  Each probe warms its caches
    before it is timed, so it measures the host's speed rather than the
    memory behaviour of the code under test.  The probes cost about 2%
    of the block's time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.wall = 0.0

    def _on_alarm(self, signum: int, frame: object) -> None:
        self.samples.append(_probe())

    def __enter__(self) -> HostClock:
        self.samples.append(_probe())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.wall = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(_probe())

    @property
    def probe_s(self) -> float:
        """Mean seconds of one probe during the block (the middle 80%)."""
        samples = sorted(self.samples)
        trim = len(samples) // 10
        return statistics.mean(samples[trim:len(samples) - trim])

    @property
    def seconds(self) -> float:
        """The block's time on the reference host."""
        return self.wall * REFERENCE_PROBE_S / self.probe_s


def _metric(value: float, unit: str) -> dict[str, object]:
    return {"value": float(value), "unit": unit}


def _input_hash() -> str:
    """Identifies everything the simulated outputs depend on besides the
    workload and seed: the package sources and data, the bundled
    configurations, the benchmark's own code (which builds the inputs
    and the digest) and the numpy and Python versions.  Recorded digests
    are only compared between runs with the same hash."""
    import numpy

    paths = [*(ROOT / "src").rglob("*"), *(ROOT / "configs").rglob("*"),
             *(p for p in HERE.glob("*.py") if not p.name.startswith("test_"))]
    digest = hashlib.sha256()
    for path in sorted(paths):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    digest.update(f"numpy {numpy.__version__} python {sys.version}".encode())
    return digest.hexdigest()[:16]


def _check_digest(workload, digest: str) -> list[str]:
    """The digest must be the same on every run of one input, across
    processes: compare with the first run's record in the checkout."""
    path = OUT / "digests" / f"{workload.key}-{_input_hash()}.txt"
    if path.exists():
        recorded = path.read_text().strip()
        if recorded != digest:
            return [f"sim_digest {digest} differs from an earlier run's {recorded}"]
        return []
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(digest + "\n")
    return []


def _setup_samples(args: argparse.Namespace, first: dict) -> list[dict]:
    """Set-up times of this process plus SETUP_SAMPLES - 1 fresh ones."""
    samples = [first]
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def measured_run(args: argparse.Namespace, workload, setup: dict) -> dict:
    """Untraced run: call the entry point for ``--seconds`` and report
    the end-to-end metrics."""
    calls = requests = steps = 0
    busy = wall = 0.0
    probes: list[float] = []
    errors: list[str] = []
    digests = set()
    attempted = failed = 0
    outcome = result = None
    start = time.perf_counter()
    while True:
        try:
            with HostClock() as clock:
                result = workload.call()
        except Exception:  # noqa: BLE001 - a raising call is a failed result
            traceback.print_exc()
            return {"error": True}
        busy += clock.seconds
        wall += clock.wall
        probes.append(clock.probe_s)
        outcome = workload.outcome(result)
        attempted += outcome.operations
        failed += outcome.failed_ops
        errors += outcome.errors
        digests.add(outcome.digest)
        calls += 1
        requests += outcome.requests
        steps += outcome.steps
        if time.perf_counter() - start + clock.wall > args.seconds:
            break
    errors += workload.oracle(result)
    if len(digests) != 1:
        errors.append(f"calls at one seed gave {len(digests)} different digests")
    errors += _check_digest(workload, outcome.digest)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = _setup_samples(args, setup)

    values = {
        "setup_s": statistics.median([s["setup_s"] for s in setups]),
        "sim_requests_per_s": requests / busy,
        "replay_steps_per_s": steps / busy,
        "peak_rss_mb": rss_mb,
        **outcome.sim,
    }
    # The same host-time figures in plain wall-clock seconds, unscaled.
    plain = {
        "setup_s": statistics.median([s["setup_wall_s"] for s in setups]),
        "sim_requests_per_s": requests / wall,
        "replay_steps_per_s": steps / wall,
    }
    if not workload.serves_requests:
        values.update({name: NO_REQUESTS for name in REQUEST_METRICS})
    print(f"{workload.name}: {calls} calls in {busy:.3f} reference s ({wall:.3f} wall s, "
          f"probe {1e3 * statistics.mean(probes):.4f} ms against "
          f"{1e3 * REFERENCE_PROBE_S} ms), sim_digest {outcome.digest}")
    for name, unit in END_TO_END.items():
        applies = workload.serves_requests or name not in REQUEST_METRICS
        shown = f"{values[name]:.6g}" if applies else "n/a"
        line = f"  {name:<22} {shown:>14} {unit}"
        if name in plain and applies:
            line += f"  (wall clock: {plain[name]:.6g} {unit})"
        print(line)
    for line in errors:
        print(f"CHECK FAILED: {line}")
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: _metric(values[name], unit) for name, unit in END_TO_END.items()},
    }


def traced_run(workload, timings: dict[str, float]) -> dict:
    """One untraced and one traced call; per-layer metrics of the
    traced one."""
    from tracer import Tracer, event_overhead, layer_metrics

    errors: list[str] = []
    try:
        with HostClock() as plain_clock:
            plain = workload.call()
        tracer = Tracer()
        try:
            tracer.install()
            with HostClock() as traced_clock:
                traced = workload.call()
        finally:
            tracer.uninstall()
    except Exception:  # noqa: BLE001 - a raising call is a failed result
        traceback.print_exc()
        return {"error": True}
    reference = workload.outcome(plain)
    outcome = workload.outcome(traced)
    errors += reference.errors + outcome.errors + tracer.check()
    if outcome.digest != reference.digest:
        errors.append("the traced call's results differ from the untraced call's")
    errors += _check_digest(workload, outcome.digest)
    tracer.write(OUT / "spans" / f"{workload.key}.jsonl")

    metrics = layer_metrics(tracer, requests=outcome.requests, steps=outcome.steps,
                            per_event_s=event_overhead())
    metrics.update({
        "setup.import_s": (timings["import_s"], "s"),
        "setup.trace_s": (timings["trace_s"], "s"),
        "setup.workload_s": (timings["workload_s"], "s"),
        "trace.overhead_ratio": (traced_clock.seconds / plain_clock.seconds, "ratio"),
    })
    print(f"{workload.name}: traced {traced_clock.wall:.3f} s, "
          f"untraced {plain_clock.wall:.3f} s, "
          f"{len(tracer.spans)} spans kept, {tracer.dropped} dropped, "
          f"sim_digest {outcome.digest}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    for line in errors:
        print(f"CHECK FAILED: {line}")
    return {
        "correct": not errors,
        "attempted": reference.operations + outcome.operations,
        "failed": reference.failed_ops + outcome.failed_ops,
        "metrics": {name: _metric(value, unit) for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="input seed")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure whole calls while another fits in this many seconds")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro package under {ROOT / 'src'}: nothing to benchmark", file=sys.stderr)
        return 2
    # ReplayCache must never serve a result; keep its directory in the
    # checkout all the same.
    os.environ["REPRO_CACHE_DIR"] = str(OUT / "cache")

    sys.path.insert(0, str(ROOT / "src"))
    with HostClock() as clock:
        workload = WORKLOADS[args.workload](ROOT, args.seed, smoke=args.smoke)
        timings = workload.setup()
    setup = {"setup_s": clock.seconds, "setup_wall_s": clock.wall}
    if args.setup_only:
        print(json.dumps({**setup, **timings}))
        return 0

    if args.trace:
        result = traced_run(workload, timings)
    else:
        result = measured_run(args, workload, setup)
    if result.get("error"):
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
