"""The feed gateway's benchmark: four workloads, end-to-end metrics with
tracing off, and a traced run for the per-layer split.

    python3 perfbench/run.py --workload read_hot --seed 7 --seconds 12 --trace 0

Run from the root of a checkout (the program is imported from ``src/``).
The workload's inputs are generated from ``--seed``; every repetition runs
in a fresh interpreter (``rep.py``), so module-level memo caches never carry
over, and repetitions repeat until ``--seconds`` have passed.  No warm-up
repetition is discarded: imports and input generation precede each timed
region, and set-up is reported as its own metric.

``--trace 0`` prints every end-to-end metric of ``catalog.END_TO_END``;
``--trace 1`` alternates untraced and traced repetitions and prints every
per-layer metric of ``catalog.LAYERS``, including the tracing overhead.
Human-readable report lines come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Timings are scaled to a reference CPU speed (see
``REFERENCE_CALIBRATION_S``), except ``live_open``'s latencies.  Correctness checks make the run exit with 1:
identical fingerprints and gas bills across repetitions, traced and
untraced; ``lanes_static`` equal to a serial run on the same inputs; on
``live_open`` the same arrival schedule in every repetition, every request
settled, request gas summing to the fleet's bill, and (traced) a replay of
the run's epoch membership reproducing its fingerprint.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import catalog  # noqa: E402
from tally import median, percentile  # noqa: E402

#: Time of ``rep.calibration_s`` at the reference CPU speed.  Every CPU-bound
#: timing a run reports is scaled to that speed (see ``to_reference``): this 2-vCPU
#: VM's speed drifts by up to half within minutes, and the program-free
#: calibration loop, timed next to each repetition, drifts with it.
REFERENCE_CALIBRATION_S = 0.070
#: A repetition that takes longer than this has hung.
REP_TIMEOUT_S = 120
#: Per-layer metrics measured on the untraced repetitions of a traced run
#: (they need no tracing and would be distorted by it).
UNTRACED_LAYERS = (
    "door.backlog_max",
    "door.send_lag_p99_ms",
    "door.failed_share",
    "lanes.peak_rss_mb",
)


class RepFailed(Exception):
    pass


def run_rep(workload: str, seed: int, *, trace: bool = False, reference: bool = False) -> dict:
    """One repetition in a fresh interpreter, in its own process group so a
    hung repetition is stopped together with any lane it started."""
    command = [
        sys.executable, str(HERE / "rep.py"),
        "--workload", workload, "--seed", str(seed), "--trace", "1" if trace else "0",
    ]
    if reference:
        command.append("--reference")
    process = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RepFailed(f"{workload} repetition exceeded {REP_TIMEOUT_S}s")
    if process.returncode != 0:
        raise RepFailed(
            f"{workload} repetition exited {process.returncode}: {stderr.strip()[-2000:]}"
        )
    return json.loads(stdout.strip().splitlines()[-1])


def check(workload: str, reps: List[dict], reference: Optional[dict]) -> List[str]:
    """Correctness across repetitions (each repetition checked itself too)."""
    violations = [v for rep in reps for v in rep["violations"]]
    for rep in reps:
        if rep["failed"]:
            violations.append(f"{workload}: {rep['failed']} operations failed")
    if workload == "live_open":
        if len({rep["schedule"] for rep in reps}) != 1:
            violations.append("live_open: the same seed gave different arrival schedules")
        return violations
    if len({rep["fingerprint"] for rep in reps}) != 1:
        violations.append(f"{workload}: fleet fingerprints differ between repetitions")
    if any(rep["bills"] != reps[0]["bills"] for rep in reps):
        violations.append(f"{workload}: per-feed gas bills differ between repetitions")
    if reference is not None:
        if reference["fingerprint"] != reps[0]["fingerprint"]:
            violations.append(f"{workload}: fingerprint differs from the serial run")
        if reference["bills"] != reps[0]["bills"]:
            violations.append(f"{workload}: per-feed gas bills differ from the serial run")
    return violations


def to_reference(rep: dict) -> float:
    """Factor turning this repetition's seconds into reference seconds: the
    calibration loop's reference time over its time next to the run."""
    return REFERENCE_CALIBRATION_S / rep["calibration_s"]


def end_to_end(workload: str, reps: List[dict]) -> Dict[str, float]:
    # The open loop's throughput is its offered rate and its latency mostly
    # waiting and collector pauses, which the calibration loop does not
    # track: live_open reports both unscaled.
    open_loop = workload == "live_open"

    def scale(rep: dict) -> float:
        return 1.0 if open_loop else to_reference(rep)

    latencies = [sample * scale(rep) for rep in reps for sample in rep["latency_ms"]]
    return {
        "ops_per_s": median([rep["ops_per_s"] / scale(rep) for rep in reps]),
        "gas_per_op": median([rep["gas_per_op"] for rep in reps]),
        # The host flips between a fast and a slow speed within a run (most
        # of all with lanes), so the median of all samples jumps between
        # the two; the mean of each repetition's median moves smoothly.
        "latency_p50_ms": statistics.fmean(
            [percentile(rep["latency_ms"], 50) * scale(rep) for rep in reps]
        ),
        # Pooled, so at least ten samples lie beyond it on every workload.
        "latency_p99_ms": percentile(latencies, 99),
        "setup_s": median([rep["setup_s"] * to_reference(rep) for rep in reps]),
        "peak_rss_mb": median([rep["peak_rss_mb"] for rep in reps]),
    }


def per_layer(workload: str, plain: List[dict], traced: List[dict]) -> Dict[str, float]:
    metrics = {}
    for layer in catalog.LAYERS:
        if layer.name == "trace.overhead_ratio":
            # The open loop fixes wall time, so live_open compares CPU time.
            key = "cpu_s" if workload == "live_open" else "wall_s"
            metrics[layer.name] = median(
                [rep[key] * to_reference(rep) for rep in traced]
            ) / median([rep[key] * to_reference(rep) for rep in plain])
        elif layer.name in UNTRACED_LAYERS:
            metrics[layer.name] = median([rep["light"].get(layer.name, 0.0) for rep in plain])
        else:
            metrics[layer.name] = median([rep["layers"][layer.name] for rep in traced])
    return metrics


def host_line() -> str:
    return (
        f"host: python {platform.python_version()} "
        f"({platform.python_implementation()}), "
        f"{len(os.sched_getaffinity(0))} effective CPUs of {os.cpu_count()}, "
        f"{platform.platform()}; each repetition in a fresh interpreter, "
        "no warm-up repetition discarded"
    )


def report(workload: str, seed: int, reps: List[dict], metrics: Dict[str, float], units) -> None:
    print(f"workload {workload} (seed {seed}): {catalog.WORKLOADS[workload]}")
    print(host_line())
    calibration = median([rep["calibration_s"] for rep in reps])
    print(
        f"repetitions: {len(reps)}; calibration loop {calibration * 1e3:.1f} ms "
        f"(reference {REFERENCE_CALIBRATION_S * 1e3:.1f} ms): CPU-bound timings "
        f"below are scaled by {REFERENCE_CALIBRATION_S / calibration:.3f}"
    )
    for name, value in metrics.items():
        line = f"  {name:34s} {value:14.4f} {units[name]}"
        layer = catalog.LAYERS_BY_NAME.get(name)
        if layer is not None and layer.moves:
            line += f"  ({layer.layer}; moves {', '.join(layer.moves)}"
            line += f"; busy on {', '.join(layer.busy_on)}"
            line += f"; idle on {', '.join(layer.idle_on) or '-'})"
        elif name in catalog.END_TO_END_BY_NAME:
            line += f"  ({catalog.END_TO_END_BY_NAME[name].meaning})"
        print(line)
    if "ops_per_s" in metrics:
        attempted = sum(rep["attempted"] for rep in reps)
        failed = sum(rep["failed"] for rep in reps)
        light = {
            name: median([rep["light"].get(name, 0.0) for rep in reps])
            for name in ("door.send_lag_p99_ms", "door.backlog_max")
        }
        print(f"  {'send_lag_p99_ms':34s} {light['door.send_lag_p99_ms']:14.4f} ms")
        print(f"  {'backlog_max':34s} {light['door.backlog_max']:14.4f} count")
        print(f"  {'failed_share':34s} {failed / attempted:14.4f} ratio")
    else:
        for interaction in catalog.INTERACTIONS:
            print(f"note: {interaction}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    started = time.monotonic()
    plain: List[dict] = []
    traced: List[dict] = []
    try:
        # Repeat (untraced, or untraced + traced pairs) while another round
        # is expected to end within --seconds; at least one round.
        while True:
            plain.append(run_rep(args.workload, args.seed))
            if args.trace:
                traced.append(run_rep(args.workload, args.seed, trace=True))
            elapsed = time.monotonic() - started
            if elapsed * (len(plain) + 1) / len(plain) > args.seconds:
                break
        reference = None
        if args.workload == "lanes_static":
            reference = run_rep(args.workload, args.seed, reference=True)
    except RepFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    reps = plain + traced
    violations = check(args.workload, reps, reference)
    if args.trace:
        metrics = per_layer(args.workload, plain, traced)
        units = {layer.name: layer.unit for layer in catalog.LAYERS}
    else:
        metrics = end_to_end(args.workload, plain)
        units = {metric.name: metric.unit for metric in catalog.END_TO_END}
    report(args.workload, args.seed, reps, metrics, units)
    for violation in violations:
        print(f"CORRECTNESS VIOLATION: {violation}")
    print(json.dumps({
        "correct": not violations,
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
