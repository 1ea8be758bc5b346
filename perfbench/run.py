"""Benchmark of the ampso optimizer: µs per function evaluation, run latency,
set-up time and memory on three workloads, plus a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload paper-d10 --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs a fixed set of runs untraced once and traced twice and
reports the per-layer metrics.  Human-readable lines (metrics with units,
the environment, any failed run) come first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit code 0 means every output was correct,
1 that a run or a cross-check failed, 2 a usage or set-up error.

The program is imported from ``src/`` of the same checkout; see README.md
in this directory for the workloads and the meaning of every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

import workloads
from calibrate import Calibrator

PERF = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
GOLDEN = os.path.join(HERE, "golden.json")
WORKLOADS = ("paper-d10", "rotated-d100", "campaign-jobs2")
DEFAULT_SEED = 0
SETUP_REPS = {"full": 7, "tiny": 3}
SETUP_TIMEOUT_S = 60
# the measured phase is split over consecutive worker processes: the same
# code ran up to ~5 % faster or slower from one process to the next
MEASURE_PROCESSES = 6
WORKER_TIMEOUT_S = 150


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed (golden digests: 0)")
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "tiny"), default="full", help="tiny: 2000-FE runs")
    parser.add_argument("--golden", default=GOLDEN, help="expected digests (JSON)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--worker-from", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--last", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def prepare(args) -> tuple:
    """Everything a fresh interpreter does before it can run the workload."""
    sys.path.insert(0, SRC)
    start = PERF()
    import ampso.cli  # noqa: F401  (numpy is already imported)

    cli_import_s = PERF() - start
    with open(args.golden) as handle:
        golden = json.load(handle)
    os.makedirs(OUT, exist_ok=True)
    workload = workloads.Workload(args.workload, args.seed, args.profile, golden, OUT)
    return workload, {"cli_import_s": cli_import_s}


def child_command(args, *extra: str) -> list[str]:
    command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed)]
    return command + ["--profile", args.profile, "--golden", args.golden, *extra]


def measure_in_workers(args) -> dict:
    """Untraced measured phase, in consecutive worker processes."""
    units, peaks = [], []
    start = PERF()
    for worker in range(MEASURE_PROCESSES):
        share = str(args.seconds / MEASURE_PROCESSES)
        command = child_command(args, "--seconds", share, "--worker-from", str(len(units)))
        if worker == MEASURE_PROCESSES - 1:
            command.append("--last")
        done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=WORKER_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"measuring worker failed: {done.stderr.strip()[-2000:]}")
        payload = json.loads(done.stdout.strip().splitlines()[-1])
        units += payload["units"]
        peaks.append(payload["peak_rss_mb"])
    plan = workloads.plan_for(args.workload, args.profile)
    return workloads.summarize(units, plan, max(peaks), PERF() - start)


def setup_samples(args, reps: int) -> list[dict]:
    """Time fresh interpreters from launch until they report ready."""
    command = child_command(args, "--setup-only")
    calibrator = Calibrator()
    samples = []
    before = calibrator.sample()
    for _ in range(reps):
        start = PERF()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            try:
                ready = child.stdout.readline()
                elapsed = PERF() - start
                detail = child.stdout.readline()
                child.wait(timeout=SETUP_TIMEOUT_S)
            finally:
                if child.poll() is None:
                    child.kill()
                    child.wait()
        if ready.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
        after = calibrator.sample()
        scale = calibrator.scale(before, after)
        samples.append({"setup_s": elapsed * scale, "raw_setup_s": elapsed, "speed_scale": scale, **json.loads(detail)})
        before = after
    return samples


def environment(seed: int, load_start: tuple) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    threads = {k: os.environ.get(k, "unset") for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    nproc = os.cpu_count() or 1
    load_end = os.getloadavg()
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": threads,
        "load_avg_start": list(load_start),
        "load_avg_end": list(load_end),
        "loaded": max(load_start[0], load_end[0]) > nproc,
        "workload_seed": seed,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    for key in [k for k in os.environ if k.startswith("AMPSO_")]:
        del os.environ[key]  # configuration comes from the workload only
    if not os.path.isfile(os.path.join(SRC, "ampso", "__init__.py")):
        print(f"error: no ampso package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.setup_only:
        _, timings = prepare(args)
        print("ready", flush=True)
        print(json.dumps(timings), flush=True)
        return 0
    if args.worker_from is not None:
        workload, _ = prepare(args)
        print(json.dumps(workloads.measure_slice(workload, args.seconds, args.worker_from, args.last)))
        return 0

    load_start = os.getloadavg()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.profile == "tiny" else "")
    if args.trace:
        workload, _ = prepare(args)
        outcome = workloads.traced(workload, os.path.join(OUT, f"spans-{tag}.csv.gz"))
    else:
        os.makedirs(OUT, exist_ok=True)
        outcome = measure_in_workers(args)
    units, problems = outcome["units"], outcome["problems"]
    attempted, failed = outcome["attempted"], outcome["failed"]
    metrics = dict(outcome["metrics"])

    setups = setup_samples(args, SETUP_REPS[args.profile])
    if args.trace:
        metrics["cli.import_s"] = (statistics.median(s["cli_import_s"] for s in setups), "s")
    else:
        metrics["setup_s"] = (statistics.median(s["setup_s"] for s in setups), "s")
        outcome["raw"]["setup_s"] = (statistics.median(s["raw_setup_s"] for s in setups), "s")
    if not all(math.isfinite(value) for value, _ in metrics.values()):
        problems.append("a metric is not a finite number")
    env = environment(args.seed, load_start)
    correct = not problems

    samples = outcome.get("run_unit_samples")
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  profile {args.profile}")
    print("# env " + json.dumps(env))
    if samples is not None:
        beyond = samples - math.ceil(samples * 0.9)
        print(f"# run units: {samples} samples ({beyond} beyond p90); measured {outcome['measured_s']:.1f} s")
    if args.trace:
        print(f"# traced self time covers {outcome['coverage']:.4f} of traced wall time")
        print(f"# {outcome['spans_written']} spans of one run per cell written to perfbench/out/spans-{tag}.csv.gz")
        print(f"# absent (wrapped name no longer exists): {', '.join(outcome['absent']) or 'none'}")
    else:
        print(f"# times below are rescaled to reference host speed (median factor {outcome['speed_scale_median']:.4f});")
        print("# the raw.* lines are the same metrics in plain wall time")
    for name, (value, unit) in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name:<44} {shown:>14} {unit}")
    for name, (value, unit) in outcome.get("extra", {}).items():
        print(f"{name:<44} {value:>14.6g} {unit}  (this workload only)")
    for name, (value, unit) in outcome.get("raw", {}).items():
        print(f"{'raw.' + name:<44} {value:>14.6g} {unit}")
    print(f"{'failed_run_ratio':<44} {failed / attempted:>14.6g} ratio  ({failed} of {attempted} runs)")
    if env["loaded"]:
        print("# warning: load average exceeded nproc while these runs were taken")
    for problem in problems:
        print(f"# FAILED {problem}")

    record = {
        "args": vars(args),
        "env": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "setup_samples": setups,
        "units": units,
        "raw": {k: {"value": v, "unit": u} for k, (v, u) in outcome.get("raw", {}).items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in outcome.get("extra", {}).items()},
        "counts": outcome.get("counts"),
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
