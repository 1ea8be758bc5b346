"""Alternating parent/change pairs of the benchmark, summarized as ``BENCH_<pr>.json``.

Both sides run the same command from their own copy of the repository,

    python3 perfbench/run.py --workload W --seed S --seconds 30 --trace 0

one pair per seed, with the side that runs first switching from pair to
pair.  The parent is a git ref; the change is the working tree (tracked
files and untracked files that are not ignored).  Each side is copied
into a temporary directory, so the benchmark's own outputs land there:
this script reads ``perfbench/`` and ``BENCHMARK.json`` and never writes
under the repository, except the one ``BENCH_<pr>.json``.

Each workload's record gives each side's total of failed runs over its
pairs, and for every end-to-end metric of ``BENCHMARK.json`` each side's
median and quartiles, the pairs the change won (ties count for
neither), and a verdict:

* ``gain``: the change won at least 9 in 10 of the pairs and the gap
  between the medians exceeds the parent's interquartile range;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound;
* ``unresolved``: neither, and the parent's own spread (its interquartile
  range) is wider than the bound;
* ``within bound``: otherwise.

The script exits 1, having written the record, when on some workload the
change failed more runs than the parent.

``--traced`` adds per-layer runs (``--trace 1 --seed 0``) of every
workload, in the order parent, change, change, parent, under the
workload's ``traced_seed0``: each run's ``TRACED_LAYERS`` values, its
``cli.import_s`` among them, and every traced count.

    python3 tools/bench_pairs.py --parent HEAD --pr 12 --pairs 10 \\
        --workload paper-d10 --seeds 1201 [--workload rotated-d100 --seeds 1221 ...] [--traced]
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = ("perfbench", "run.py")
SECONDS = 30
WIN_SHARE = 0.9
TRACED_LAYERS = (
    "swarm_ops.pso_step.self_us_per_call",
    "swarm_ops.partial_reconstruct.self_us_per_call",
    "swarm_ops.full_reconstruct.self_us_per_call",
    "diversity.hybrid_diversity.us_per_call",
    "core.evaluate_batch.self_us_per_call",
    "benchmarks.objective.us_per_call",
    "core.transform.us_per_call",
    "core.transform.share",
    "swarm_ops.pso_step.share",
    "diversity.hybrid_diversity.share",
    "optimizer.us_per_iteration",
    "cli.import_s",
)
COUNT_SUFFIXES = (".calls", ".rows", ".iterations", ".phase_switches")


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True).stdout


def checkout(ref: str, into: str) -> str:
    """Copy ``ref``'s committed files into ``into``."""
    os.makedirs(into)
    tarfile.open(fileobj=io.BytesIO(git("archive", ref)), mode="r:").extractall(into, filter="data")
    return into


def copy_working_tree(into: str) -> str:
    """Copy the working tree's tracked and unignored untracked files into ``into``."""
    os.makedirs(into)
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").decode().split("\0"):
        source, target = os.path.join(ROOT, name), os.path.join(into, name)
        if name and os.path.isfile(source):
            os.makedirs(os.path.dirname(target), exist_ok=True)
            shutil.copyfile(source, target)
    return into


def bench(tree: str, workload: str, seed: int, trace: int) -> dict:
    """One benchmark run from ``tree``: its metric values and failed-run count."""
    command = [sys.executable, os.path.join(tree, *RUN), "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode not in (0, 1):
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    record = json.loads(done.stdout.strip().splitlines()[-1])
    values = {name: entry["value"] for name, entry in record["metrics"].items()}
    return {"failed": record["failed"], "correct": record["correct"], "values": values}


def traced_runs(trees: dict, workload: str) -> dict:
    """Per-layer runs of ``workload`` at seed 0: parent, change, change, parent."""
    runs = []
    for side in ("parent", "change", "change", "parent"):
        run = bench(trees[side], workload, 0, 1)
        values = run["values"]
        layers = {name: values[name] for name in TRACED_LAYERS if name in values}
        counts = {name: value for name, value in values.items() if name.endswith(COUNT_SUFFIXES)}
        runs.append({"side": side, "correct": run["correct"], **layers, "counts": counts})
    return {
        "command": f"python3 perfbench/run.py --workload {workload} --seed 0 --trace 1",
        "order": "parent, change, change, parent",
        "runs": runs,
    }


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(parent: dict, change: dict, wins: int, pairs: int, lower_is_better: bool, bound: float) -> str:
    gap = parent["median"] - change["median"] if lower_is_better else change["median"] - parent["median"]
    parent_iqr = parent["q3"] - parent["q1"]
    if wins >= WIN_SHARE * pairs and gap > parent_iqr:
        return "gain"
    if -gap > bound * abs(parent["median"]):
        return "worse"
    return "unresolved" if parent_iqr > bound * abs(parent["median"]) else "within bound"


def _better(change: float, parent: float, lower_is_better: bool) -> bool:
    """A strict win; a tie counts for neither side."""
    return change < parent if lower_is_better else change > parent


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    summary = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        seen = [p for p in pairs if name in p["parent"] and name in p["change"]]
        if not seen:
            continue
        parent = spread([p["parent"][name] for p in seen])
        change = spread([p["change"][name] for p in seen])
        wins = sum(_better(p["change"][name], p["parent"][name], lower) for p in seen)
        summary[name] = {
            "parent": parent,
            "change": change,
            "change_better_in": f"{wins} of {len(seen)} pairs",
            "median_change": change["median"] / parent["median"] - 1.0,
            "verdict": verdict(parent, change, wins, len(seen), lower, metric["bound"]),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent side")
    parser.add_argument("--pr", required=True, type=int, help="writes BENCH_<pr>.json at the repository root")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", action="append", type=int, required=True, help="first pair seed, per --workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--traced", action="store_true", help="also run --trace 1 --seed 0 on every workload")
    parser.add_argument("--note", default="", help="what the change does, for the record")
    args = parser.parse_args(argv)
    if len(args.seeds) != len(args.workload):
        parser.error("give one --seeds per --workload")
    if args.pairs < 2:  # the quartiles of each side's runs need two values
        parser.error(f"--pairs must be at least 2, got {args.pairs}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        metrics = json.load(handle)["end_to_end"]

    record = {
        "change": args.note,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} --trace 0",
        "protocol": "parent and change run alternately from two copies of the repository, one pair per seed; "
        "the first side alternates from pair to pair; times are perfbench's reference-speed values",
        "parent_ref": git("rev-parse", args.parent).decode().strip(),
        "change_ref": "working tree",
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        trees = {"parent": checkout(args.parent, os.path.join(scratch, "parent"))}
        trees["change"] = copy_working_tree(os.path.join(scratch, "change"))
        for workload, first_seed in zip(args.workload, args.seeds):
            pairs = []
            for index in range(args.pairs):
                seed = first_seed + index
                order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
                runs = {side: bench(trees[side], workload, seed, 0) for side in order}
                pairs.append({
                    "seed": seed,
                    "first": order[0],
                    "failed": [runs["parent"]["failed"], runs["change"]["failed"]],
                    "parent": runs["parent"]["values"],
                    "change": runs["change"]["values"],
                })
                shown = "  ".join(f"{side} {runs[side]['values'].get('us_per_fe', float('nan')):.4f}" for side in order)
                print(f"{workload} seed {seed}: {shown}", file=sys.stderr, flush=True)
            failed = {"parent": sum(pair["failed"][0] for pair in pairs), "change": sum(pair["failed"][1] for pair in pairs)}
            record["workloads"][workload] = {"metrics": summarize(pairs, metrics), "failed": failed, "pairs": pairs}
            if args.traced:
                record["workloads"][workload]["traced_seed0"] = traced_runs(trees, workload)
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    print(f"wrote {path}", file=sys.stderr)
    worse = [name for name, entry in record["workloads"].items() if entry["failed"]["change"] > entry["failed"]["parent"]]
    if worse:
        print(f"the change failed more runs than the parent on {', '.join(worse)}", file=sys.stderr)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
