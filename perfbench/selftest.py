"""Fast self-test of the benchmark itself, at 2000-FE budgets (about a minute).

    python3 perfbench/selftest.py

For every workload it checks that the untraced run prints every end-to-end
metric of BENCHMARK.json and the traced run every per-layer metric, each
with its declared unit, plus the per-layer metrics of the layers only that
workload goes through, and that both report correct outputs.  It then
feeds the digest check an expected-digest file in which one digest is
wrong (the program is untouched) and checks that exactly that run is
counted as failed while every other digest still matches.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WRONG_INDEX = 1
TRACE_CSV = ("harness.write_trace_csv.ms_per_call", "harness.write_trace_csv.share")
WORKLOAD_ONLY = {  # printed by the traced run of that workload only
    "paper-d10": TRACE_CSV,
    "rotated-d100": TRACE_CSV,
    "campaign-jobs2": ("harness.parallel_efficiency", "harness.write_campaign_outputs_ms", "cli.overhead_ms"),
}


def run(workload: str, trace: int, golden: str) -> tuple[int, dict, str]:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "0"]
    command += ["--seconds", "1", "--trace", str(trace), "--profile", "tiny", "--golden", golden]
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=300)
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-1]) if lines else {}, done.stdout + done.stderr


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    os.makedirs(OUT, exist_ok=True)
    empty = os.path.join(OUT, "selftest-empty.json")
    with open(empty, "w") as handle:
        json.dump({"seed": 0, "digests": {}}, handle)

    failures = []

    def check(ok: bool, what: str, detail: str = "") -> None:
        print(f"[{'PASS' if ok else 'FAIL'}] {what}")
        if not ok:
            failures.append(what)
            if detail:
                print(detail[-2000:])

    for workload in (w["name"] for w in declared["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, result, output = run(workload, trace, empty)
            check(code == 0 and result.get("correct") is True, f"{workload} trace={trace} runs correct", output)
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload} trace={trace} keys")
            printed = result.get("metrics", {})
            missing = [
                m["name"]
                for m in declared[group]
                if printed.get(m["name"], {}).get("unit") != m["unit"]
                or type(printed[m["name"]].get("value")) not in (int, float)
                or m["name"] not in output.split()
            ]
            if trace == 0 and "failed_run_ratio" not in output.split():
                missing.append("failed_run_ratio")
            if trace == 1:
                missing += [name for name in WORKLOAD_ONLY[workload] if name not in output.split()]
            check(not missing, f"{workload} trace={trace} prints every {group} metric with its unit", str(missing))

        with open(os.path.join(OUT, f"result-{workload}-seed0-trace0-tiny.json")) as handle:
            digests = [unit["digest"] for unit in json.load(handle)["units"]]
        digests[WRONG_INDEX] = "0" * 64
        injected = os.path.join(OUT, "selftest-golden.json")
        with open(injected, "w") as handle:
            json.dump({"seed": 0, "digests": {"tiny": {workload: digests}}}, handle)
        code, result, output = run(workload, 0, injected)
        check(
            code == 1 and result.get("correct") is False and result.get("failed") == 1,
            f"{workload}: one wrong expected digest counts as exactly one failed run",
            output,
        )
        check(f"unit {WRONG_INDEX} " in output, f"{workload}: the failed run is the injected one", output)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
