"""The benchmark's workloads: their inputs, measured loops and output checks.

Every workload is a closed loop with one run in flight: the next run
starts only after the previous one finished and was checked.  Run seeds,
shifts and rotations all derive from the workload seed, so one seed fixes
every input.  A run *unit* is what one timing sample covers:

* ``paper-d10`` and ``rotated-d100``: one ``run_ampso``/``run_gpso`` call
  plus writing its trace CSV with ``write_trace_csv``;
* ``campaign-jobs2``: one pass over the acceptance grid, i.e. an in-process
  ``ampso.cli.main(["bench", ...])`` call for ``ampso`` followed by one for
  ``gpso`` (split by algorithm so each algorithm's cost per evaluation shows).

The untraced path uses only ``run_ampso``, ``run_gpso``, ``AmpsoConfig``,
``make_spec``, ``random_rotation``, ``write_trace_csv`` and ``cli.main``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import time
import zlib
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from calibrate import Calibrator
from tracer import Tracer

PERF = time.perf_counter
ALGORITHMS = ("ampso", "gpso")
ITERATION_SLACK = 40  # largest swarm: a finished run leaves fewer FEs unspent
TINY_BUDGET = 2000
COVERAGE_TOLERANCE = 0.02
BULK_ROWS = 100_000
BULK_ELEMENTS_PER_CALL = 1_000_000


@dataclass(frozen=True)
class Plan:
    name: str
    kind: str  # "loop" or "campaign"
    functions: tuple[str, ...]
    dim: int
    fe_budget: int | None  # None: the library default of 10000 * dim
    shifted: bool = False
    runs_per_cell: int = 0  # campaign: --runs
    jobs: int = 1
    trace_cycles: int = 1  # fixed work of a traced run, in cycles over the cells


PLANS = {
    plan.name: plan
    for plan in (
        Plan("paper-d10", "loop", ("rastrigin", "ackley", "griewank"), 10, None, trace_cycles=2),
        Plan(
            "rotated-d100",
            "loop",
            ("rastrigin", "ackley", "griewank", "rosenbrock"),
            100,
            100_000,
            shifted=True,
        ),
        Plan(
            "campaign-jobs2",
            "campaign",
            ("rastrigin", "ackley", "griewank"),
            10,
            20_000,
            runs_per_cell=4,
            jobs=2,
            trace_cycles=2,
        ),
    )
}


class Api(NamedTuple):
    """The library entry points a unit calls; a traced run passes wrapped ones."""

    run_fns: dict
    specs: dict
    write_trace_csv: Callable
    cli_main: Callable


def plan_for(name: str, profile: str) -> Plan:
    """The workload's plan; the ``tiny`` profile (self-test) uses 2000-FE runs."""
    plan = PLANS[name]
    if profile == "tiny":
        plan = Plan(**{**plan.__dict__, "fe_budget": TINY_BUDGET, "runs_per_cell": min(plan.runs_per_cell, 1)})
    return plan


def derive_seed(workload_seed: int, name: str, index: int) -> int:
    """32-bit seed for item ``index`` of a workload; fits any campaign offset."""
    sequence = np.random.SeedSequence([workload_seed, zlib.crc32(name.encode()), index])
    return int(sequence.generate_state(1)[0])


class Workload:
    """Inputs of one workload, built before the measured phase starts."""

    def __init__(self, name: str, seed: int, profile: str, golden: dict | None, out_dir: str):
        from ampso import cli
        from ampso.benchmarks import make_spec, random_rotation
        from ampso.harness import write_trace_csv
        from ampso.optimizer import AmpsoConfig, run_ampso, run_gpso

        self.plan = plan = plan_for(name, profile)
        self.seed = seed
        self.out_dir = out_dir
        self.budget = plan.fe_budget if plan.fe_budget is not None else 10000 * plan.dim
        self.config = AmpsoConfig(fe_budget=plan.fe_budget)

        specs = {}
        if plan.shifted:
            rng = np.random.default_rng(derive_seed(seed, name + "/transforms", 0))
        for function in plan.functions:
            shift = rotation = None
            if plan.shifted:
                probe = make_spec(function, plan.dim)
                center = (probe.bounds.lower + probe.bounds.upper) / 2.0
                half = probe.bounds.span / 2.0
                shift = center + rng.uniform(-0.8, 0.8, plan.dim) * half
                rotation = random_rotation(plan.dim, rng)
            specs[function] = make_spec(function, plan.dim, shift=shift, rotation=rotation)
        self.api = Api({"ampso": run_ampso, "gpso": run_gpso}, specs, write_trace_csv, cli.main)
        if plan.kind == "loop":
            self.cells = [(a, f) for f in plan.functions for a in ALGORITHMS]
        else:
            self.cells = [(a, None) for a in ALGORITHMS]

        self.expected: list[str] = []
        if golden is not None and golden.get("seed") == seed:
            self.expected = golden.get("digests", {}).get(profile, {}).get(name, [])

    # ---- one unit of work
    def run_loop(self, index: int, run_fn, spec, write):
        """Run one seeded instance and write its trace; returns (result, seconds)."""
        path = os.path.join(self.out_dir, "trace.csv")
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
        seed = derive_seed(self.seed, self.plan.name, index)
        start = PERF()
        result = run_fn(self.config, spec, seed=seed)
        write(path, result)
        return result, PERF() - start

    def campaign_argv(self, index: int, algorithm: str, out: str) -> list[str]:
        plan = self.plan
        return [
            "bench",
            "--algo", algorithm,
            "--function", ",".join(plan.functions),
            "--dim", str(plan.dim),
            "--runs", str(plan.runs_per_cell),
            "--seed", str(derive_seed(self.seed, plan.name, index // len(ALGORITHMS))),
            "--fe-budget", str(self.budget),
            "--jobs", str(plan.jobs),
            "--out", out,
        ]  # fmt: skip

    def run_campaign_call(self, index: int, algorithm: str, main):
        out = os.path.join(self.out_dir, "campaign")
        shutil.rmtree(out, ignore_errors=True)
        captured = io.StringIO()
        start = PERF()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = main(self.campaign_argv(index, algorithm, out))
        return (code, captured.getvalue(), out), PERF() - start

    # ---- checks
    def check_loop(self, index: int, result) -> tuple[str, int, str | None]:
        """Digest and invariant check of a loop run; returns (digest, fe, problem)."""
        with open(os.path.join(self.out_dir, "trace.csv"), "rb") as handle:
            data = handle.read()
        digest = hashlib.sha256(
            data + b"\n" + repr(float(result.best_error)).encode() + b"\n" + str(result.fe_used).encode()
        ).hexdigest()
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        errors = [float(row["best_error"]) for row in rows]
        problem = self._budget_problem(result.fe_used)
        if problem is None and not errors:
            problem = "empty trace"
        elif problem is None and not all(math.isfinite(e) and e >= 0.0 for e in errors):
            problem = "trace best_error not finite and non-negative"
        elif problem is None and any(b > a for a, b in zip(errors, errors[1:])):
            problem = "trace best_error increases"
        return digest, result.fe_used, problem or self._golden_problem(index, digest)

    def check_campaign(self, index: int, outcome) -> tuple[str, int, str | None]:
        code, output, out = outcome
        contents = {}
        for name in ("runs.csv", "summary.csv", "summary.json"):
            with open(os.path.join(out, name), "rb") as handle:
                contents[name] = handle.read()
        digest = " ".join(hashlib.sha256(contents[n]).hexdigest() for n in sorted(contents))
        rows = list(csv.DictReader(io.StringIO(contents["runs.csv"].decode())))
        fe = sum(int(row["fe_used"]) for row in rows)
        cells = json.loads(contents["summary.json"])["cells"]
        problem = None
        if code != 0 or "FAILED" in output:
            problem = f"bench exited {code}: {output.strip()[-200:]}"
        elif any("error" in cell for cell in cells):
            problem = "summary.json reports a failed cell"
        elif len(rows) != len(self.plan.functions) * self.plan.runs_per_cell:
            problem = f"runs.csv holds {len(rows)} rows"
        else:
            for row in rows:
                error = float(row["best_error"])
                problem = self._budget_problem(int(row["fe_used"]))
                if problem is None and not (math.isfinite(error) and error >= 0.0):
                    problem = f"best_error {error!r} not finite and non-negative"
                if problem:
                    break
        return digest, fe, problem or self._golden_problem(index, digest)

    def _budget_problem(self, fe_used: int) -> str | None:
        if not self.budget - ITERATION_SLACK < fe_used <= self.budget:
            return f"fe_used {fe_used} outside ({self.budget - ITERATION_SLACK}, {self.budget}]"
        return None

    def _golden_problem(self, index: int, digest: str) -> str | None:
        if index < len(self.expected) and self.expected[index] != digest:
            return "digest differs from the golden one"
        return None

    # ---- units
    def cell(self, index: int) -> tuple[str, str | None]:
        """(algorithm, function) of unit ``index``; units cycle over the cells."""
        return self.cells[index % len(self.cells)]

    def run_one(self, index: int, api: Api | None = None) -> dict:
        """Run and check unit ``index``; a failure is recorded, never raised."""
        api = api or self.api
        algorithm, function = self.cell(index)
        record = {"index": index, "algorithm": algorithm, "function": function}
        try:
            if self.plan.kind == "loop":
                outcome, seconds = self.run_loop(index, api.run_fns[algorithm], api.specs[function], api.write_trace_csv)
                digest, fe, problem = self.check_loop(index, outcome)
            else:
                outcome, seconds = self.run_campaign_call(index, algorithm, api.cli_main)
                digest, fe, problem = self.check_campaign(index, outcome)
            record.update(seconds=seconds, fe=fe, digest=digest, problem=problem)
        except Exception as exc:  # a failed run counts against the workload; the loop goes on
            record.update(seconds=0.0, fe=0, digest=None, problem=f"{type(exc).__name__}: {exc}")
        return record


def _samples(units: list, plan: Plan, key: str) -> list[float]:
    """Milliseconds per run unit (a campaign unit spans both calls)."""
    width = 1 if plan.kind == "loop" else len(ALGORITHMS)
    return [sum(u[key] for u in units[i : i + width]) * 1e3 for i in range(0, len(units), width)]


def _us_per_fe(units: list, key: str, algorithm: str | None = None) -> float:
    chosen = [u for u in units if algorithm in (None, u["algorithm"])]
    fe = sum(u["fe"] for u in chosen)
    return sum(u[key] for u in chosen) / fe * 1e6 if fe else math.nan


def peak_rss_mb(plan: Plan) -> float:
    """Own peak RSS plus, with a pool, ``jobs`` times the largest worker's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if plan.jobs > 1 else 0
    return (own + plan.jobs * workers) / 1024.0


def measure_slice(workload: Workload, seconds: float, first_index: int, last: bool) -> dict:
    """One worker's share of the untraced measured phase.

    Runs units from ``first_index`` on until ``seconds`` are (about) spent;
    the ``last`` worker then finishes the cycle over the cells, so that the
    whole phase holds every cell equally often.  Every unit is bracketed by
    calibration samples taken outside its timing; ``ref_seconds`` is its
    wall time rescaled to reference speed.
    """
    calibrator = Calibrator()
    units: list = []
    index = first_index
    start = PERF()
    before = calibrator.sample()
    while True:
        unit = workload.run_one(index)
        after = calibrator.sample()
        unit["speed_scale"] = calibrator.scale(before, after)
        unit["ref_seconds"] = unit["seconds"] * unit["speed_scale"]
        units.append(unit)
        before = after
        index += 1
        # stop where the next unit would end further past ``seconds`` than this one
        if PERF() - start + (PERF() - start) / len(units) / 2.0 >= seconds:
            if not last or index % len(workload.cells) == 0:
                break
    return {"units": units, "peak_rss_mb": peak_rss_mb(workload.plan)}


def summarize(units: list, plan: Plan, peak_rss: float, measured_s: float) -> dict:
    """End-to-end metrics (at reference speed) and their raw wall-time twins."""
    metrics, raw = {}, {}
    for key, out in (("ref_seconds", metrics), ("seconds", raw)):
        samples = _samples(units, plan, key)
        out["us_per_fe"] = (_us_per_fe(units, key), "us/FE")
        for algorithm in ALGORITHMS:
            out[f"us_per_fe.{algorithm}"] = (_us_per_fe(units, key, algorithm), "us/FE")
        out["run_ms_p50"] = (statistics.median(samples), "ms")
        out["run_ms_p90"] = (statistics.quantiles(samples, n=10)[-1] if len(samples) > 1 else samples[0], "ms")
    metrics["peak_rss_mb"] = (peak_rss, "MB")
    return {
        "metrics": metrics,
        "raw": raw,
        "units": units,
        "problems": problems_of(units),
        "attempted": len(units),
        "failed": sum(1 for u in units if u["problem"]),
        "run_unit_samples": len(samples),
        "speed_scale_median": statistics.median(u["speed_scale"] for u in units),
        "measured_s": measured_s,
    }


def _per_call(total: float, calls: int, scale: float) -> float:
    return total / calls * scale if calls else 0.0


def _share(part: float, base: float) -> float:
    return part / base if base > 0 else 0.0


def _traced_set(workload: Workload, spool: str, keep_spans: bool) -> tuple[Tracer, list]:
    """Run the fixed traced set once with every wrapper installed."""
    import ampso.optimizer

    tracer = Tracer(spool_dir=spool)
    plan = workload.plan
    units: list = []
    tracer.install(campaign=plan.kind == "campaign")
    try:
        api = Api(
            {a: tracer.wrap_run(f"optimizer.run_{a}", getattr(ampso.optimizer, f"run_{a}")) for a in ALGORITHMS},
            {f: tracer.wrap_spec(s) for f, s in workload.api.specs.items()},
            tracer.wrap("harness.write_trace_csv", workload.api.write_trace_csv),
            tracer.wrap("cli.main", workload.api.cli_main),
        )
        for index in range(plan.trace_cycles * len(workload.cells)):
            first_cycle = index < len(workload.cells)
            tracer.keep = tracer.keep_first_task = keep_spans and first_cycle  # one run per cell
            tracer.run_id = "{}/{}/unit{}".format(*workload.cell(index), index)
            units.append(workload.run_one(index, api))
            tracer.keep = False
            tracer.merge_spool()
    finally:
        tracer.uninstall()
    return tracer, units


def _bulk_us_per_fe(workload: Workload) -> float:
    """Objective floor: each raw function on 100 000 rows in big blocks."""
    rng = np.random.default_rng(derive_seed(workload.seed, "bulk", 0))
    dim = workload.plan.dim
    rows_per_call = min(BULK_ROWS, BULK_ELEMENTS_PER_CALL // dim)
    per_function = []
    for spec in workload.api.specs.values():
        block = rng.uniform(spec.bounds.lower, spec.bounds.upper, size=(rows_per_call, dim))
        repeats = []
        for _ in range(3):
            start = PERF()
            for _ in range(BULK_ROWS // rows_per_call):
                spec.function(block)
            repeats.append((PERF() - start) / BULK_ROWS * 1e6)
        per_function.append(statistics.median(repeats))
    return statistics.fmean(per_function)


def problems_of(units: list) -> list[str]:
    return [f"unit {u['index']} ({u['algorithm']} {u['function']}): {u['problem']}" for u in units if u["problem"]]


def traced(workload: Workload, spans_path: str) -> dict:
    """Per-layer run: the fixed set untraced once, then traced twice.

    The second traced set only proves that every count repeats exactly; the
    per-layer numbers come from the first, which also keeps full spans.
    """
    plan = workload.plan
    untraced_units = [workload.run_one(i) for i in range(plan.trace_cycles * len(workload.cells))]
    spool = os.path.join(workload.out_dir, "spool")
    os.makedirs(spool, exist_ok=True)
    tracer, units = _traced_set(workload, spool, keep_spans=True)
    again, units_again = _traced_set(workload, spool, keep_spans=False)
    shutil.rmtree(spool, ignore_errors=True)
    span_count = tracer.write_spans(spans_path)

    problems = problems_of(untraced_units) + problems_of(units) + problems_of(units_again)
    digests = [u["digest"] for u in untraced_units]
    if [u["digest"] for u in units] != digests or [u["digest"] for u in units_again] != digests:
        problems.append("traced outputs differ from untraced ones")
    counts, counts_again = tracer.snapshot_counts(), again.snapshot_counts()
    if counts != counts_again:
        changed = sorted(k for k in counts.keys() | counts_again.keys() if counts.get(k) != counts_again.get(k))
        problems.append(f"counts differ between the two traced sets: {', '.join(changed)}")
    fe_total = sum(u["fe"] for u in units)
    if tracer.rows("benchmarks.objective") != fe_total:
        problems.append(f"objective rows {tracer.rows('benchmarks.objective')} != sum of fe_used {fe_total}")

    traced_s = sum(u["seconds"] for u in units)
    untraced_s = sum(u["seconds"] for u in untraced_units)
    # the workers' busy time is covered by their own top-level spans
    reference_s = traced_s + tracer.worker_busy_s
    covered_s = sum(v[2] for v in tracer.stats.values())
    coverage = covered_s / reference_s if reference_s else 0.0
    if not 1.0 - COVERAGE_TOLERANCE <= coverage <= 1.0 + 1e-9:
        problems.append(f"self times cover {coverage:.4f} of traced wall time (tolerance {COVERAGE_TOLERANCE})")

    # shares: of the traced wall time, or of the workers' busy time for a pool
    base_s = tracer.worker_busy_s if plan.kind == "campaign" else traced_s
    t = tracer
    metrics: dict = {}  # every workload: the per-layer metrics of BENCHMARK.json
    extra: dict = {}  # layers only this workload goes through

    def put(name, value, unit, span=None, into=metrics):
        """Record a metric; 0 when the wrapped name ``span`` no longer exists."""
        into[name] = (0 if span in t.absent else value, unit)

    name = "diversity.hybrid_diversity"
    put(f"{name}.calls", t.calls(name), "count", name)
    put(f"{name}.us_per_call", _per_call(t.total(name), t.calls(name), 1e6), "us", name)
    put(f"{name}.share", _share(t.self_time(name), base_s), "ratio", name)
    for op in ("pso_step", "partial_reconstruct", "full_reconstruct", "spawn_artificial_swarm"):
        name = f"swarm_ops.{op}"
        put(f"{name}.calls", t.calls(name), "count", name)
        put(f"{name}.self_us_per_call", _per_call(t.self_time(name), t.calls(name), 1e6), "us", name)
        put(f"{name}.share", _share(t.self_time(name), base_s), "ratio", name)
    name = "core.evaluate_batch"
    put(f"{name}.calls", t.calls(name), "count", name)
    put(f"{name}.rows_per_call", _per_call(t.rows(name), t.calls(name), 1.0), "rows", name)
    put(f"{name}.self_us_per_call", _per_call(t.self_time(name), t.calls(name), 1e6), "us", name)
    name = "core.transform"
    put(f"{name}.us_per_call", _per_call(t.total(name), t.calls(name), 1e6), "us", name)
    put(f"{name}.share", _share(t.self_time(name), base_s), "ratio", name)
    name = "core.initialize_swarm"
    put(f"{name}.calls", t.calls(name), "count", name)
    put(f"{name}.us_per_call", _per_call(t.total(name), t.calls(name), 1e6), "us", name)
    put("core.budget_used_ratio", _share(t.counters["fe_used"], t.counters["budget"]), "ratio")
    name = "benchmarks.objective"
    put(f"{name}.rows", t.rows(name), "count", name)
    put(f"{name}.us_per_call", _per_call(t.total(name), t.calls(name), 1e6), "us", name)
    put(f"{name}.share", _share(t.self_time(name), base_s), "ratio", name)
    put(f"{name}.bulk_us_per_fe", _bulk_us_per_fe(workload), "us/FE")
    laws = [n for n in t.stats if n.startswith("adaptation.")]
    put("adaptation.calls", sum(t.calls(n) for n in laws), "count")
    put("adaptation.share", _share(sum(t.self_time(n) for n in laws), base_s), "ratio")
    runs = [f"optimizer.run_{a}" for a in ALGORITHMS]
    iterations = t.counters["iterations"]
    put("optimizer.self_share", _share(sum(t.self_time(n) for n in runs), base_s), "ratio")
    put("optimizer.iterations", iterations, "count")
    put("optimizer.phase_switches", t.counters["phase_switches"], "count")
    put("optimizer.us_per_iteration", _per_call(sum(t.total(n) for n in runs), iterations, 1e6), "us")
    put("trace_overhead_ratio", _share(traced_s, untraced_s) - 1.0, "ratio")

    if plan.kind == "loop":
        name = "harness.write_trace_csv"
        put(f"{name}.ms_per_call", _per_call(t.total(name), t.calls(name), 1e3), "ms", name, extra)
        put(f"{name}.share", _share(t.self_time(name), base_s), "ratio", name, extra)
    else:
        campaign_s = t.total("harness.run_campaign")
        efficiency = _share(t.worker_busy_s, plan.jobs * campaign_s)
        put("harness.parallel_efficiency", efficiency, "ratio", "harness.run_campaign", extra)
        name = "harness.write_campaign_outputs"
        put(f"{name}_ms", _per_call(t.total(name), t.calls(name), 1e3), "ms", name, extra)
        overhead_s = t.total("cli.main") - campaign_s - t.total(name)
        put("cli.overhead_ms", _per_call(overhead_s, t.calls("cli.main"), 1e3), "ms", "harness.run_campaign", extra)

    return {
        "metrics": metrics,
        "extra": extra,
        "units": units,
        "problems": problems,
        "attempted": len(untraced_units) + len(units) + len(units_again),
        "failed": sum(1 for u in untraced_units + units + units_again if u["problem"]),
        "absent": sorted(t.absent),
        "coverage": coverage,
        "counts": counts,
        "spans_written": span_count,
    }
