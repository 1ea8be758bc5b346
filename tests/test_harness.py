import concurrent.futures
import csv
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ampso.optimizer
from ampso import harness
from ampso.harness import (
    TRACE_COLUMNS,
    CampaignSpec,
    StatsSummary,
    run_campaign,
    write_campaign_outputs,
    write_trace_csv,
)
from ampso.optimizer import AmpsoConfig, PhaseSpan, RunResult, TracePoint, run_ampso, run_gpso_lockstep
from ampso.benchmarks import make_spec
from ampso.core import EvalCounter, RngStream, initialize_swarm
from conftest import half_nan_sphere, sphere_with

TINY = AmpsoConfig(fe_budget=2000)


def one_pass_stats(errors):
    """Independent textbook recomputation (population std)."""
    n = len(errors)
    mean = sum(errors) / n
    var = sum((e - mean) ** 2 for e in errors) / n
    ordered = sorted(errors)
    mid = n // 2
    median = ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2
    return mean, math.sqrt(var), min(errors), max(errors), median


class TestStatsSummary:
    def test_hand_case(self):
        stats = StatsSummary.from_errors([1.0, 2.0, 3.0])
        assert stats.mean == 2.0
        assert stats.median == 2.0
        assert stats.best == 1.0
        assert stats.worst == 3.0
        assert stats.std == pytest.approx(0.816496580927726, abs=1e-12)

    def test_single_run_degenerates(self):
        stats = StatsSummary.from_errors([4.2])
        assert stats.mean == stats.best == stats.worst == stats.median == 4.2
        assert stats.std == 0.0

    def test_order_invariants_on_random_samples(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            errors = rng.uniform(0, 100, size=int(rng.integers(1, 40)))
            stats = StatsSummary.from_errors(errors)
            assert stats.best <= stats.median <= stats.worst
            assert stats.std >= 0.0

    def test_matches_one_pass_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            errors = list(rng.uniform(0, 10, size=int(rng.integers(1, 25))))
            stats = StatsSummary.from_errors(errors)
            mean, std, best, worst, median = one_pass_stats(errors)
            assert stats.mean == pytest.approx(mean, abs=1e-12)
            assert stats.std == pytest.approx(std, abs=1e-12)
            assert (stats.best, stats.worst) == (best, worst)
            assert stats.median == pytest.approx(median, abs=1e-12)


class TestCampaign:
    def test_seed_derivation(self):
        campaign = CampaignSpec(runs=3, base_seed=100, config=TINY, functions=("sphere",), dimensions=(2,))
        records, _ = run_campaign(campaign)
        assert [r.seed for r in records] == [100, 101, 102]

    def test_summary_recomputable_from_runs_file(self, tmp_path):
        campaign = CampaignSpec(
            algorithms=("ampso", "gpso"),
            functions=("sphere", "rastrigin"),
            dimensions=(2,),
            runs=3,
            base_seed=5,
            config=TINY,
        )
        records, cells = run_campaign(campaign)
        paths = write_campaign_outputs(str(tmp_path), records, cells)

        with open(paths["runs"]) as handle:
            rows = list(csv.DictReader(handle))
        with open(paths["summary_json"]) as handle:
            summary = json.load(handle)

        for cell in summary["cells"]:
            errors = [
                float(r["best_error"])
                for r in rows
                if (r["algorithm"], r["function"], int(r["dim"]))
                == (cell["algorithm"], cell["function"], cell["dim"])
            ]
            assert len(errors) == cell["runs"] == 3
            mean, std, best, worst, median = one_pass_stats(errors)
            assert cell["mean"] == pytest.approx(mean, abs=1e-12)
            assert cell["std"] == pytest.approx(std, abs=1e-12)
            assert cell["best"] == pytest.approx(best, abs=1e-12)
            assert cell["worst"] == pytest.approx(worst, abs=1e-12)
            assert cell["median"] == pytest.approx(median, abs=1e-12)

    def test_rerun_is_byte_identical(self, tmp_path):
        campaign = CampaignSpec(functions=("griewank",), dimensions=(2,), runs=2, base_seed=9, config=TINY)
        for sub in ("a", "b"):
            records, cells = run_campaign(campaign)
            write_campaign_outputs(str(tmp_path / sub), records, cells)
        for name in ("runs.csv", "summary.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_two_algorithms_align(self):
        campaign = CampaignSpec(
            algorithms=("ampso", "gpso"), functions=("sphere",), dimensions=(2,), runs=2, config=TINY
        )
        _, cells = run_campaign(campaign)
        keys = {(c.algorithm, c.function, c.dim) for c in cells}
        assert keys == {("ampso", "sphere", 2), ("gpso", "sphere", 2)}

    def test_parallel_jobs_match_serial(self):
        serial = CampaignSpec(functions=("sphere",), dimensions=(2,), runs=4, config=TINY, jobs=1)
        parallel = CampaignSpec(functions=("sphere",), dimensions=(2,), runs=4, config=TINY, jobs=2)
        records_s, cells_s = run_campaign(serial)
        records_p, cells_p = run_campaign(parallel)
        assert records_s == records_p
        assert cells_s == cells_p

    @pytest.mark.parametrize("algorithm, runs, workers", [("ampso", 3, [3]), ("gpso", 3, []), ("gpso", 1, [])])
    def test_pool_starts_no_more_workers_than_tasks(self, monkeypatch, algorithm, runs, workers):
        # a pool starts all its workers at the first task, so 500 jobs for
        # fewer tasks would start processes that never work
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, function, tasks, chunksize=1):
                return map(function, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        grid = dict(algorithms=(algorithm,), functions=("sphere",), dimensions=(2,), runs=runs, config=TINY)
        records, cells = run_campaign(CampaignSpec(**grid, jobs=500))
        assert started == workers
        assert (records, cells) == run_campaign(CampaignSpec(**grid, jobs=1))

    def test_single_runs_load_no_pool(self):
        # a fresh interpreter: this one has loaded the pool already
        script = """
import os, sys, tempfile
import ampso, ampso.cli
from ampso import AmpsoConfig, CampaignSpec, make_spec, run_campaign, run_gpso, write_trace_csv

def pool_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] in ("concurrent", "multiprocessing"))

config = AmpsoConfig(fe_budget=2000)
with tempfile.TemporaryDirectory() as out:
    write_trace_csv(os.path.join(out, "trace.csv"), run_gpso(config, make_spec("sphere", 2), seed=0))
assert not pool_modules(), pool_modules()
grid = dict(algorithms=("ampso",), functions=("sphere",), dimensions=(2,), runs=2, config=config)
assert run_campaign(CampaignSpec(**grid, jobs=2)) == run_campaign(CampaignSpec(**grid, jobs=1))
assert "concurrent.futures.process" in sys.modules, pool_modules()
"""
        src = os.path.dirname(os.path.dirname(harness.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_failed_cell_writes_strict_json(self, tmp_path, monkeypatch):
        def crash(config, spec, seed=None):
            raise RuntimeError("objective blew up")

        monkeypatch.setitem(harness.ALGORITHMS, "gpso", crash)
        # a gpso cell steps its runs together; its crash sends them through ALGORITHMS one by one
        monkeypatch.setitem(harness.LOCKSTEP, "gpso", lambda config, spec, seeds: crash(config, spec))
        campaign = CampaignSpec(
            algorithms=("ampso", "gpso"), functions=("sphere",), dimensions=(2,), runs=2, config=TINY
        )
        records, cells = run_campaign(campaign)
        paths = write_campaign_outputs(str(tmp_path), records, cells)

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        with open(paths["summary_json"]) as handle:
            summary = json.load(handle, parse_constant=reject)
        ok, failed = summary["cells"]
        assert "error" not in ok and math.isfinite(ok["mean"])
        assert "objective blew up" in failed["error"]
        assert failed["error"] == "run 0 (seed 0) failed: RuntimeError: objective blew up"
        assert [failed[k] for k in ("mean", "std", "best", "worst", "median")] == [None] * 5
        with open(paths["runs"]) as handle:
            assert next(csv.reader(handle)) == ["algorithm", "function", "dim", "run", "seed", "best_error", "fe_used"]

    def test_campaign_bytes_match_csv_writer(self, tmp_path, monkeypatch):
        def crash(config, spec, seed=None):
            raise RuntimeError("objective blew up")

        monkeypatch.setitem(harness.ALGORITHMS, "gpso", crash)
        monkeypatch.setitem(harness.LOCKSTEP, "gpso", lambda config, spec, seeds: crash(config, spec))
        campaign = CampaignSpec(
            algorithms=("ampso", "gpso"), functions=("sphere", "griewank"), dimensions=(2,), runs=2, config=TINY
        )
        records, cells = run_campaign(campaign)
        write_campaign_outputs(str(tmp_path), records, cells)
        assert sum(math.isnan(r.best_error) for r in records) == 4  # every gpso run failed

        def csv_writer_bytes(header, rows):
            buffer = io.StringIO()
            writer = csv.writer(buffer, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
            return buffer.getvalue().encode()

        runs = [(r.algorithm, r.function, r.dim, r.run, r.seed, repr(r.best_error), r.fe_used) for r in records]
        runs_header = ("algorithm", "function", "dim", "run", "seed", "best_error", "fe_used")
        assert (tmp_path / "runs.csv").read_bytes() == csv_writer_bytes(runs_header, runs)
        summary = [(c.algorithm, c.function, c.dim, c.runs, *map(repr, c.stats)) for c in cells]
        summary_header = ("algorithm", "function", "dim", "runs", "mean", "std", "best", "worst", "median")
        assert (tmp_path / "summary.csv").read_bytes() == csv_writer_bytes(summary_header, summary)

    def test_nan_objective_fails_its_cell(self, monkeypatch):
        monkeypatch.setattr(harness, "make_spec", lambda function, dim: half_nan_sphere(dim))
        campaign = CampaignSpec(algorithms=("gpso",), functions=("sphere",), dimensions=(2,), runs=2, config=TINY)
        _, (cell,) = run_campaign(campaign)
        assert re.fullmatch(
            r"run 0 \(seed 0\) failed: ValueError: objective returned NaN for \d+ of \d+ points", cell.error
        )

    def test_nan_in_one_run_of_a_cell_falls_back_run_by_run(self, monkeypatch):
        # the first point run 1 (seed 1) draws, which no other run meets, reads NaN
        spec = make_spec("sphere", 2)
        poisoned = initialize_swarm(spec, TINY.convergence_size, RngStream(1), np.ones(2), EvalCounter(40)).positions[0]

        def poisoned_sphere(x):
            return np.where((x == poisoned).all(axis=-1), np.nan, np.add.reduce(x * x, axis=-1))

        monkeypatch.setattr(harness, "make_spec", lambda function, dim: sphere_with(dim, poisoned_sphere))
        cells_tried = []

        def lockstep(config, spec, seeds):
            cells_tried.append(list(seeds))
            return run_gpso_lockstep(config, spec, seeds)

        monkeypatch.setitem(harness.LOCKSTEP, "gpso", lockstep)
        campaign = CampaignSpec(algorithms=("gpso",), functions=("sphere",), dimensions=(2,), runs=3, config=TINY)
        records, (cell,) = run_campaign(campaign)
        assert cells_tried == [[0, 1, 2]]
        assert cell.error == "run 1 (seed 1) failed: ValueError: objective returned NaN for 1 of 40 points"
        assert math.isnan(records[1].best_error) and records[1].fe_used == 0
        assert records[1].error == "ValueError: objective returned NaN for 1 of 40 points"
        for run in (0, 2):
            assert records[run] == harness.execute_run(("gpso", "sphere", 2, run, run, TINY, 1))[0]
            assert records[run].error is None and records[run].fe_used == 2000

    def test_a_gpso_cell_takes_no_diversity_reading(self, monkeypatch):
        # a campaign writes no trace, and gpso's reading fills only the trace
        readings, reading = [], ampso.optimizer.hybrid_diversity

        def counted(*args):
            readings.append(args[0].size)
            return reading(*args)

        monkeypatch.setattr(ampso.optimizer, "hybrid_diversity", counted)
        grid = dict(functions=("sphere",), dimensions=(2,), runs=3, config=TINY, jobs=1)
        records, (cell,) = run_campaign(CampaignSpec(algorithms=("gpso",), **grid))
        assert readings == [] and cell.error is None and [r.fe_used for r in records] == [2000] * 3
        run_campaign(CampaignSpec(algorithms=("ampso",), **grid))
        assert readings  # ampso's reading drives its control laws

    def test_cell_tasks_queue_before_single_runs(self):
        grid = dict(algorithms=("ampso", "gpso"), functions=("sphere", "ackley"), dimensions=(2,))
        tasks = CampaignSpec(**grid, runs=3, base_seed=5, config=TINY).tasks()
        cells = [("gpso", "sphere", 2, 0, 5, 3), ("gpso", "ackley", 2, 0, 5, 3)]
        assert [task[:5] + task[6:] for task in tasks[:2]] == cells
        singles = [("ampso", "sphere", 2, run, 5 + run, 1) for run in range(3)]
        assert [task[:5] + task[6:] for task in tasks[2:5]] == singles
        assert len(tasks) == 8 and all(task[5] is TINY for task in tasks)
        one_run = CampaignSpec(algorithms=("gpso",), functions=("sphere",), dimensions=(2,), runs=1, config=TINY)
        assert one_run.tasks() == [("gpso", "sphere", 2, 0, 0, TINY, 1)]

    @pytest.mark.parametrize(
        "axis, entries, message",
        [
            ("algorithms", (), "algorithms must not be empty"),
            ("functions", (), "functions must not be empty"),
            ("dimensions", (), "dimensions must not be empty"),
            ("algorithms", ("gpso", "ampso", "gpso"), "algorithms lists 'gpso' more than once"),
            ("functions", ("sphere", "sphere"), "functions lists 'sphere' more than once"),
            ("dimensions", (2, 2), "dimensions lists 2 more than once"),
        ],
    )
    def test_empty_or_repeated_grid_entry_rejected(self, axis, entries, message):
        with pytest.raises(ValueError, match=message):
            CampaignSpec(**{axis: entries}, config=TINY).validate()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("runs", 2.5, "runs must be an integer, got 2.5"),
            ("runs", True, "runs must be an integer, got True"),
            ("jobs", 2.0, "jobs must be an integer, got 2.0"),
            ("base_seed", 0.5, "base_seed must be an integer, got 0.5"),
            ("base_seed", "3", "base_seed must be an integer, got '3'"),
            ("dimensions", (2, 2.5), "each dimension must be an integer, got 2.5"),
            ("dimensions", (False,), "each dimension must be an integer, got False"),
        ],
    )
    def test_non_integer_count_seed_or_dimension_rejected(self, field, value, message):
        # a fractional base_seed would write seeds to runs.csv that no run used
        with pytest.raises(ValueError, match=re.escape(message)):
            CampaignSpec(**{field: value}, config=TINY).validate()

    @pytest.mark.parametrize(
        "runs, base_seed, message",
        [
            (3, -1, "run seeds -1..1 must fit"),
            (3, 2**64 - 2, "run seeds 18446744073709551614..18446744073709551616 must fit"),
            (10**5000, 0, "run seeds 0..an int of 16610 bits must fit"),
            (1, 10**5000, "run seeds an int of 16610 bits..an int of 16610 bits must fit"),
        ],
        ids=["negative", "past-2**64", "huge-runs", "huge-seed"],
    )
    def test_run_seeds_past_64_bits_rejected_by_range(self, runs, base_seed, message):
        # an int of more than 4,300 digits cannot be printed; its size stands in
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            CampaignSpec(runs=runs, base_seed=base_seed, config=TINY).validate()

    def test_numpy_integer_runs_and_seed_accepted(self):
        # the range is checked on Python ints: 2**64 - np.int64(3) overflows int64
        CampaignSpec(runs=np.int64(3), base_seed=np.uint64(2**64 - 3), config=TINY).validate()
        with pytest.raises(ValueError, match="^run seeds 5..18446744073709551619 must fit"):
            CampaignSpec(runs=np.uint64(2**64 - 1), base_seed=np.int64(5), config=TINY).validate()

    def test_budget_checked_against_each_algorithms_first_swarm(self):
        config = AmpsoConfig(exploration_size=500, fe_budget=100)
        CampaignSpec(algorithms=("gpso",), config=config).validate()
        for algorithms in (("ampso",), ("gpso", "ampso")):
            with pytest.raises(ValueError, match="at least 500 evaluations, got 100"):
                CampaignSpec(algorithms=algorithms, config=config).validate()

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            CampaignSpec(algorithms=("simulated-annealing",)).validate()

    def test_unknown_function_rejected(self):
        with pytest.raises(ValueError, match="'nosuch'"):
            CampaignSpec(functions=("nosuch",)).validate()
        with pytest.raises(ValueError, match="'nosuch'"):
            run_campaign(CampaignSpec(functions=("sphere", "nosuch"), config=TINY))


@pytest.fixture(scope="module")
def result():
    return run_ampso(TINY, make_spec("rastrigin", 2), seed=4)


class TestTraceCsv:
    def test_columns_and_monotonicity(self, tmp_path, result):
        path = tmp_path / "trace.csv"
        write_trace_csv(str(path), result)
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        assert tuple(rows[0].keys()) == TRACE_COLUMNS
        fes = [int(r["fe"]) for r in rows]
        errors = [float(r["best_error"]) for r in rows]
        assert all(b > a for a, b in zip(fes, fes[1:]))
        assert all(b <= a for a, b in zip(errors, errors[1:]))

    def test_stride_thins_rows(self, tmp_path, result):
        dense = tmp_path / "dense.csv"
        sparse = tmp_path / "sparse.csv"
        write_trace_csv(str(dense), result)
        write_trace_csv(str(sparse), result, stride=200)
        with open(dense) as handle:
            dense_rows = list(csv.DictReader(handle))
        with open(sparse) as handle:
            sparse_rows = list(csv.DictReader(handle))
        assert len(sparse_rows) < len(dense_rows)
        fes = [int(r["fe"]) for r in sparse_rows]
        assert all(b - a >= 200 for a, b in zip(fes[:-1], fes[1:-1]))
        # endpoints survive thinning
        assert sparse_rows[0] == dense_rows[0]
        assert sparse_rows[-1] == dense_rows[-1]

    @settings(max_examples=200, deadline=None)
    @given(
        fes=st.lists(st.integers(0, 300), min_size=1, max_size=40, unique=True).map(sorted),
        stride=st.integers(1, 100),
    )
    @example(fes=[0, 10, 20, 25], stride=10)  # rows exactly one stride apart are kept
    @example(fes=[0, 9, 20, 25], stride=10)  # and one FE less is dropped
    def test_stride_rule(self, tmp_path_factory, fes, stride):
        points = [TracePoint(fe, i, "exploration", 1.0, 0.5, 0.7, 0.0) for i, fe in enumerate(fes)]
        path = tmp_path_factory.getbasetemp() / "stride.csv"
        write_trace_csv(str(path), RunResult(np.zeros(2), 0.0, fes[-1], points, []), stride=stride)
        kept = [int(line.split(",")[0]) for line in path.read_text().splitlines()[1:]]
        remaining = iter(fes)
        assert all(fe in remaining for fe in kept)  # a subsequence
        assert kept[0] == fes[0] and kept[-1] == fes[-1]
        assert all(b - a >= stride for a, b in zip(kept[:-1], kept[1:-1]))
        for fe in set(fes) - set(kept):
            assert fe - max(k for k in kept if k < fe) < stride

    @pytest.mark.parametrize("stride", [None, 1, 7])
    def test_bytes_match_csv_writer(self, tmp_path, stride):
        points = [
            TracePoint(5, 0, "exploration", 12.5, 0.75, math.nan, math.nan),
            TracePoint(10, 1, "exploration", math.inf, -0.0, 0.9, math.nan),
            TracePoint(14, 2, "exploitation", 5e-324, 0.0, 0.6, -math.inf),
            TracePoint(30, 3, "exploitation", 1e300, 1 / 3, 0.5, -0.0),
            TracePoint(70, 4, "convergence", 0.0, 2.5e-17, 0.8, 1.0),
        ]
        result = RunResult(np.zeros(2), 0.0, 70, points, [PhaseSpan("exploration", 0, 70)])
        path = tmp_path / "trace.csv"
        write_trace_csv(str(path), result, stride=stride)
        kept = points if stride != 7 else [points[0], points[2], points[3], points[4]]
        with open(tmp_path / "reference.csv", "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(TRACE_COLUMNS)
            writer.writerows((p.fe, p.iteration, p.phase, *map(repr, p[3:])) for p in kept)
        assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()
