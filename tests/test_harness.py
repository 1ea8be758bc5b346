import csv
import json
import math
import re

import numpy as np
import pytest

from ampso import harness
from ampso.harness import (
    TRACE_COLUMNS,
    CampaignSpec,
    StatsSummary,
    run_campaign,
    write_campaign_outputs,
    write_trace_csv,
)
from ampso.optimizer import AmpsoConfig, PhaseSpan, RunResult, TracePoint, run_ampso
from ampso.benchmarks import make_spec
from conftest import half_nan_sphere

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

    def test_failed_cell_writes_strict_json(self, tmp_path, monkeypatch):
        def crash(config, spec, seed=None):
            raise RuntimeError("objective blew up")

        monkeypatch.setitem(harness.ALGORITHMS, "gpso", crash)
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

    def test_nan_objective_fails_its_cell(self, monkeypatch):
        monkeypatch.setattr(harness, "make_spec", lambda function, dim: half_nan_sphere(dim))
        campaign = CampaignSpec(algorithms=("gpso",), functions=("sphere",), dimensions=(2,), runs=2, config=TINY)
        _, (cell,) = run_campaign(campaign)
        assert re.fullmatch(
            r"run 0 \(seed 0\) failed: ValueError: objective returned NaN for \d+ of \d+ points", cell.error
        )

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
