"""Experiment harness: seeded runs, campaign statistics, file outputs.

A campaign is a grid of (algorithm, function, dimension) cells, each run R
times with seeds ``base_seed + run_index`` so any single run can be
re-derived.  Outputs are deterministic: rerunning a campaign with the same
base seed produces byte-identical files.  A cell of an algorithm in
``LOCKSTEP`` is one task whose R runs step together, with the same
results as R tasks of one run each.

File layout under the output directory:
    runs.csv      one row per run (the raw material for the summaries)
    summary.csv   one row per cell with the aggregate statistics
    summary.json  the same cells as JSON plus conventions metadata
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field
from itertools import product
from typing import NamedTuple

import numpy as np

from .benchmarks import get_entry, make_spec
from .core import is_integer, safe_repr
from .optimizer import AmpsoConfig, RunResult, TracePoint, run_ampso, run_gpso, run_gpso_lockstep

__all__ = [
    "ALGORITHMS",
    "LOCKSTEP",
    "StatsSummary",
    "CampaignSpec",
    "CellResult",
    "execute_run",
    "run_campaign",
    "write_campaign_outputs",
    "write_trace_csv",
    "TRACE_COLUMNS",
]

# a campaign writes no trace, so its runs keep none
ALGORITHMS = {"ampso": functools.partial(run_ampso, trace=False), "gpso": functools.partial(run_gpso, trace=False)}

# cell entries: every run of one of these algorithms' cells takes the same
# iterations, so a cell's runs step as one swarm of a group per run
LOCKSTEP = {"gpso": functools.partial(run_gpso_lockstep, trace=False)}

TRACE_COLUMNS = TracePoint._fields


class StatsSummary(NamedTuple):
    """Aggregate of final errors over a cell's runs (population std); the
    field names are the statistic columns of summary.csv and summary.json."""

    mean: float
    std: float
    best: float
    worst: float
    median: float

    @classmethod
    def from_errors(cls, errors) -> "StatsSummary":
        e = np.asarray(errors, dtype=float)
        if e.size == 0:
            raise ValueError("at least one run is required")
        return cls(
            mean=float(e.mean()),
            std=float(e.std()),
            best=float(e.min()),
            worst=float(e.max()),
            median=float(np.median(e)),
        )


@dataclass(frozen=True)
class CampaignSpec:
    """A benchmark campaign: the full grid and its execution knobs."""

    algorithms: tuple[str, ...] = ("ampso",)
    functions: tuple[str, ...] = ("rastrigin",)
    dimensions: tuple[int, ...] = (10,)
    runs: int = 30
    base_seed: int = 0
    config: AmpsoConfig = field(default_factory=AmpsoConfig)
    jobs: int = 1

    def validate(self) -> None:
        """Reject a bad grid before any run: config, counts, seeds, names, dimensions.

        Each grid axis needs at least one entry and may list none twice.
        Counts, seeds and dimensions must be integers, not bools.  The
        budget must cover each algorithm's first swarm in every dimension.
        """
        self.config.validate()
        counts = [("runs", self.runs), ("jobs", self.jobs), ("base_seed", self.base_seed)]
        for name, value in counts + [("each dimension", dim) for dim in self.dimensions]:
            if not is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        first, last = int(self.base_seed), int(self.base_seed) + int(self.runs) - 1
        if not 0 <= first <= last < 2**64:
            raise ValueError(f"run seeds {safe_repr(first)}..{safe_repr(last)} must fit in an unsigned 64-bit integer")
        for algorithm in self.algorithms:
            if algorithm not in ALGORITHMS:
                known = ", ".join(sorted(ALGORITHMS))
                raise ValueError(f"unknown algorithm {algorithm!r}; available: {known}")
        for function in self.functions:
            get_entry(function)  # raises UnknownFunctionError, a ValueError
        if any(dim < 1 for dim in self.dimensions):
            raise ValueError("dimensions must be at least 1")
        for axis in ("algorithms", "functions", "dimensions"):
            entries = getattr(self, axis)
            if not entries:
                raise ValueError(f"{axis} must not be empty")
            for entry in entries:
                if entries.count(entry) > 1:
                    raise ValueError(f"{axis} lists {entry!r} more than once")
        for algorithm in self.algorithms:  # the smallest dimension has the smallest budget
            self.config.resolved_budget(min(self.dimensions), algorithm)

    def cells(self):
        return product(self.algorithms, self.functions, self.dimensions)

    def tasks(self) -> list[tuple]:
        """The campaign's tasks ``(algorithm, function, dim, run, seed, config, runs)``.

        A task runs ``runs`` runs from index ``run`` and seed ``seed`` on:
        a whole cell of an algorithm in ``LOCKSTEP``, one run otherwise.
        The tasks with the most runs come first, so a pool does not end on
        one long cell task while its other workers stand idle.
        """
        tasks = []
        for algorithm, function, dim in self.cells():
            if algorithm in LOCKSTEP and self.runs > 1:
                tasks.append((algorithm, function, dim, 0, self.base_seed, self.config, self.runs))
            else:
                seeds = range(self.base_seed, self.base_seed + self.runs)
                tasks += [(algorithm, function, dim, run, seed, self.config, 1) for run, seed in enumerate(seeds)]
        return sorted(tasks, key=lambda task: -task[-1])


class RunRecord(NamedTuple):
    """One run, fields in runs.csv column order; ``error`` is not written."""

    algorithm: str
    function: str
    dim: int
    run: int
    seed: int
    best_error: float
    fe_used: int
    error: str | None = None  # "type: message" of a failed run


class CellResult(NamedTuple):
    """One cell; the fields before ``stats`` are its summary key columns."""

    algorithm: str
    function: str
    dim: int
    runs: int
    stats: StatsSummary
    error: str | None = None  # set when a run failed: which one, and why


RUNS_COLUMNS = RunRecord._fields[:-1]
CELL_KEYS = CellResult._fields[: CellResult._fields.index("stats")]


def execute_run(task) -> list[RunRecord]:
    """Run one task of :meth:`CampaignSpec.tasks`, a record per run; picklable for pools.

    A task of more than one run steps them together through its
    algorithm's ``LOCKSTEP`` entry.
    """
    algorithm, function, dim, run, seed, config, runs = task
    spec = make_spec(function, dim)
    if runs == 1:
        results = [ALGORITHMS[algorithm](config, spec, seed=seed)]
    else:
        results = LOCKSTEP[algorithm](config, spec, range(seed, seed + runs))
    return [
        RunRecord(algorithm, function, dim, run + i, seed + i, result.best_error, result.fe_used)
        for i, result in enumerate(results)
    ]


def _execute_or_flag(task) -> list[RunRecord]:
    """Like execute_run but a failure becomes a NaN record naming the exception.

    A failed task of several runs is run again one run at a time, so each
    run that fails gets its own record and reason.
    """
    try:
        return execute_run(task)
    except Exception as exc:
        algorithm, function, dim, run, seed, config, runs = task
        if runs > 1:
            singles = [(algorithm, function, dim, run + i, seed + i, config, 1) for i in range(runs)]
            return [record for single in singles for record in _execute_or_flag(single)]
        return [RunRecord(algorithm, function, dim, run, seed, math.nan, 0, f"{type(exc).__name__}: {exc}")]


def run_campaign(campaign: CampaignSpec) -> tuple[list[RunRecord], list[CellResult]]:
    """Execute every cell; per-cell failures are recorded, not fatal.

    At most ``jobs`` worker processes run the tasks, and never more workers
    than tasks: a pool starts all its workers at the first task.
    """
    campaign.validate()
    tasks = campaign.tasks()
    workers = min(campaign.jobs, len(tasks))
    if workers > 1:
        # imported here, not at module level: the pool's modules would cost
        # every single-run process memory and import time for nothing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_execute_or_flag, tasks, chunksize=1))
    else:
        outcomes = [_execute_or_flag(task) for task in tasks]

    records = sorted((r for batch in outcomes for r in batch), key=lambda r: r[:4])  # algorithm, function, dim, run
    cells: list[CellResult] = []
    for cell in campaign.cells():
        cell_records = [r for r in records if r[:3] == cell]
        failed = next((r for r in cell_records if r.error), None)
        if failed is None:
            stats, error = StatsSummary.from_errors([r.best_error for r in cell_records]), None
        else:
            stats = StatsSummary(math.nan, math.nan, math.nan, math.nan, math.nan)
            error = f"run {failed.run} (seed {failed.seed}) failed: {failed.error}"
        cells.append(CellResult(*cell, len(cell_records), stats, error))
    return records, cells


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file beside it.

    A failure leaves no temporary file behind, and an ``OSError`` names
    ``path``, the path the caller gave, not the temporary file: a missing
    directory, or a ``path`` that is a directory.
    """
    tmp = path + ".tmp"
    created = False
    try:
        with open(tmp, "w", newline="") as handle:
            created = True
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if created:
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise type(exc)(exc.errno, exc.strerror, path) from None
        raise


def _csv_text(header, rows) -> str:
    # every field is a registry name, an int or a float (whose str is its
    # repr), none of which csv would quote, so plain joins write its bytes
    return "".join(",".join(map(str, row)) + "\n" for row in (header, *rows))


def _json_number(value: float) -> float | None:
    """JSON has no NaN or infinity: non-finite statistics are written as null."""
    return value if math.isfinite(value) else None


def write_campaign_outputs(
    out_dir: str, records: list[RunRecord], cells: list[CellResult]
) -> dict[str, str]:
    """Write runs.csv, summary.csv and summary.json; returns their paths."""
    os.makedirs(out_dir, exist_ok=True)

    runs_path = os.path.join(out_dir, "runs.csv")
    _atomic_write(
        runs_path,
        _csv_text(RUNS_COLUMNS, [r[: len(RUNS_COLUMNS)] for r in records]),
    )

    summary_path = os.path.join(out_dir, "summary.csv")
    summary_header = (*CELL_KEYS, *StatsSummary._fields)
    _atomic_write(
        summary_path,
        _csv_text(summary_header, [(*c[: len(CELL_KEYS)], *c.stats) for c in cells]),
    )

    json_path = os.path.join(out_dir, "summary.json")
    payload = {
        "metadata": {
            "std_convention": "population (divide by run count)",
            "seed_derivation": "seed = base_seed + run_index",
            "error_form": "objective value minus known optimum",
        },
        "cells": [
            {
                **dict(zip(CELL_KEYS, c)),
                **{name: _json_number(value) for name, value in c.stats._asdict().items()},
                **({"error": c.error} if c.error else {}),
            }
            for c in cells
        ],
    }
    _atomic_write(json_path, json.dumps(payload, indent=2, allow_nan=False) + "\n")

    return {"runs": runs_path, "summary_csv": summary_path, "summary_json": json_path}


def write_trace_csv(path: str, result: RunResult, stride: int | None = None) -> None:
    """Write a run's trace; ``stride`` keeps rows at least that many FEs apart.

    The first and last rows are always kept.  An untraced result, whose
    trace is empty, is rejected: every traced run logs its first swarm.
    """
    points = result.trace
    if not points:
        raise ValueError("the result holds no trace: run it with trace=True")
    if stride is not None and stride > 1:
        kept = [points[0]]
        for point in points[1:-1]:
            if point.fe - kept[-1].fe >= stride:
                kept.append(point)
        if len(points) > 1:
            kept.append(points[-1])
        points = kept

    # every field is an int, a fixed phase name or a float repr, none of
    # which csv would quote, so plain joins write the same bytes faster
    lines = [",".join(TRACE_COLUMNS)]
    lines += [
        f"{p.fe},{p.iteration},{p.phase},{p.best_error!r},{p.diversity!r},{p.omega!r},{p.er!r}"
        for p in points
    ]
    lines.append("")
    _atomic_write(path, "\n".join(lines))
