"""Golden-digest guard: seed-0 outputs must match perfbench/golden.json.

Runs one unit per cell of each benchmark workload through the benchmark's
own ``Workload`` class (imported, never modified) and fails on any digest
or invariant problem, so a change of results shows up in the test suite
and not only in the benchmark.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
CELLS = {"paper-d10": 6, "rotated-d100": 8, "campaign-jobs2": 2}


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def golden():
    with open(PERFBENCH / "golden.json") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name, index", [(name, i) for name, n in CELLS.items() for i in range(n)])
def test_seed0_unit_matches_golden_digest(workloads, golden, tmp_path, name, index):
    workload = workloads.Workload(name, 0, "full", golden, str(tmp_path))
    assert len(workload.cells) == CELLS[name]
    assert index < len(workload.expected)
    unit = workload.run_one(index)
    assert unit["problem"] is None, unit["problem"]
