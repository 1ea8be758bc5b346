"""The benchmark tracer's patch sites must exist in the library.

``perfbench/tracer.py`` (imported, never modified) wraps library functions
where the library looks them up, and records a name it cannot find as
absent instead of failing.  So a renamed or moved function would only
show as a missing span in a traced benchmark run; here it fails a test.
The same holds for the objective and transform the tracer wraps on a
problem instance: a run that evaluated through anything but the caller's
problem would trace neither.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from ampso import harness
from ampso.benchmarks import make_spec, random_rotation
from ampso.optimizer import AmpsoConfig, run_ampso, run_gpso, run_gpso_lockstep

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_lookup_resolves(tracer):
    for name, module, attribute in tracer.LOOKUPS + tracer.CAMPAIGN_LOOKUPS:
        assert hasattr(importlib.import_module(module), attribute), f"{name}: {module}.{attribute} is absent"


def test_campaign_patch_sites_exist():
    assert {"ampso", "gpso"} <= set(harness.ALGORITHMS)
    assert callable(harness.make_spec)
    assert callable(harness.execute_run)


def _run_each_seed(run):
    return lambda config, spec, seeds: [run(config, spec, seed=seed) for seed in seeds]


@pytest.mark.parametrize(
    "runs", [_run_each_seed(run_ampso), _run_each_seed(run_gpso), run_gpso_lockstep], ids=["ampso", "gpso", "lockstep"]
)
def test_runs_evaluate_through_the_callers_problem(tracer, runs):
    rng = np.random.default_rng(7)
    spec = make_spec("rastrigin", 5, shift=rng.uniform(-2.0, 2.0, 5), rotation=random_rotation(5, rng))
    traced = tracer.Tracer()
    results = runs(AmpsoConfig(fe_budget=1000), traced.wrap_spec(spec), [0, 1])
    objective_calls = traced.calls("benchmarks.objective")
    assert objective_calls > 0
    assert traced.calls("core.transform") == objective_calls
    assert traced.rows("benchmarks.objective") == sum(result.fe_used for result in results)
