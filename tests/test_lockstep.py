"""A lockstep gpso cell equals its runs made one at a time, bit for bit.

``run_gpso_lockstep`` steps a cell's runs as the groups of one swarm, in
slices of at most ``LOCKSTEP_RUNS``; a problem with a rotation runs one run
at a time.  Every field of every run's result must be what ``run_gpso``
gives for that seed alone, except an untraced cell's empty traces.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ampso.optimizer
from ampso.benchmarks import make_spec, random_rotation
from ampso.optimizer import LOCKSTEP_RUNS, AmpsoConfig, run_gpso, run_gpso_lockstep

PLAIN = [(name, dim) for name in ("sphere", "rastrigin", "ackley", "griewank", "rosenbrock") for dim in (2, 10)]


def shifted_rastrigin(rotated: bool):
    rng = np.random.default_rng(100)
    shift = rng.uniform(-80.0, 80.0, 100)
    return make_spec("rastrigin", 100, shift=shift, rotation=random_rotation(100, rng) if rotated else None)


PROBLEMS = {f"{name}-d{dim}": (lambda name=name, dim=dim: make_spec(name, dim)) for name, dim in PLAIN}
PROBLEMS["shifted-rastrigin-d100"] = lambda: shifted_rastrigin(False)
PROBLEMS["shifted-rotated-rastrigin-d100"] = lambda: shifted_rastrigin(True)


def fields_of(result):
    """Every compared field, floats as repr: equal strings are equal bits, NaN and signed zeros included."""
    return (
        [tuple(map(repr, point)) for point in result.trace],
        result.best_position.tobytes(),
        repr(result.best_error),
        result.fe_used,
        result.phase_log,
    )


@pytest.mark.parametrize(
    "problem, trace",
    [pytest.param(problem, True, id=problem) for problem in PROBLEMS]
    + [pytest.param(problem, False, id=f"{problem}-untraced") for problem in PROBLEMS],
)
@settings(max_examples=6, deadline=None)
@given(
    runs=st.sampled_from([1, 2, 3, 4]),
    first_seed=st.integers(0, 2**64 - 40),
    swarm=st.sampled_from([5, 10, 40]),
    budget=st.integers(40, 900),
)
@example(runs=LOCKSTEP_RUNS + 1, first_seed=2**64 - 40, swarm=10, budget=300)
@example(runs=3, first_seed=0, swarm=40, budget=40)  # the first swarm spends everything
@example(runs=3, first_seed=0, swarm=40, budget=79)  # the slack is one FE short of an iteration
def test_a_cell_equals_its_runs_one_at_a_time(problem, trace, runs, first_seed, swarm, budget):
    config = AmpsoConfig(convergence_size=swarm, fe_budget=budget)
    spec = PROBLEMS[problem]()
    seeds = range(first_seed, first_seed + runs)
    cell = run_gpso_lockstep(config, spec, seeds, trace=trace)
    alone = [fields_of(run_gpso(config, spec, seed)) for seed in seeds]
    if not trace:  # an untraced run keeps every field but its trace
        assert [result.trace for result in cell] == [[]] * runs
        alone = [([], *fields[1:]) for fields in alone]
    assert [fields_of(result) for result in cell] == alone


@pytest.mark.parametrize(
    "runs, rotated, steps_per_iteration",
    [(3, False, 1), (LOCKSTEP_RUNS, False, 1), (LOCKSTEP_RUNS + 1, False, 2), (3, True, 3)],
)
def test_a_cell_steps_each_slice_in_one_call(monkeypatch, runs, rotated, steps_per_iteration):
    calls = []

    def counted_step(swarm, *args):
        calls.append(swarm.size)
        return step(swarm, *args)

    step = ampso.optimizer.pso_step
    monkeypatch.setattr(ampso.optimizer, "pso_step", counted_step)
    spec = shifted_rastrigin(True) if rotated else make_spec("sphere", 2)
    config = AmpsoConfig(convergence_size=5, fe_budget=50)
    results = run_gpso_lockstep(config, spec, range(runs))
    iterations = results[0].trace[-1].iteration
    assert iterations == 9
    assert len(calls) == iterations * steps_per_iteration
    assert max(calls) == 5 * min(runs, LOCKSTEP_RUNS, 1 if rotated else runs)


def test_no_seeds_no_runs():
    assert run_gpso_lockstep(AmpsoConfig(fe_budget=100), make_spec("sphere", 2), []) == []
