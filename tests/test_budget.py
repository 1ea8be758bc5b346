"""Property tests of the evaluation-budget contract.

Every swarm builder and operator is all-or-nothing: when the budget cannot
cover its whole cost it raises BudgetExhausted before drawing, writing or
evaluating anything.  Whole runs spend the budget down to less than one
convergence iteration and never lose their best-ever error.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ampso.benchmarks import make_spec
from ampso.core import Bounds, BudgetExhausted, EvalCounter, RngStream, initialize_swarm
from ampso.optimizer import run_ampso, run_gpso
from ampso.swarm_ops import (
    KinematicParams,
    full_reconstruct,
    partial_reconstruct,
    pso_step,
    spawn_artificial_swarm,
)
from conftest import configs

SWARM_FIELDS = ("positions", "velocities", "best_positions", "best_fitness", "current_fitness", "global_best_position")


def _operation(name: str, swarm, spec, vmax, data):
    """(cost, call) of one builder or operator on ``swarm``; call takes (rng, counter)."""
    n = swarm.size
    if name == "initialize_swarm":
        size = data.draw(st.integers(1, 12), label="size")
        return size, lambda rng, counter: initialize_swarm(spec, size, rng, vmax, counter)
    if name == "spawn_artificial_swarm":
        size = data.draw(st.integers(1, 12), label="size")
        seed = swarm.best
        return size, lambda rng, counter: spawn_artificial_swarm(*seed, size, spec, rng, counter, vmax)
    if name == "pso_step":
        subset = data.draw(st.none() | st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        cost = n if subset is None else len(subset)
        params = KinematicParams(0.7, 1.49445, 1.49445, Bounds(-vmax, vmax))
        sel = None if subset is None else np.array(subset)
        return cost, lambda rng, counter: pso_step(swarm, params, spec, rng, counter, sel)
    if name == "partial_reconstruct":
        n_worst = data.draw(st.integers(1, n), label="n_worst")
        return n_worst, lambda rng, counter: partial_reconstruct(swarm, n_worst, 0.15, spec, rng, counter)
    return n, lambda rng, counter: full_reconstruct(swarm, 0.15, spec, rng, counter)


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(
        ["initialize_swarm", "spawn_artificial_swarm", "pso_step", "partial_reconstruct", "full_reconstruct"]
    ),
    n=st.integers(1, 12),
    d=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_short_budget_spends_and_changes_nothing(name, n, d, seed, data):
    spec = make_spec("rastrigin", d)
    vmax = 0.01 * spec.bounds.span
    swarm = initialize_swarm(spec, n, RngStream(seed), vmax, EvalCounter(budget=n))
    cost, call = _operation(name, swarm, spec, vmax, data)
    remaining = data.draw(st.integers(0, cost - 1), label="remaining")
    counter = EvalCounter(budget=cost + 7, used=cost + 7 - remaining)
    before = copy.deepcopy(swarm)
    rng = RngStream(seed + 1)

    with pytest.raises(BudgetExhausted):
        call(rng, counter)

    assert counter.used == cost + 7 - remaining
    for field in SWARM_FIELDS:
        assert np.array_equal(getattr(swarm, field), getattr(before, field)), field
    assert swarm.global_best_fitness == before.global_best_fitness
    fresh = RngStream(seed + 1)  # no draw was taken from either sequence
    assert np.array_equal(rng.uniform(size=3), fresh.uniform(size=3))
    assert np.array_equal(rng.normal(size=3), fresh.normal(size=3))


@settings(max_examples=100, deadline=None)
@given(
    config=configs(),
    run=st.sampled_from([run_ampso, run_gpso]),
    function=st.sampled_from(["sphere", "rastrigin", "griewank", "rosenbrock"]),
    d=st.integers(1, 5),
    seed=st.integers(0, 2**64 - 1),
)
def test_runs_spend_the_budget_and_never_lose_the_best(config, run, function, d, seed):
    result = run(config, make_spec(function, d), seed=seed)
    assert config.fe_budget - config.convergence_size < result.fe_used <= config.fe_budget
    errors = [point.best_error for point in result.trace]
    assert errors
    assert all(math.isfinite(e) and e >= 0.0 for e in errors)
    assert all(b <= a for a, b in zip(errors, errors[1:]))


@settings(max_examples=120, deadline=None)
@given(
    config=configs(),
    run=st.sampled_from([run_ampso, run_gpso]),
    function=st.sampled_from(["sphere", "rastrigin"]),
    d=st.integers(1, 5),
    seed=st.integers(0, 2**64 - 1),
)
def test_runs_never_lose_an_evaluated_point(config, run, function, d, seed):
    # every value the objective returns reaches the result: no swarm's best
    # is dropped, whichever phase built the swarm and whether or not it stepped
    spec = make_spec(function, d)
    objective, values = spec.function, []

    def spy(x):
        fitness = objective(x)
        values.extend(np.asarray(fitness, dtype=float).tolist())
        return fitness

    spec.function = spy
    result = run(config, spec, seed=seed)
    assert len(values) == result.fe_used
    assert result.best_error == min(values) - spec.optimum_value == result.trace[-1].best_error
