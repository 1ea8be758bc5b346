"""Property tests of the search box and the speed cap.

Every swarm builder and operator leaves every position inside [lower,
upper], every velocity component within +-vmax and every personal best
no worse than its particle's current fitness, starting from states that
obey all three, with some particles sitting on the box edges.  Whole runs
of both algorithms keep the box and the speed cap after every operator
call.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ampso.optimizer as optimizer_module
from ampso.benchmarks import REGISTRY, make_spec
from ampso.core import Bounds, EvalCounter, ObjectiveSpec, RngStream, Swarm, initialize_swarm
from ampso.optimizer import run_ampso, run_gpso
from ampso.swarm_ops import (
    KinematicParams,
    full_reconstruct,
    partial_reconstruct,
    pso_step,
    spawn_artificial_swarm,
)
from conftest import OPERATIONS, assert_in_box_and_capped, configs


@st.composite
def problems(draw):
    """(spec, vmax): a sphere on a random finite box, vmax a fraction of its span."""
    d = draw(st.integers(1, 5))
    lower = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d)))
    width = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=d, max_size=d)))
    spec = ObjectiveSpec(Bounds(lower, lower + width), REGISTRY["sphere"].function)
    return spec, draw(st.floats(0.001, 1.0)) * spec.bounds.span


def start_swarm(spec, vmax, n, rng):
    """A valid swarm: inside the box, |v| <= vmax, each personal best the
    better of two points, about a third of the coordinates on an edge and
    a third of the velocities at the cap."""
    lower, upper = spec.bounds.lower, spec.bounds.upper

    def points():
        x = np.clip(rng.uniform(lower, upper, size=(n, spec.dimension)), lower, upper)
        edge = rng.random(x.shape) < 1 / 3
        return np.where(edge, np.where(rng.random(x.shape) < 0.5, lower, upper), x)

    positions, best_positions = points(), points()
    velocities = rng.uniform(-1.0, 1.0, size=positions.shape) * vmax
    capped = rng.random(positions.shape) < 1 / 3
    velocities[capped] = np.copysign(vmax, velocities)[capped]
    current_fitness, best_fitness = spec.function(positions), spec.function(best_positions)
    worse = best_fitness > current_fitness
    best_positions[worse], best_fitness[worse] = positions[worse], current_fitness[worse]
    best = int(best_fitness.argmin())
    return Swarm(
        positions=positions,
        velocities=velocities,
        best_positions=best_positions,
        best_fitness=best_fitness,
        current_fitness=current_fitness,
        global_best_position=best_positions[best : best + 1].copy(),
        global_best_fitness=[float(best_fitness[best])],
    )


@settings(max_examples=150, deadline=None)
@given(
    problem=problems(),
    n=st.integers(1, 40),
    names=st.lists(st.sampled_from(OPERATIONS), min_size=1, max_size=4),
    omega=st.floats(0.4, 0.9),
    sigma=st.floats(0.1, 0.2),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_operators_keep_the_box_and_the_speed_cap(problem, n, names, omega, sigma, seed, data):
    spec, vmax = problem
    swarm = start_swarm(spec, vmax, n, np.random.default_rng(seed))
    rng, counter = RngStream(seed), EvalCounter(budget=10_000)
    for name in names:
        if name == "initialize_swarm":
            swarm = initialize_swarm(spec, n, rng, vmax, counter)
        elif name == "spawn_artificial_swarm":
            incumbent = swarm.best
            swarm = spawn_artificial_swarm(*incumbent, n, spec, rng, counter, vmax)
        elif name == "pso_step":
            subset = data.draw(st.none() | st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
            params = KinematicParams(omega, 1.49445, 1.49445, Bounds(-vmax, vmax))
            pso_step(swarm, params, spec, rng, counter, None if subset is None else np.array(subset))
        elif name == "partial_reconstruct":
            partial_reconstruct(swarm, data.draw(st.integers(1, n), label="n_worst"), sigma, spec, rng, counter)
        else:
            full_reconstruct(swarm, sigma, spec, rng, counter)
        assert_in_box_and_capped(swarm, spec.bounds, vmax)
        assert np.all(swarm.best_fitness <= swarm.current_fitness)


@settings(max_examples=20, deadline=None)
@given(
    config=configs(),
    run=st.sampled_from([run_ampso, run_gpso]),
    function=st.sampled_from(["sphere", "rastrigin", "griewank", "rosenbrock"]),
    d=st.integers(1, 5),
    seed=st.integers(0, 2**64 - 1),
)
def test_runs_keep_the_box_and_the_speed_cap(config, run, function, d, seed):
    spec = make_spec(function, d)
    vmax = config.vmax_factor * spec.bounds.span
    checked = {"n": 0}

    def checking(operator, builds):
        def call(*args, **kwargs):
            out = operator(*args, **kwargs)
            assert_in_box_and_capped(out if builds else args[0], spec.bounds, vmax)
            checked["n"] += 1
            return out

        return call

    with pytest.MonkeyPatch.context() as patch:
        for name in OPERATIONS:
            operator = getattr(optimizer_module, name)
            patch.setattr(optimizer_module, name, checking(operator, name.endswith("swarm")))
        run(config, spec, seed=seed)
    assert checked["n"] > 0
