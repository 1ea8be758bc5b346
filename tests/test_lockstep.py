"""A lockstep gpso cell equals its runs made one at a time, bit for bit.

``run_gpso_lockstep`` steps a cell's runs as the groups of one swarm, in
slices sized by one rule for every problem: as many runs as fill the block
of ``LOCKSTEP_RUNS`` runs of 40 particles in D=10.  A rotated slice
evaluates its rotation group by group, as a batched ``(k, s, D) @ Q.T``.
Every field of every run's result must be what ``run_gpso`` gives for that
seed alone, except an untraced cell's empty traces.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ampso.optimizer
from ampso.benchmarks import make_spec, random_rotation
from ampso.optimizer import LOCKSTEP_RUNS, AmpsoConfig, run_gpso, run_gpso_lockstep

PLAIN = [(name, dim) for name in ("sphere", "rastrigin", "ackley", "griewank", "rosenbrock") for dim in (2, 10)]


SHIFTED = {  # each shifted problem's instance seed, so each rotated one has its own rotation
    ("rastrigin", 100): 100,
    ("rastrigin", 2): 101,
    ("rastrigin", 10): 102,
    ("rastrigin", 30): 103,
    ("rosenbrock", 30): 104,
}


def shifted(name: str, dim: int, rotated: bool):
    rng = np.random.default_rng(SHIFTED[name, dim])
    shift = rng.uniform(-80.0, 80.0, dim)
    return make_spec(name, dim, shift=shift, rotation=random_rotation(dim, rng) if rotated else None)


PROBLEMS = {f"{name}-d{dim}": (lambda name=name, dim=dim: make_spec(name, dim)) for name, dim in PLAIN}
PROBLEMS["shifted-rastrigin-d100"] = lambda: shifted("rastrigin", 100, False)
for name, dim in SHIFTED:
    PROBLEMS[f"shifted-rotated-{name}-d{dim}"] = lambda name=name, dim=dim: shifted(name, dim, True)


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


@pytest.fixture
def step_sizes(monkeypatch):
    """The swarm size of every ``pso_step`` call the optimizer makes, in order."""
    sizes = []

    def counted_step(swarm, *args):
        sizes.append(swarm.size)
        return step(swarm, *args)

    step = ampso.optimizer.pso_step
    monkeypatch.setattr(ampso.optimizer, "pso_step", counted_step)
    return sizes


@pytest.mark.parametrize(
    "runs, rotated, steps_per_iteration",
    # 5-particle runs fill the paper's block at 1,280 runs in D=2 and 25 in D=100: each cell is one slice
    [(3, False, 1), (LOCKSTEP_RUNS, False, 1), (LOCKSTEP_RUNS + 1, False, 1), (3, True, 1)],
)
def test_a_cell_steps_each_slice_in_one_call(step_sizes, runs, rotated, steps_per_iteration):
    spec = shifted("rastrigin", 100, True) if rotated else make_spec("sphere", 2)
    config = AmpsoConfig(convergence_size=5, fe_budget=50)
    results = run_gpso_lockstep(config, spec, range(runs))
    iterations = results[0].trace[-1].iteration
    assert iterations == 9
    assert len(step_sizes) == iterations * steps_per_iteration
    assert max(step_sizes) == 5 * runs


@pytest.mark.parametrize("dim, width", [(10, LOCKSTEP_RUNS), (30, 10), (100, 3), (400, 1)])
def test_a_slice_holds_as_many_runs_as_fill_the_paper_block(step_sizes, dim, width):
    """At 40 particles a slice holds 32 runs in D=10, 10 in D=30, 3 in D=100 and one where a run alone is larger."""
    spec = make_spec("sphere", dim, rotation=random_rotation(dim, np.random.default_rng(dim)))
    results = run_gpso_lockstep(AmpsoConfig(fe_budget=400), spec, range(width + 1))
    iterations = results[0].trace[-1].iteration
    assert iterations == 9
    assert step_sizes == [40 * width] * iterations + [40] * iterations  # a full slice, then one run


def test_a_bad_seed_fails_before_any_run_spends(step_sizes):
    seeds = list(range(LOCKSTEP_RUNS)) + [-1]  # the bad seed opens the second slice
    with pytest.raises(ValueError, match="seed"):
        run_gpso_lockstep(AmpsoConfig(fe_budget=400), make_spec("sphere", 10), seeds)
    assert step_sizes == []


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(1, 100),
    groups=st.integers(2, 33),
    rows=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
@example(dim=30, groups=30, rows=40, seed=0)
@example(dim=10, groups=32, rows=1, seed=0)
def test_a_grouped_rotation_rounds_as_each_group_alone(dim, groups, rows, seed):
    rng = np.random.default_rng(seed)
    rotation = random_rotation(dim, rng)
    block = rng.uniform(-100.0, 100.0, (groups * rows, dim))
    grouped = block.reshape(groups, rows, dim) @ rotation.T
    for g in range(groups):
        alone = block[g * rows : (g + 1) * rows].copy() @ rotation.T  # a run's own (s, D) frame
        assert grouped[g].tobytes() == alone.tobytes()


def test_no_seeds_no_runs():
    assert run_gpso_lockstep(AmpsoConfig(fe_budget=100), make_spec("sphere", 2), []) == []
    # no run checks the config, so no slice is sized from it
    assert run_gpso_lockstep(AmpsoConfig(convergence_size=0), make_spec("sphere", 2), []) == []
