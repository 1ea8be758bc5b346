import copy
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ampso.core import (
    Bounds,
    BudgetExhausted,
    EvalCounter,
    ObjectiveSpec,
    RngStream,
    Swarm,
    evaluate_batch,
    initialize_swarm,
)
from ampso.adaptation import omega_exploration
from ampso.benchmarks import REGISTRY, make_spec
from ampso.diversity import hybrid_diversity
from ampso.swarm_ops import (
    KinematicParams,
    full_reconstruct,
    partial_reconstruct,
    pso_step,
    spawn_artificial_swarm,
)
from conftest import StubRng, build_swarm


def sphere_spec(dim, low=-100.0, high=100.0):
    return ObjectiveSpec(Bounds.cube(low, high, dim), REGISTRY["sphere"].function)


def params_for(spec, omega=0.5, c=1.49445):
    vmax = 0.01 * spec.bounds.span
    return KinematicParams(omega=omega, c1=c, c2=c, speed=Bounds(-vmax, vmax))


class TestPsoStep:
    def test_fixed_point_when_all_attractors_coincide(self):
        spec = sphere_spec(3)
        positions = np.full((4, 3), 7.0)
        swarm = build_swarm(positions, current_fitness=np.full(4, 147.0))
        counter = EvalCounter(budget=100)
        pso_step(swarm, params_for(spec), spec, RngStream(0), counter)
        assert np.array_equal(swarm.positions, positions)
        assert np.array_equal(swarm.current_fitness, np.full(4, 147.0))
        assert counter.used == 4

    def test_hand_worked_one_dimensional_update(self):
        # v' = 0.5*1 + 1.49445*0.5*(2-0) + 1.49445*0.5*(4-0) = 4.98335,
        # clipped to vmax = 2, so the particle lands at x = 2
        spec = sphere_spec(1)
        swarm = build_swarm(np.array([[0.0]]), current_fitness=np.array([0.0]))
        swarm.velocities[0, 0] = 1.0
        swarm.best_positions[0, 0] = 2.0
        swarm.best_fitness[0] = 4.0
        swarm.global_best_position = np.array([[4.0]])
        swarm.global_best_fitness = [16.0]
        counter = EvalCounter(budget=10)
        pso_step(swarm, params_for(spec), spec, StubRng(uniform_value=0.5), counter)
        assert swarm.velocities[0, 0] == pytest.approx(2.0, abs=1e-12)
        assert swarm.positions[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_subset_accounting_and_isolation(self):
        spec = sphere_spec(5)
        rng = RngStream(1)
        swarm = initialize_swarm(spec, 10, rng, 0.01 * spec.bounds.span, EvalCounter(budget=100))
        frozen = swarm.positions[[0, 2, 9]].copy()
        counter = EvalCounter(budget=100)
        pso_step(swarm, params_for(spec), spec, rng, counter, subset=np.array([1, 3, 4, 5, 6, 7, 8]))
        assert counter.used == 7
        assert np.array_equal(swarm.positions[[0, 2, 9]], frozen)

    def test_subset_step_writes_no_other_row(self):
        # row 0 sits outside the subset with its current fitness below its
        # personal best, which a fold over every row would take as a win
        spec = sphere_spec(2)
        swarm = build_swarm(np.array([[1.0, 1.0], [20.0, -20.0], [-30.0, 5.0], [40.0, 40.0]]))
        swarm.velocities[:] = 0.3
        swarm.best_positions[0] = [9.0, 9.0]
        swarm.best_fitness[0] = 162.0
        swarm.current_fitness[:] = spec.function(swarm.positions)
        swarm.best_fitness[1:] = swarm.current_fitness[1:] + 1.0  # rows 1-3 improve on any move
        before = copy.deepcopy(swarm)
        pso_step(swarm, params_for(spec), spec, RngStream(5), EvalCounter(budget=10), subset=np.array([3, 1]))
        for name in ("positions", "velocities", "best_positions", "best_fitness", "current_fitness"):
            assert np.array_equal(getattr(swarm, name)[[0, 2]], getattr(before, name)[[0, 2]]), name
            assert not np.array_equal(getattr(swarm, name)[[1, 3]], getattr(before, name)[[1, 3]]), name

    def test_personal_and_global_bests_update(self):
        spec = sphere_spec(2)
        swarm = build_swarm(np.array([[10.0, 10.0], [50.0, 50.0]]), current_fitness=np.array([200.0, 5000.0]))
        counter = EvalCounter(budget=10)
        pso_step(swarm, params_for(spec, omega=0.0), spec, RngStream(2), counter)
        assert np.all(swarm.best_fitness <= swarm.current_fitness)
        assert np.array_equal(evaluate_batch(spec, swarm.best_positions, EvalCounter(budget=2)), swarm.best_fitness)
        assert swarm.global_best_fitness == [swarm.best_fitness.min()]

    def test_budget_exhaustion_mid_step(self):
        spec = sphere_spec(3)
        swarm = build_swarm(np.ones((6, 3)), current_fitness=np.full(6, 3.0))
        before = copy.deepcopy(swarm)
        counter = EvalCounter(budget=4)
        with pytest.raises(BudgetExhausted):
            pso_step(swarm, params_for(spec), spec, RngStream(3), counter)
        assert counter.used == 0
        assert np.array_equal(swarm.positions, before.positions)
        assert np.array_equal(swarm.velocities, before.velocities)

    def test_positions_stay_in_bounds(self):
        spec = sphere_spec(4, low=-1.0, high=1.0)
        rng = RngStream(4)
        vmax = 0.5 * spec.bounds.span
        swarm = initialize_swarm(spec, 20, rng, vmax, EvalCounter(budget=2000))
        counter = EvalCounter(budget=2000)
        for _ in range(50):
            pso_step(swarm, KinematicParams(0.9, 2.0, 2.0, Bounds(-vmax, vmax)), spec, rng, counter)
            assert np.all(swarm.positions >= -1.0) and np.all(swarm.positions <= 1.0)
            assert np.all(np.abs(swarm.velocities) <= 0.5 * spec.bounds.span)


class TestSpawnArtificialSwarm:
    def test_zero_perturbation_lands_on_seed(self):
        spec = sphere_spec(3)
        seed_pos = np.array([5.0, -5.0, 0.0])
        counter = EvalCounter(budget=10)
        swarm = spawn_artificial_swarm(
            seed_pos, 50.0, 6, spec, StubRng(normal_value=0.0), counter, 0.01 * spec.bounds.span
        )
        assert np.allclose(swarm.positions, seed_pos)
        assert counter.used == 6

    def test_offset_scales_with_box_span(self):
        spec = sphere_spec(2)
        counter = EvalCounter(budget=5)
        swarm = spawn_artificial_swarm(
            np.zeros(2), 0.0, 1, spec, StubRng(normal_value=0.5), counter, 0.01 * spec.bounds.span
        )
        # offset draw of 0.05 in sigma units: 200 * 0.05 = 10
        assert np.allclose(swarm.positions[0], 200.0 * 0.05)

    def test_seed_retained_as_global_best(self):
        spec = sphere_spec(2)
        counter = EvalCounter(budget=20)
        swarm = spawn_artificial_swarm(
            np.zeros(2), 0.0, 10, spec, RngStream(5), counter, 0.01 * spec.bounds.span
        )
        assert swarm.global_best_fitness == [0.0]
        assert np.array_equal(swarm.global_best_position, np.zeros((1, 2)))

    def test_spawned_particle_can_beat_seed(self):
        spec = sphere_spec(2)
        counter = EvalCounter(budget=20)
        swarm = spawn_artificial_swarm(
            np.full(2, 10.0), 200.0, 10, spec, RngStream(6), counter, 0.01 * spec.bounds.span
        )
        assert swarm.global_best_fitness == [swarm.best_fitness.min()]
        assert swarm.best[1] < 200.0

    def test_gaussian_offset_statistics(self):
        spec = sphere_spec(10)
        counter = EvalCounter(budget=200_000)
        swarm = spawn_artificial_swarm(
            np.zeros(10), 0.0, 10_000, spec, RngStream(7), counter, 0.01 * spec.bounds.span
        )
        offsets = swarm.positions.ravel()
        assert offsets.mean() == pytest.approx(0.0, abs=0.25)
        assert offsets.std() == pytest.approx(0.1 * 200.0, rel=0.05)

    def test_budget_exhaustion_rejects_partial_swarm(self):
        spec = sphere_spec(2)
        counter = EvalCounter(budget=3)
        with pytest.raises(BudgetExhausted):
            spawn_artificial_swarm(
                np.zeros(2), 0.0, 8, spec, RngStream(8), counter, 0.01 * spec.bounds.span
            )
        assert counter.used == 0

    @pytest.mark.parametrize(
        "seed_position, seed_fitness, message",
        [
            (np.array([1.0]), 0.0, "seed_position must be a finite vector of length 3, got array([1.])"),
            (np.zeros((1, 3)), 0.0, "seed_position must be a finite vector of length 3"),
            (np.array([0.0, math.nan, 0.0]), 0.0, "seed_position must be a finite vector of length 3"),
            (np.array([0.0, 0.0, -math.inf]), 0.0, "seed_position must be a finite vector of length 3"),
            (np.zeros(3), math.nan, "seed_fitness must be a finite real number, got nan"),
            (np.zeros(3), math.inf, "seed_fitness must be a finite real number, got inf"),
            (np.zeros(3), "x", "seed_fitness must be a finite real number, got 'x'"),
            (np.zeros(3), None, "seed_fitness must be a finite real number, got None"),
            (np.zeros(3), True, "seed_fitness must be a finite real number, got True"),
        ],
    )
    def test_bad_seed_rejected_before_anything_is_spent_or_drawn(self, seed_position, seed_fitness, message):
        # no fitness compares below a NaN incumbent, so it would never be replaced
        spec = sphere_spec(3)
        counter, rng = EvalCounter(budget=100), RngStream(9)
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            spawn_artificial_swarm(seed_position, seed_fitness, 5, spec, rng, counter, 0.01 * spec.bounds.span)
        assert counter.used == 0
        untouched = RngStream(9)
        assert (rng.uniform(), rng.normal()) == (untouched.uniform(), untouched.normal())

    def test_seed_fitness_too_long_to_print_rejected_by_name(self):
        spec = sphere_spec(3)
        counter, rng = EvalCounter(budget=100), RngStream(9)
        with pytest.raises(ValueError, match="^seed_fitness must be a finite real number, got an int of 16610 bits$"):
            spawn_artificial_swarm(np.zeros(3), 10**5000, 5, spec, rng, counter, 0.01 * spec.bounds.span)
        assert counter.used == 0

    def test_seed_fitness_past_the_float_range_rejected_before_anything_is_spent(self):
        spec = sphere_spec(3)
        counter, rng = EvalCounter(budget=100), RngStream(9)
        with pytest.raises(ValueError, match="^seed_fitness must be a finite real number, got 1000"):
            spawn_artificial_swarm(np.zeros(3), 10**401, 5, spec, rng, counter, 0.01 * spec.bounds.span)
        assert counter.used == 0
        untouched = RngStream(9)
        assert (rng.uniform(), rng.normal()) == (untouched.uniform(), untouched.normal())


def launch(builder, spec, size, rng, counter, vmax):
    """Build a swarm with ``builder``; a spawn is seeded at the origin."""
    if builder == "initialize_swarm":
        return initialize_swarm(spec, size, rng, vmax, counter)
    return spawn_artificial_swarm(np.zeros(spec.dimension), 0.0, size, spec, rng, counter, vmax)


BUILDERS = ["initialize_swarm", "spawn_artificial_swarm"]


class TestLaunchRule:
    """Both builders start a swarm by one rule, checked before any draw."""

    @pytest.mark.parametrize("builder", BUILDERS)
    @pytest.mark.parametrize(
        "vmax",
        [
            np.full(3, math.nan),
            np.array([1.0, math.nan, 1.0]),
            np.full(3, math.inf),
            np.full(3, -math.inf),
            np.array([1.0, 1.0, math.inf]),
            np.zeros(3),
            -np.ones(3),
            np.array([1.0, -1.0, 1.0]),
            1.0,
            np.ones(4),
            np.ones(2),
            np.ones((1, 3)),
        ],
        ids=["nan", "one-nan", "inf", "minus-inf", "one-inf", "zero", "negative", "one-negative",
             "scalar", "length-4", "length-2", "row-block"],
    )
    def test_bad_vmax_rejected_before_anything_is_spent_or_drawn(self, builder, vmax):
        spec = sphere_spec(3)
        counter, rng = EvalCounter(budget=100), RngStream(11)
        with pytest.raises(ValueError, match="^vmax must be a positive finite vector of length 3$"):
            launch(builder, spec, 5, rng, counter, vmax)
        assert counter.used == 0
        untouched = RngStream(11)
        assert (rng.uniform(), rng.normal()) == (untouched.uniform(), untouched.normal())

    @pytest.mark.parametrize("builder", BUILDERS)
    def test_vmax_checked_before_the_budget(self, builder):
        with pytest.raises(ValueError, match="^vmax must"):
            launch(builder, sphere_spec(3), 5, RngStream(11), EvalCounter(budget=2), np.full(3, math.nan))

    @pytest.mark.parametrize("builder", BUILDERS)
    @pytest.mark.parametrize("size", [0, -3])
    def test_size_below_one_rejected_before_anything_is_spent_or_drawn(self, builder, size):
        spec = sphere_spec(3)
        counter, rng = EvalCounter(budget=100), RngStream(11)
        with pytest.raises(ValueError, match="^swarm size must be at least 1$"):
            launch(builder, spec, size, rng, counter, np.ones(3))
        assert counter.used == 0
        untouched = RngStream(11)
        assert (rng.uniform(), rng.normal()) == (untouched.uniform(), untouched.normal())


class TestPartialReconstruct:
    def test_zero_sigma_limit_collapses_onto_best(self):
        spec = sphere_spec(3)
        swarm = build_swarm(np.arange(12.0).reshape(4, 3), current_fitness=np.array([1.0, 9.0, 4.0, 16.0]))
        counter = EvalCounter(budget=10)
        partial_reconstruct(swarm, 2, 1e-300, spec, StubRng(normal_value=0.0), counter)
        # worst two were indices 3 and 1
        assert np.array_equal(swarm.positions[3], swarm.positions[1])
        assert counter.used == 2

    def test_single_dimension_moved_by_scaled_draw(self):
        spec = sphere_spec(3)
        swarm = build_swarm(np.zeros((3, 3)), current_fitness=np.array([0.0, 1.0, 2.0]))
        swarm.global_best_position = np.array([[50.0, 50.0, 50.0]])
        swarm.global_best_fitness = [7500.0]
        counter = EvalCounter(budget=10)
        stub = StubRng(normal_value=0.1, integer_value=1)
        partial_reconstruct(swarm, 1, 1.0, spec, stub, counter)
        rebuilt = swarm.positions[2]
        assert rebuilt[1] == pytest.approx(50.0 + 200.0 * 0.1, abs=1e-12)
        assert rebuilt[0] == 50.0 and rebuilt[2] == 50.0

    def test_exactly_n_worst_change_identity(self):
        spec = sphere_spec(4)
        rng = RngStream(9)
        swarm = initialize_swarm(spec, 10, rng, 0.01 * spec.bounds.span, EvalCounter(budget=100))
        worst = np.argsort(-swarm.current_fitness, kind="stable")[:3]
        keep = np.setdiff1d(np.arange(10), worst)
        before = swarm.positions[keep].copy()
        partial_reconstruct(swarm, 3, 0.15, spec, rng, EvalCounter(budget=100))
        assert np.array_equal(swarm.positions[keep], before)
        assert np.all(swarm.velocities[worst] == 0.0)
        assert np.array_equal(swarm.best_positions[worst], swarm.positions[worst])

    def test_worst_selection_matches_sort_oracle_with_ties(self):
        fitness = np.array([5.0, 9.0, 9.0, 1.0, 9.0, 7.0])
        order = sorted(range(6), key=lambda i: (-fitness[i], i))
        spec = sphere_spec(2)
        swarm = build_swarm(np.arange(12.0).reshape(6, 2), current_fitness=fitness)
        marker = swarm.positions.copy()
        partial_reconstruct(swarm, 3, 1e-300, spec, StubRng(normal_value=0.0), EvalCounter(budget=10))
        changed = [i for i in range(6) if not np.array_equal(swarm.positions[i], marker[i])]
        assert sorted(changed) == sorted(order[:3])

    def test_global_best_never_worsens(self):
        spec = sphere_spec(3)
        rng = RngStream(10)
        swarm = initialize_swarm(spec, 8, rng, 0.01 * spec.bounds.span, EvalCounter(budget=100))
        best_before = swarm.best[1]
        partial_reconstruct(swarm, 4, 0.2, spec, rng, EvalCounter(budget=100))
        assert swarm.best[1] <= best_before

    def test_rejects_oversized_request(self):
        spec = sphere_spec(2)
        swarm = build_swarm(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            partial_reconstruct(swarm, 4, 0.1, spec, RngStream(0), EvalCounter(budget=10))


class TestFullReconstruct:
    def test_zero_sigma_limit_collapses_everything(self):
        spec = sphere_spec(3)
        rng = RngStream(11)
        swarm = initialize_swarm(spec, 6, rng, 0.01 * spec.bounds.span, EvalCounter(budget=100))
        best = swarm.best[0].copy()
        full_reconstruct(swarm, 1e-300, spec, StubRng(normal_value=0.0), EvalCounter(budget=10))
        assert np.allclose(swarm.positions, best)
        assert np.all(swarm.velocities == 0.0)

    def test_retained_best_property(self):
        spec = sphere_spec(4)
        rng = RngStream(12)
        swarm = initialize_swarm(spec, 10, rng, 0.01 * spec.bounds.span, EvalCounter(budget=200))
        best_before = swarm.best[1]
        full_reconstruct(swarm, 0.2, spec, rng, EvalCounter(budget=200))
        assert swarm.best[1] <= best_before

    def test_spread_statistics(self):
        spec = sphere_spec(10)
        swarm = build_swarm(np.zeros((10_000, 10)), current_fitness=np.zeros(10_000))
        swarm.global_best_position = np.zeros((1, 10))
        full_reconstruct(swarm, 0.2, spec, RngStream(13), EvalCounter(budget=10_000))
        assert swarm.positions.std() == pytest.approx(0.2 * 200.0, rel=0.05)

    def test_bounds_closure(self):
        spec = sphere_spec(3, low=-2.0, high=3.0)
        swarm = build_swarm(np.zeros((30, 3)), current_fitness=np.zeros(30))
        full_reconstruct(swarm, 0.2, spec, RngStream(14), EvalCounter(budget=100))
        assert np.all(swarm.positions >= -2.0) and np.all(swarm.positions <= 3.0)


class TestOperatorInvariants:
    def test_constant_cost_iteration(self):
        # rebuilding n_s and stepping size - n_s costs exactly `size`
        spec = sphere_spec(5)
        rng = RngStream(15)
        swarm = initialize_swarm(spec, 40, rng, 0.01 * spec.bounds.span, EvalCounter(budget=100))
        counter = EvalCounter(budget=1000)
        n_s = 10
        partial_reconstruct(swarm, n_s, 0.15, spec, rng, counter)
        chosen = rng.permutation(40)[: 40 - n_s]
        pso_step(swarm, params_for(spec), spec, rng, counter, subset=chosen)
        assert counter.used == 40

    def test_global_best_monotone_across_operator_sequences(self):
        spec = make_spec("rastrigin", 4)
        rng = RngStream(16)
        counter = EvalCounter(budget=100_000)
        vmax = 0.01 * spec.bounds.span
        swarm = initialize_swarm(spec, 12, rng, vmax, counter)
        best = swarm.best[1]
        for round_index in range(100):
            action = round_index % 4
            if action == 0:
                pso_step(swarm, params_for(spec, omega=0.7), spec, rng, counter)
            elif action == 1:
                partial_reconstruct(swarm, 3, 0.12, spec, rng, counter)
            elif action == 2:
                full_reconstruct(swarm, 0.15, spec, rng, counter)
            else:
                swarm = spawn_artificial_swarm(*swarm.best, 12, spec, rng, counter, vmax)
            assert swarm.best[1] <= best + 1e-15
            best = swarm.best[1]
            assert np.all(swarm.positions >= spec.bounds.lower)
            assert np.all(swarm.positions <= spec.bounds.upper)

    def test_isolated_swarms_do_not_couple(self):
        # two equal-size swarms read and stepped in alternation end bit for
        # bit as each one read and stepped alone: each swarm's workspace is
        # its own, so no work array or bound operand is shared
        spec = make_spec("ackley", 3)
        vmax = 0.01 * spec.bounds.span
        params = params_for(spec, omega=0.7)

        def trajectory(seeds, subset, steps=20):
            swarms = [initialize_swarm(spec, 5, RngStream(seed), vmax, EvalCounter(budget=50)) for seed in seeds]
            rngs = [RngStream(seed + 10) for seed in seeds]
            readings = [[] for _ in seeds]
            for _ in range(steps):
                for swarm, rng, seen in zip(swarms, rngs, readings):
                    seen.append(repr(hybrid_diversity(swarm, spec.bounds, 10)[:3]))
                    pso_step(swarm, params, spec, rng, EvalCounter(budget=50), subset)
            return list(zip(swarms, readings))

        for subset in (None, np.array([4, 0, 2])):
            alone = trajectory([21], subset) + trajectory([22], subset)
            for (swarm, readings), (solo, solo_readings) in zip(trajectory([21, 22], subset), alone):
                assert readings == solo_readings
                for name in ("positions", "velocities", "best_positions", "best_fitness", "current_fitness"):
                    assert np.array_equal(getattr(swarm, name), getattr(solo, name)), name
                assert swarm.global_best_fitness == solo.global_best_fitness


STATE = ("positions", "velocities", "best_positions", "best_fitness", "current_fitness", "global_best_position")


def rebuilt(swarm):
    """The swarm's state in a swarm built afresh, with copies of every array."""
    return Swarm(**{name: getattr(swarm, name).copy() for name in STATE}, global_best_fitness=swarm.global_best_fitness)


def textbook_update(swarm, params, spec, draws):
    """Velocities and positions after one whole-swarm step, written as the
    textbook does: an r1 block then an r2 block, v and x clipped with np.clip."""
    r1, r2 = draws.uniform(size=swarm.positions.shape), draws.uniform(size=swarm.positions.shape)
    x = swarm.positions.copy()
    v = (
        params.omega * swarm.velocities
        + params.c1 * r1 * (swarm.best_positions - x)
        + params.c2 * r2 * (swarm.global_best_position - x)
    )
    v = np.clip(v, params.speed.lower, params.speed.upper)
    return v, np.clip(x + v, spec.bounds.lower, spec.bounds.upper)


def assert_same_state(a, b):
    for name in STATE:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.global_best_fitness == b.global_best_fitness


class TestSwarmWorkspace:
    def test_deep_copy_steps_like_its_original_and_shares_no_array(self):
        spec = make_spec("rastrigin", 10)
        vmax = 0.01 * spec.bounds.span
        params = params_for(spec, omega=0.7)
        original = initialize_swarm(spec, 40, RngStream(31), vmax, EvalCounter(budget=40))
        pso_step(original, params, spec, RngStream(32), EvalCounter(budget=40))  # operands bound before the copy
        twin = copy.deepcopy(original)
        rngs = RngStream(33), RngStream(33)
        for step in range(40):
            subset = None if step < 20 else np.arange(step % 3, 40, 3)
            readings = [repr(hybrid_diversity(swarm, spec.bounds, 10)[:3]) for swarm in (original, twin)]
            for swarm, rng in zip((original, twin), rngs):
                pso_step(swarm, params, spec, rng, EvalCounter(budget=40), subset)
            assert readings[0] == readings[1]
            assert_same_state(original, twin)
        for name in STATE:
            assert not np.shares_memory(getattr(original, name), getattr(twin, name)), name

    def test_copies_are_built_through_the_constructor(self):
        spec = make_spec("sphere", 3)
        swarm = initialize_swarm(spec, 6, RngStream(34), 0.01 * spec.bounds.span, EvalCounter(budget=6))
        for twin in (copy.copy(swarm), copy.deepcopy(swarm)):
            assert np.shares_memory(twin.best_positions, twin.work.targets)
            assert not np.shares_memory(twin.work.targets, swarm.work.targets)
            assert_same_state(twin, swarm)

    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy])
    def test_stepping_a_copy_leaves_its_original_alone(self, copier):
        spec = make_spec("rastrigin", 4)
        params = params_for(spec, omega=0.7)
        original = initialize_swarm(spec, 8, RngStream(35), 0.1 * spec.bounds.span, EvalCounter(budget=8))
        before = copy.deepcopy(original)
        twin = copier(original)
        rng = RngStream(36)
        for _ in range(5):
            pso_step(twin, params, spec, rng, EvalCounter(budget=8))
        assert np.any(twin.best_fitness < before.best_fitness)
        assert_same_state(original, before)
        # every personal best is still the position that scored it
        assert np.array_equal(evaluate_batch(spec, original.best_positions, EvalCounter(budget=8)), original.best_fitness)
        for name in STATE:
            assert not np.shares_memory(getattr(original, name), getattr(twin, name)), name

    def test_new_bests_reach_the_next_step(self):
        # personal bests written into the swarm and a newly assigned global
        # best: the next step uses both, exactly as the textbook update of
        # test_matches_textbook_update does
        spec = make_spec("rastrigin", 10)
        vmax = 0.01 * spec.bounds.span
        swarm = initialize_swarm(spec, 40, RngStream(8), vmax, EvalCounter(budget=40))
        params = KinematicParams(0.7, 1.49445, 1.49445, Bounds(-vmax, vmax))
        pso_step(swarm, params, spec, RngStream(7), EvalCounter(budget=40))  # binds the current bests
        moved = np.random.default_rng(3).uniform(-5.0, 5.0, (21, 10))
        swarm.best_positions[::2] = moved[:20]
        swarm.global_best_position = moved[20:]
        v, x = textbook_update(swarm, params, spec, RngStream(9))
        pso_step(swarm, params, spec, RngStream(9), EvalCounter(budget=40))
        assert np.array_equal(swarm.velocities, v)
        assert np.array_equal(swarm.positions, x)

    def test_operands_follow_each_box_and_velocity_box(self):
        # one swarm read and stepped under two boxes, two velocity boxes and
        # two coefficient pairs in turn matches a swarm built afresh each
        # time; the boxes share their lower bounds, so every position lies
        # at or above both and reads under either
        wide = make_spec("rastrigin", 4)
        tall = ObjectiveSpec(Bounds(wide.bounds.lower, np.array([5.12, 6.0, 8.0, 9.5])), wide.function)
        kinematics = (
            params_for(wide, omega=0.7),
            KinematicParams(0.6, 1.2, 1.7, Bounds(np.full(4, -0.3), np.full(4, 0.3))),
        )
        swarm = initialize_swarm(wide, 8, RngStream(41), 0.01 * wide.bounds.span, EvalCounter(budget=8))
        for step in range(24):
            spec, params = (wide, tall)[step % 2], kinematics[step // 2 % 2]
            subset = None if step % 3 else np.array([6, 1, 3])
            fresh = rebuilt(swarm)
            readings = [repr(hybrid_diversity(s, spec.bounds, (5, 9)[step // 4 % 2])[:3]) for s in (swarm, fresh)]
            for s in (swarm, fresh):
                pso_step(s, params, spec, RngStream(step), EvalCounter(budget=8), subset)
            assert readings[0] == readings[1]
            assert_same_state(swarm, fresh)


def same_bits(a, b) -> bool:
    """Equal down to the sign of every zero."""
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


class TestStackedSwarm:
    @settings(max_examples=150, deadline=None)
    @given(
        k=st.integers(1, 4),
        s=st.integers(1, 6),
        d=st.integers(1, 5),
        steps=st.integers(1, 20),
        bins=st.integers(2, 12),
        flat=st.integers(0, 3),
        huge=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stacked_groups_equal_separate_swarms_stepped_in_turn(self, k, s, d, steps, bins, flat, huge, seed):
        # each step: one group's fitness reads flat and another's spans
        # more than the float range, then every reading, the per-group
        # inertia and one step of the stacked swarm must equal each separate
        # swarm's, bit for bit, from the same stream
        spec = make_spec("rastrigin", d)
        vmax = 0.1 * spec.bounds.span
        start = RngStream(seed)
        subs = [initialize_swarm(spec, s, start, vmax, EvalCounter(budget=s)) for _ in range(k)]
        stacked = Swarm.stack(copy.deepcopy(subs))
        rngs, counters = (RngStream(seed + 1), RngStream(seed + 1)), (EvalCounter(k * s * steps), EvalCounter(k * s * steps))
        speed = Bounds(-vmax, vmax)
        wide = np.resize([-1.5e308, 1.5e308], s)
        for _ in range(steps):
            for fitness, g in ((np.full(s, 7.0), flat % k), (wide, huge % k)):
                subs[g].current_fitness[:] = stacked.current_fitness[g * s : (g + 1) * s] = fitness
            readings = [hybrid_diversity(sub, spec.bounds, bins) for sub in subs]
            grouped = hybrid_diversity(stacked, spec.bounds, bins)
            if k == 1:  # a swarm of one group reads as floats
                grouped = type(grouped)(*([value] for value in grouped[:3]), grouped.per_dimension[None])
            for g, reading in enumerate(readings):
                for field in ("position_entropy", "fitness_entropy", "hybrid"):
                    assert same_bits(getattr(grouped, field)[g], getattr(reading, field)), field
                assert same_bits(grouped.per_dimension[g], reading.per_dimension)
            assert same_bits(readings[flat % k].fitness_entropy, 0.0) or (s > 1 and flat % k == huge % k)
            omegas = [omega_exploration(reading.hybrid) for reading in readings]
            for sub, omega in zip(subs, omegas):
                pso_step(sub, KinematicParams(omega, 1.49445, 1.49445, speed), spec, rngs[0], counters[0])
            column = np.repeat(omegas, s)[:, None]
            pso_step(stacked, KinematicParams(column, 1.49445, 1.49445, speed), spec, rngs[1], counters[1])
            for g, sub in enumerate(subs):
                for name in ("positions", "velocities", "best_positions", "best_fitness", "current_fitness"):
                    assert same_bits(getattr(stacked, name)[g * s : (g + 1) * s], getattr(sub, name)), name
                assert same_bits(stacked.global_best_position[g], sub.best[0])
                assert same_bits(stacked.global_best_fitness[g], sub.best[1])
        best = min(range(k), key=lambda g: subs[g].best[1])
        assert same_bits(stacked.best[0], subs[best].best[0])
        assert stacked.best[1] == subs[best].best[1]
        assert counters[0].used == counters[1].used
        assert same_bits(rngs[0].uniform(size=5), rngs[1].uniform(size=5))

    def test_a_group_best_draws_only_its_own_group(self):
        # particles at rest on their personal bests; group 0's best is its
        # lower particle, group 1's its upper one, so the two other particles
        # are drawn in opposite directions
        spec = sphere_spec(1)
        subs = [build_swarm([[-50.0], [-49.0]], [0.0, 1.0]), build_swarm([[50.0], [51.0]], [1.0, 0.0])]
        stacked = Swarm.stack(subs)
        assert stacked.global_best_fitness == [0.0, 0.0]
        assert same_bits(stacked.global_best_position, [[-50.0], [51.0]])
        assert same_bits(stacked.best[0], [-50.0])  # a tie goes to the first group, as offering each in turn would
        pso_step(stacked, params_for(spec, omega=0.0), spec, StubRng(0.5), EvalCounter(budget=4))
        assert stacked.velocities[1, 0] < 0 < stacked.velocities[2, 0]
        assert stacked.velocities[0, 0] == stacked.velocities[3, 0] == 0.0


class TestPsoStepPaths:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([1, 5, 40]),
        d=st.sampled_from([1, 10, 100]),
        seed=st.integers(0, 2**32 - 1),
        steps=st.integers(1, 4),
    )
    def test_whole_swarm_equals_full_subset(self, n, d, seed, steps):
        spec = make_spec("rastrigin", d)
        vmax = 0.01 * spec.bounds.span
        base = initialize_swarm(spec, n, RngStream(seed), vmax, EvalCounter(budget=n))
        whole, listed = copy.deepcopy(base), copy.deepcopy(base)
        rng_whole, rng_listed = RngStream(seed + 1), RngStream(seed + 1)
        counter_whole, counter_listed = EvalCounter(budget=10 * n), EvalCounter(budget=10 * n)
        params = KinematicParams(0.7, 1.49445, 1.49445, Bounds(-vmax, vmax))
        for _ in range(steps):
            pso_step(whole, params, spec, rng_whole, counter_whole)
            pso_step(listed, params, spec, rng_listed, counter_listed, subset=np.arange(n))
        for name in ("positions", "velocities", "best_positions", "best_fitness", "current_fitness", "global_best_position"):
            assert np.array_equal(getattr(whole, name), getattr(listed, name)), name
        assert whole.global_best_fitness == listed.global_best_fitness
        assert counter_whole.used == counter_listed.used
        assert np.array_equal(rng_whole.uniform(size=7), rng_listed.uniform(size=7))
        assert np.array_equal(rng_whole.normal(size=7), rng_listed.normal(size=7))

    def test_matches_textbook_update(self):
        # reference: r1 block then r2 block, v and x clipped with np.clip
        spec = make_spec("rastrigin", 10)
        vmax = 0.01 * spec.bounds.span
        swarm = initialize_swarm(spec, 40, RngStream(8), vmax, EvalCounter(budget=40))
        params = KinematicParams(0.7, 1.49445, 1.49445, Bounds(-vmax, vmax))
        v, x = textbook_update(swarm, params, spec, RngStream(9))
        pso_step(swarm, params, spec, RngStream(9), EvalCounter(budget=40))
        assert np.array_equal(swarm.velocities, v)
        assert np.array_equal(swarm.positions, x)
        assert np.array_equal(swarm.current_fitness, spec.function(x))

    @pytest.mark.parametrize("n, d", [(1, 1), (5, 10), (40, 10), (40, 100)])
    def test_one_block_draw_equals_two_sequential_draws(self, n, d):
        # pso_step draws r1 and r2 as one (2, n, D) block; results stay
        # reproducible only while this equals an r1 draw followed by an r2 draw
        block = RngStream(99).uniform(size=(2, n, d))
        sequential = RngStream(99)
        r1, r2 = sequential.uniform(size=(n, d)), sequential.uniform(size=(n, d))
        assert np.array_equal(block[0], r1)
        assert np.array_equal(block[1], r2)

    def test_unit_interval_draws_match_generator_uniform(self):
        # RngStream serves [0, 1) draws through Generator.random
        reference = np.random.default_rng(np.random.SeedSequence(5).spawn(2)[0])
        stream = RngStream(5)
        assert np.array_equal(stream.uniform(size=(3, 4)), reference.uniform(0.0, 1.0, (3, 4)))
        assert stream.uniform() == reference.uniform(0.0, 1.0)

    def test_velocity_draw_equals_generator_uniform_over_plus_minus_one(self):
        # the swarm builders draw velocities as u * 2 - 1 from [0, 1) draws; the
        # digests of every run rest on this equalling Generator.uniform(-1, 1)
        reference = np.random.default_rng(np.random.SeedSequence(5).spawn(2)[0])
        drawn = RngStream(5).uniform(size=(200, 7)) * 2.0 - 1.0
        expected = reference.uniform(-1.0, 1.0, (200, 7))
        assert np.array_equal(drawn.view(np.int64), expected.view(np.int64))


def reference_install(swarm, sel, positions, spec, counter):
    fitness = evaluate_batch(spec, positions, counter)
    swarm.positions[sel] = swarm.best_positions[sel] = positions
    swarm.current_fitness[sel] = swarm.best_fitness[sel] = fitness
    swarm.velocities[sel] = 0.0
    swarm.refresh_global_best()


def reference_partial_reconstruct(swarm, n_worst, sigma, spec, rng, counter):
    """partial_reconstruct with no bound operand: a fancy +=, ndarray.clip and a scalar velocity fill."""
    idx = (-swarm.current_fitness).argsort(kind="stable")[:n_worst]
    counter.require(n_worst)
    dims = rng.integers(swarm.dimension, size=n_worst)
    r = rng.normal(0.0, sigma, size=n_worst)
    positions = np.empty((n_worst, swarm.dimension))
    positions[:] = swarm.best[0]
    positions[np.arange(n_worst), dims] += spec.bounds.span[dims] * r
    positions.clip(spec.bounds.lower, spec.bounds.upper, out=positions)
    reference_install(swarm, idx, positions, spec, counter)


def reference_full_reconstruct(swarm, sigma, spec, rng, counter):
    """full_reconstruct with its cloud clipped by ndarray.clip and a scalar velocity fill."""
    counter.require(swarm.size)
    positions = rng.normal(0.0, sigma, size=(swarm.size, swarm.dimension))
    positions *= spec.bounds.span
    positions += swarm.best[0]
    positions.clip(spec.bounds.lower, spec.bounds.upper, out=positions)
    reference_install(swarm, slice(None), positions, spec, counter)


# every box holds 0.0, some on an edge with either sign, so a best of -0.0
# or 0.0 on an edge meets a bound of the other sign and the clamp's tie
# decides the sign of the zero
EDGES = [(-5.12, 5.12), (0.0, 3.0), (-2.0, -0.0), (-0.0, 1.0), (-100.0, 100.0)]
ON_EDGE = ["lower", "upper", "zero", "negative zero"]


class TestReconstructPaths:
    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        d=st.integers(1, 5),
        n=st.integers(2, 12),
        sigma=st.floats(0.1, 0.2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bound_reconstructs_equal_the_reference(self, data, d, n, sigma, seed):
        # partial, full, then partial again: each leaves the swarm, the
        # counter and the stream as the reference does, bit for bit
        n_worst = data.draw(st.integers(1, n), label="n_worst")
        edges = [data.draw(st.sampled_from(EDGES), label="box") for _ in range(d)]
        lower, upper = np.array(edges).T
        spec = ObjectiveSpec(Bounds(lower, upper), REGISTRY["sphere"].function)
        picks = {"lower": lower, "upper": upper, "zero": np.zeros(d), "negative zero": np.full(d, -0.0)}
        best = np.array([picks[data.draw(st.sampled_from(ON_EDGE), label="best")][j] for j in range(d)])
        draws = np.random.default_rng(seed)
        base = build_swarm(draws.uniform(lower, upper, (n, d)), draws.integers(0, 4, n).astype(float))  # ties
        base.global_best_position, base.global_best_fitness = best[None], [-1.0]
        ours, theirs = copy.deepcopy(base), copy.deepcopy(base)
        rngs, counters = (RngStream(seed), RngStream(seed)), (EvalCounter(3 * n), EvalCounter(3 * n))
        for bound, reference in (
            (lambda s, r, c: partial_reconstruct(s, n_worst, sigma, spec, r, c),
             lambda s, r, c: reference_partial_reconstruct(s, n_worst, sigma, spec, r, c)),
            (lambda s, r, c: full_reconstruct(s, sigma, spec, r, c),
             lambda s, r, c: reference_full_reconstruct(s, sigma, spec, r, c)),
            (lambda s, r, c: partial_reconstruct(s, n_worst, sigma, spec, r, c),
             lambda s, r, c: reference_partial_reconstruct(s, n_worst, sigma, spec, r, c)),
        ):
            bound(ours, rngs[0], counters[0])
            reference(theirs, rngs[1], counters[1])
            for name in STATE:
                assert same_bits(getattr(ours, name), getattr(theirs, name)), name
            assert same_bits(ours.global_best_fitness, theirs.global_best_fitness)
            assert counters[0].used == counters[1].used
        assert same_bits(rngs[0].uniform(size=3), rngs[1].uniform(size=3))
        assert same_bits(rngs[0].normal(size=3), rngs[1].normal(size=3))

    def test_operands_follow_each_box_and_count(self):
        # one swarm rebuilt under two boxes and two n_worst values in turn,
        # one of the two changing at a time, equals a swarm built afresh each
        # time; the boxes share their lower bounds and the best sits near the
        # upper corner, so the upper bound clamps moved coordinates
        wide = ObjectiveSpec(Bounds.cube(-5.12, 5.12, 4), lambda x: np.sum((x - 5.0) ** 2, axis=-1))
        tall = ObjectiveSpec(Bounds(wide.bounds.lower, np.array([5.5, 6.0, 8.0, 9.5])), wide.function)
        swarm = initialize_swarm(wide, 12, RngStream(51), 0.01 * wide.bounds.span, EvalCounter(budget=12))
        swarm.global_best_position, swarm.global_best_fitness = np.full((1, 4), 5.0), [0.0]
        for step in range(16):
            spec, n_worst = (wide, tall)[(step + 1) // 2 % 2], (3, 7)[step // 2 % 2]
            fresh = rebuilt(swarm)
            for s in (swarm, fresh):
                partial_reconstruct(s, n_worst, 0.2, spec, RngStream(step), EvalCounter(budget=n_worst))
            assert_same_state(swarm, fresh)

    def test_deep_copy_rebuilds_like_its_original_and_shares_no_array(self):
        spec = make_spec("rastrigin", 10)
        original = initialize_swarm(spec, 40, RngStream(61), 0.01 * spec.bounds.span, EvalCounter(budget=40))
        partial_reconstruct(original, 10, 0.15, spec, RngStream(62), EvalCounter(budget=10))  # bound before the copy
        twin = copy.deepcopy(original)
        rngs = RngStream(63), RngStream(63)
        for step in range(20):
            for swarm, rng in zip((original, twin), rngs):
                if step % 5 == 4:
                    full_reconstruct(swarm, 0.15, spec, rng, EvalCounter(budget=40))
                else:
                    partial_reconstruct(swarm, 10, 0.15, spec, rng, EvalCounter(budget=10))
            assert_same_state(original, twin)
        for name in STATE:
            assert not np.shares_memory(getattr(original, name), getattr(twin, name)), name
        starts, *_, at_rest = twin.work.rebuild
        assert not np.shares_memory(starts, original.work.rebuild[0])
        assert not np.shares_memory(at_rest, original.work.rebuild[-1])


# fitness values and incumbents drawn from a few values, signed zeros
# included, so rows tie with each other and with their group's incumbent
TIES = [-1.0, -0.0, 0.0, 1.0, 2.0]


class TestOneRefreshPath:
    @settings(max_examples=150, deadline=None)
    @given(
        k=st.integers(1, 33),
        s=st.integers(1, 6),
        d=st.integers(1, 4),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_refresh_equals_a_group_by_group_reference(self, k, s, d, data, seed):
        n = k * s
        fitness = np.array(data.draw(st.lists(st.sampled_from(TIES), min_size=n, max_size=n), label="fitness"))
        incumbents = data.draw(st.lists(st.sampled_from(TIES), min_size=k, max_size=k), label="incumbents")
        spec = make_spec("rastrigin", d)
        draws = np.random.default_rng(seed)
        positions, best_positions, incumbent_rows = (draws.uniform(-5.12, 5.12, (m, d)) for m in (n, n, k))
        swarm = Swarm(positions, np.zeros((n, d)), best_positions, fitness, fitness.copy(), incumbent_rows, incumbents)
        twin = copy.deepcopy(swarm)
        block, listed = swarm.global_best_position, swarm.global_best_fitness
        swarm.refresh_global_best()

        expected_rows, expected = incumbent_rows.copy(), list(incumbents)
        for g in range(k):
            i = min(range(g * s, (g + 1) * s), key=lambda row: fitness[row])  # the group's first minimum
            if fitness[i] < incumbents[g]:
                expected_rows[g], expected[g] = best_positions[i], fitness[i]
        assert same_bits(swarm.global_best_position, expected_rows)
        assert same_bits(swarm.global_best_fitness, expected)
        first = expected.index(min(expected))
        assert same_bits(swarm.best[0], expected_rows[first]) and same_bits(swarm.best[1], expected[first])
        # the workspace's identity rule: a change is a new block and list, the old ones untouched
        unchanged = expected == incumbents
        assert (swarm.global_best_position is block) == unchanged
        assert (swarm.global_best_fitness is listed) == unchanged
        assert same_bits(block, incumbent_rows) and same_bits(listed, incumbents)

        # a stack of the one swarm steps and reads as the swarm, field for field
        stacked = Swarm.stack([copy.deepcopy(twin)])
        rngs, counters = (RngStream(seed), RngStream(seed)), (EvalCounter(n), EvalCounter(n))
        for one, rng, counter in zip((twin, stacked), rngs, counters):
            pso_step(one, params_for(spec, omega=0.7), spec, rng, counter)
        assert repr(hybrid_diversity(twin, spec.bounds, 7)) == repr(hybrid_diversity(stacked, spec.bounds, 7))
        for name in STATE:
            assert same_bits(getattr(twin, name), getattr(stacked, name)), name
        assert same_bits(twin.global_best_fitness, stacked.global_best_fitness)
        assert same_bits(rngs[0].uniform(size=3), rngs[1].uniform(size=3))
