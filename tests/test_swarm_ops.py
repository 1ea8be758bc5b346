import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ampso.core import Bounds, BudgetExhausted, EvalCounter, ObjectiveSpec, RngStream, evaluate_batch, initialize_swarm
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
    return ObjectiveSpec(dim, Bounds.cube(low, high, dim), REGISTRY["sphere"].function)


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
        swarm.global_best_position = np.array([4.0])
        swarm.global_best_fitness = 16.0
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
        assert swarm.global_best_fitness == swarm.best_fitness.min()

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
        assert swarm.global_best_fitness == 0.0
        assert np.array_equal(swarm.global_best_position, np.zeros(2))

    def test_spawned_particle_can_beat_seed(self):
        spec = sphere_spec(2)
        counter = EvalCounter(budget=20)
        swarm = spawn_artificial_swarm(
            np.full(2, 10.0), 200.0, 10, spec, RngStream(6), counter, 0.01 * spec.bounds.span
        )
        assert swarm.global_best_fitness == swarm.best_fitness.min()
        assert swarm.global_best_fitness < 200.0

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
        swarm.global_best_position = np.array([50.0, 50.0, 50.0])
        swarm.global_best_fitness = 7500.0
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
        best_before = swarm.global_best_fitness
        partial_reconstruct(swarm, 4, 0.2, spec, rng, EvalCounter(budget=100))
        assert swarm.global_best_fitness <= best_before

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
        best = swarm.global_best_position.copy()
        full_reconstruct(swarm, 1e-300, spec, StubRng(normal_value=0.0), EvalCounter(budget=10))
        assert np.allclose(swarm.positions, best)
        assert np.all(swarm.velocities == 0.0)

    def test_retained_best_property(self):
        spec = sphere_spec(4)
        rng = RngStream(12)
        swarm = initialize_swarm(spec, 10, rng, 0.01 * spec.bounds.span, EvalCounter(budget=200))
        best_before = swarm.global_best_fitness
        full_reconstruct(swarm, 0.2, spec, rng, EvalCounter(budget=200))
        assert swarm.global_best_fitness <= best_before

    def test_spread_statistics(self):
        spec = sphere_spec(10)
        swarm = build_swarm(np.zeros((10_000, 10)), current_fitness=np.zeros(10_000))
        swarm.global_best_position = np.zeros(10)
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
        best = swarm.global_best_fitness
        for round_index in range(100):
            action = round_index % 4
            if action == 0:
                pso_step(swarm, params_for(spec, omega=0.7), spec, rng, counter)
            elif action == 1:
                partial_reconstruct(swarm, 3, 0.12, spec, rng, counter)
            elif action == 2:
                full_reconstruct(swarm, 0.15, spec, rng, counter)
            else:
                swarm = spawn_artificial_swarm(
                    swarm.global_best_position,
                    swarm.global_best_fitness,
                    12,
                    spec,
                    rng,
                    counter,
                    vmax,
                )
            assert swarm.global_best_fitness <= best + 1e-15
            best = swarm.global_best_fitness
            assert np.all(swarm.positions >= spec.bounds.lower)
            assert np.all(swarm.positions <= spec.bounds.upper)

    def test_isolated_swarms_do_not_couple(self):
        # two equal-size swarms read and stepped in alternation end bit for
        # bit as each one read and stepped alone: no scratch array is shared
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
        draws = RngStream(9)
        r1, r2 = draws.uniform(size=(40, 10)), draws.uniform(size=(40, 10))
        x = swarm.positions.copy()
        v = (
            params.omega * swarm.velocities
            + params.c1 * r1 * (swarm.best_positions - x)
            + params.c2 * r2 * (swarm.global_best_position - x)
        )
        v = np.clip(v, -vmax, vmax)
        x = np.clip(x + v, spec.bounds.lower, spec.bounds.upper)
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
