import numpy as np
import pytest

from ampso.core import (
    Bounds,
    BudgetExhausted,
    EvalCounter,
    RngStream,
    evaluate_batch,
    initialize_swarm,
)
from ampso.benchmarks import make_spec
from ampso.swarm_ops import _clip_into


def clipped(position, bounds: Bounds) -> np.ndarray:
    """A copy of ``position`` clipped the way every operator clips in place."""
    out = np.array(position, dtype=float)
    _clip_into(out, bounds.lower, bounds.upper)
    return out


class TestBounds:
    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            Bounds.cube(0.0, 0.0, 3)

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError):
            Bounds(np.array([0.0, 5.0]), np.array([1.0, 4.0]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_bounds_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Bounds(np.array([-1.0, bad]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            Bounds(np.array([-1.0, -1.0]), np.array([bad, 1.0]))

    def test_diagonal_length_recomputable(self):
        bounds = Bounds(np.array([0.0, -2.0]), np.array([3.0, 2.0]))
        assert bounds.diagonal_length == pytest.approx(5.0, abs=1e-15)


class TestClampToBounds:
    def test_clips_outliers(self):
        bounds = Bounds.cube(-100.0, 100.0, 2)
        assert np.array_equal(clipped([150.0, -150.0], bounds), [100.0, -100.0])

    def test_identity_inside(self):
        bounds = Bounds.cube(-100.0, 100.0, 2)
        assert np.array_equal(clipped([0.0, 50.0], bounds), [0.0, 50.0])

    def test_boundary_fixed_point(self):
        bounds = Bounds.cube(-100.0, 100.0, 2)
        assert np.array_equal(clipped([100.0, 100.0], bounds), [100.0, 100.0])

    def test_idempotent_on_random_inputs(self):
        bounds = Bounds(np.array([-3.0, 0.0, 10.0]), np.array([1.0, 2.0, 11.0]))
        rng = np.random.default_rng(0)
        x = rng.uniform(-50, 50, size=(10_000, 3))
        once = clipped(x, bounds)
        assert np.array_equal(clipped(once, bounds), once)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            clipped([1.0, 2.0, 3.0], Bounds.cube(0.0, 1.0, 2))


class TestEvaluate:
    def test_sphere_optimum(self):
        spec = make_spec("sphere", 10)
        counter = EvalCounter(budget=10)
        assert evaluate_batch(spec, np.zeros((1, 10)), counter)[0] == 0.0
        assert counter.used == 1

    def test_shifted_optimum(self):
        spec = make_spec("sphere", 2, shift=np.array([1.0, 1.0]))
        counter = EvalCounter(budget=10)
        assert evaluate_batch(spec, np.array([[1.0, 1.0]]), counter)[0] == 0.0

    def test_rastrigin_hand_value(self):
        # per-dimension term x^2 - 10 cos(2 pi x) + 10 equals 1 at x = 1
        spec = make_spec("rastrigin", 3)
        counter = EvalCounter(budget=10)
        value = evaluate_batch(spec, np.array([[1.0, 0.0, 0.0]]), counter)[0]
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch_is_hard_error(self):
        spec = make_spec("sphere", 3)
        with pytest.raises(ValueError):
            evaluate_batch(spec, np.zeros((2, 4)), EvalCounter(budget=10))
        with pytest.raises(ValueError):
            evaluate_batch(spec, np.zeros(3), EvalCounter(budget=10))

    def test_budget_exhaustion_signalled(self):
        spec = make_spec("sphere", 2)
        counter = EvalCounter(budget=3)
        evaluate_batch(spec, np.zeros((2, 2)), counter)
        with pytest.raises(BudgetExhausted):
            evaluate_batch(spec, np.zeros((2, 2)), counter)
        assert counter.used == 2

    def test_counter_matches_objective_calls(self):
        spec = make_spec("sphere", 4)
        calls = {"rows": 0}
        inner = spec.function

        def spy(block):
            calls["rows"] += block.shape[0]
            return inner(block)

        spec.function = spy
        counter = EvalCounter(budget=100)
        for _ in range(5):
            evaluate_batch(spec, np.ones((1, 4)), counter)
        evaluate_batch(spec, np.zeros((7, 4)), counter)
        assert counter.used == calls["rows"] == 12

    def test_nan_objective_rejected(self):
        spec = make_spec("sphere", 2)
        spec.function = lambda block: np.array([1.0, np.nan, np.nan])
        with pytest.raises(ValueError, match="objective returned NaN for 2 of 3 points"):
            evaluate_batch(spec, np.zeros((3, 2)), EvalCounter(budget=10))


class TestObjectiveSpec:
    def test_rotation_must_be_orthogonal(self):
        with pytest.raises(ValueError):
            make_spec("sphere", 2, rotation=np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rotation_shape_checked(self):
        with pytest.raises(ValueError):
            make_spec("sphere", 3, rotation=np.eye(2))

    def test_shift_length_checked(self):
        with pytest.raises(ValueError):
            make_spec("sphere", 3, shift=np.zeros(2))


class TestRngStream:
    def test_same_seed_same_sequences(self):
        a, b = RngStream(42), RngStream(42)
        assert np.array_equal(a.uniform(size=100), b.uniform(size=100))
        assert np.array_equal(a.normal(size=100), b.normal(size=100))
        assert np.array_equal(a.integers(0, 10, size=50), b.integers(0, 10, size=50))
        assert np.array_equal(a.permutation(20), b.permutation(20))

    def test_uniform_range(self):
        draws = RngStream(1).uniform(size=100_000)
        assert draws.min() >= 0.0 and draws.max() < 1.0

    def test_gaussian_moments(self):
        draws = RngStream(2).normal(mean=3.0, sd=2.0, size=200_000)
        assert draws.mean() == pytest.approx(3.0, abs=0.02)
        assert draws.std() == pytest.approx(2.0, rel=0.01)

    def test_gaussian_and_uniform_sequences_independent(self):
        # interleaving draws from one stream must not perturb the other
        a, b = RngStream(7), RngStream(7)
        u1 = a.uniform(size=10)
        a.normal(size=1000)
        u2 = a.uniform(size=10)
        expected = b.uniform(size=20)
        assert np.array_equal(np.concatenate([u1, u2]), expected)

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(2**64)


class TestInitializeSwarm:
    def test_uniform_positions_and_accounting(self):
        spec = make_spec("sphere", 10)
        counter = EvalCounter(budget=1000)
        vmax = 0.01 * spec.bounds.span
        swarm = initialize_swarm(spec, 40, RngStream(0), vmax, counter)
        assert swarm.positions.shape == (40, 10)
        assert np.all(swarm.positions >= -100.0) and np.all(swarm.positions <= 100.0)
        assert np.all(np.abs(swarm.velocities) <= vmax)
        assert counter.used == 40

    def test_bests_start_at_positions(self):
        spec = make_spec("rastrigin", 5)
        counter = EvalCounter(budget=100)
        swarm = initialize_swarm(spec, 8, RngStream(3), 0.01 * spec.bounds.span, counter)
        assert np.array_equal(swarm.best_positions, swarm.positions)
        assert np.array_equal(swarm.best_fitness, swarm.current_fitness)
        assert swarm.global_best_fitness == swarm.best_fitness.min()
        i = int(np.argmin(swarm.best_fitness))
        assert np.array_equal(swarm.global_best_position, swarm.positions[i])

    def test_reevaluation_consistency(self):
        spec = make_spec("ackley", 6)
        counter = EvalCounter(budget=100)
        swarm = initialize_swarm(spec, 10, RngStream(5), 0.01 * spec.bounds.span, counter)
        again = evaluate_batch(spec, swarm.best_positions, EvalCounter(budget=swarm.size))
        assert np.array_equal(again, swarm.best_fitness)

    def test_seed_determinism(self):
        spec = make_spec("griewank", 7)
        vmax = 0.01 * spec.bounds.span
        a = initialize_swarm(spec, 12, RngStream(42), vmax, EvalCounter(budget=50))
        b = initialize_swarm(spec, 12, RngStream(42), vmax, EvalCounter(budget=50))
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.velocities, b.velocities)
        assert np.array_equal(a.current_fitness, b.current_fitness)

    def test_budget_shortfall_spends_nothing(self):
        spec = make_spec("sphere", 4)
        counter = EvalCounter(budget=25)
        rng = RngStream(0)
        with pytest.raises(BudgetExhausted):
            initialize_swarm(spec, 40, rng, 0.01 * spec.bounds.span, counter)
        assert counter.used == 0
        assert np.array_equal(rng.uniform(size=4), RngStream(0).uniform(size=4))

    def test_size_must_be_positive(self):
        spec = make_spec("sphere", 2)
        with pytest.raises(ValueError):
            initialize_swarm(spec, 0, RngStream(0), 0.01 * spec.bounds.span, EvalCounter(budget=10))
