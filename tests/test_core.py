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
from conftest import column_sphere, scaling_sphere, sphere_with, total_sphere


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

    def test_empty_box_rejected(self):
        with pytest.raises(ValueError, match="lower and upper must be non-empty"):
            Bounds([], [])

    @pytest.mark.filterwarnings("error")
    def test_span_past_float_range_rejected(self):
        with pytest.raises(ValueError, match="float range"):
            Bounds([-1e308], [1e308])

    @pytest.mark.filterwarnings("error")
    def test_grid_past_float_range_rejected(self):
        bounds = Bounds([0.0, 0.0], [1.0, 1e-310])
        with pytest.raises(ValueError, match="wide enough for 10 bins"):
            bounds.grid_scale(4, 10)

    def test_vectors_are_read_only_copies(self):
        lower, upper = np.array([0.0, -2.0]), np.array([3.0, 2.0])
        bounds = Bounds(lower, upper)
        lower[0] = -50.0
        assert bounds.lower[0] == 0.0
        assert np.array_equal(bounds.span, [3.0, 4.0])
        for vector in (bounds.lower, bounds.upper, bounds.span):
            with pytest.raises(ValueError):
                vector[0] = 1.0

    @pytest.mark.parametrize("n", [1, 5, 10, 30, 40])
    def test_row_blocks_match_broadcast_rows(self, n):
        bounds = Bounds(np.array([-3.0, 0.0, 10.0]), np.array([1.0, 2.0, 11.0]))
        blocks = (*bounds.rows(n), bounds.grid_scale(n, 7))
        vectors = (bounds.lower, bounds.upper, 7 / bounds.span)
        for block, vector in zip(blocks, vectors):
            assert block.shape == (n, 3) and block.flags.c_contiguous and not block.flags.writeable
            assert np.array_equal(block, np.broadcast_to(vector, (n, 3)))
        # built once per row count (and bin count), kept apart per key
        assert bounds.rows(n)[0] is blocks[0] and bounds.grid_scale(n, 7) is blocks[2]
        assert bounds.rows(n + 1)[0].shape == (n + 1, 3)
        assert bounds.grid_scale(n, 8)[0, 0] == 8 / 4.0


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "values, message",
        [
            ([1.0, np.inf, 2.0], "objective returned an infinite value for 1 of 3 points"),
            ([-np.inf, 0.0, -np.inf], "objective returned an infinite value for 2 of 3 points"),
            ([np.inf, -np.inf, 1.0], "objective returned an infinite value for 2 of 3 points"),
            ([np.inf, np.nan, 1.0], "objective returned NaN for 1 of 3 points"),
        ],
    )
    def test_infinite_objective_rejected(self, values, message):
        spec = make_spec("sphere", 2)
        spec.function = lambda block: np.array(values)
        with pytest.raises(ValueError, match=message):
            evaluate_batch(spec, np.zeros((3, 2)), EvalCounter(budget=10))

    @pytest.mark.filterwarnings("error")
    def test_finite_block_with_overflowing_sum_passes(self):
        spec = make_spec("sphere", 2)
        spec.function = lambda block: np.array([1e308, 1e308, -5.0])
        fitness = evaluate_batch(spec, np.zeros((3, 2)), EvalCounter(budget=10))
        assert np.array_equal(fitness, [1e308, 1e308, -5.0])

    @pytest.mark.parametrize("shift", [None, np.array([0.5, -0.5])])
    def test_objective_cannot_write_its_input(self, shift):
        spec = sphere_with(2, scaling_sphere)
        spec.shift = shift
        positions = np.full((3, 2), 0.25)
        with pytest.raises(ValueError, match="^objective wrote into its read-only input: ") as caught:
            evaluate_batch(spec, positions, EvalCounter(budget=10))
        assert isinstance(caught.value.__cause__, ValueError) and "read-only" in str(caught.value.__cause__)
        assert np.all(positions == 0.25)

    @pytest.mark.parametrize("error", [ValueError("bad point"), TypeError("read-only"), KeyError("x")])
    def test_other_objective_errors_pass_unchanged(self, error):
        def failing(x):
            raise error

        with pytest.raises(type(error)) as caught:
            evaluate_batch(sphere_with(2, failing), np.zeros((3, 2)), EvalCounter(budget=10))
        assert caught.value is error

    @pytest.mark.parametrize(
        "objective, shape",
        [
            (total_sphere, r"\(\)"),
            (column_sphere, r"\(3, 1\)"),
            (lambda x: np.zeros(4), r"\(4,\)"),
            (lambda x: np.zeros((1, 3)), r"\(1, 3\)"),
        ],
    )
    def test_wrong_result_shape_rejected(self, objective, shape):
        with pytest.raises(ValueError, match=rf"objective returned shape {shape} for 3 points; expected \(3,\)"):
            evaluate_batch(sphere_with(2, objective), np.zeros((3, 2)), EvalCounter(budget=10))

    def test_list_result_accepted(self):
        spec = sphere_with(2, lambda x: [1, -2.5, 0.0])
        fitness = evaluate_batch(spec, np.zeros((3, 2)), EvalCounter(budget=10))
        assert fitness.dtype == float and np.array_equal(fitness, [1.0, -2.5, 0.0])

    def test_result_is_copied(self):
        # an objective may return a view of its input or a buffer it reuses
        buffer = np.zeros(3)

        def reused(x):
            buffer[:] = x[:, 0]
            return buffer

        positions = np.arange(6.0).reshape(3, 2)
        for objective in (lambda x: x[:, 0], reused):
            fitness = evaluate_batch(sphere_with(2, objective), positions, EvalCounter(budget=10))
            fitness[:] = -1.0
            assert np.array_equal(positions[:, 0], [0.0, 2.0, 4.0])
            assert not np.shares_memory(fitness, buffer)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_shift_rejected(self, bad):
        # such a shift would surface only as a NaN or infinite fitness, blamed on the objective
        with pytest.raises(ValueError, match="every shift entry must be finite"):
            make_spec("sphere", 2, shift=[bad, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rotation_rejected(self, bad):
        rotation = np.eye(2)
        rotation[1, 0] = bad
        with pytest.raises(ValueError, match="every rotation entry must be finite"):
            make_spec("sphere", 2, rotation=rotation)

    def test_rotation_whose_residual_is_nan_rejected(self):
        # finite entries whose products overflow give a NaN residual, which no comparison passes
        with pytest.raises(ValueError, match="not orthogonal"):
            make_spec("sphere", 2, rotation=np.array([[1e200, 1e200], [1e200, -1e200]]))


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
