import math
import re

import numpy as np
import pytest

from ampso.core import (
    Bounds,
    BudgetExhausted,
    EvalCounter,
    ObjectiveSpec,
    RngStream,
    Swarm,
    evaluate_batch,
    initialize_swarm,
    safe_repr,
)
from ampso.benchmarks import REGISTRY, make_spec
from ampso.diversity import grid_scale
from conftest import column_sphere, scaling_sphere, sphere_with, total_sphere


def clipped(position, bounds: Bounds) -> np.ndarray:
    """A copy of ``position`` clipped the way every operator clips in place."""
    out = np.array(position, dtype=float)
    out.clip(bounds.lower, bounds.upper, out=out)
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
            grid_scale(bounds, 10)
        assert np.array_equal(grid_scale(Bounds([-3.0, 0.0], [1.0, 2.0]), 8), [2.0, 4.0])

    def test_vectors_are_read_only_copies(self):
        lower, upper = np.array([0.0, -2.0]), np.array([3.0, 2.0])
        bounds = Bounds(lower, upper)
        lower[0] = -50.0
        assert bounds.lower[0] == 0.0
        assert np.array_equal(bounds.span, [3.0, 4.0])
        for vector in (bounds.lower, bounds.upper, bounds.span):
            with pytest.raises(ValueError):
                vector[0] = 1.0


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

    @pytest.mark.parametrize("function", [None, 3.0])
    def test_function_must_be_callable(self, function):
        with pytest.raises(ValueError, match="an objective callable is required"):
            ObjectiveSpec(Bounds.cube(-1.0, 1.0, 2), function)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "0", None, True, False, 1j])
    def test_optimum_must_be_a_finite_real(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"optimum_value must be a finite real number, got {bad!r}")):
            ObjectiveSpec(Bounds.cube(-1.0, 1.0, 2), REGISTRY["sphere"].function, optimum_value=bad)

    def test_optimum_past_the_float_range_rejected(self):
        # math.isfinite cannot convert such an int: no OverflowError may escape
        with pytest.raises(ValueError, match="^optimum_value must be a finite real number, got 1000"):
            ObjectiveSpec(Bounds.cube(-1.0, 1.0, 2), REGISTRY["sphere"].function, optimum_value=10**401)

    def test_optimum_too_long_to_print_rejected_by_name(self):
        # repr() refuses an int of more than 4,300 digits; the message gives its size instead
        with pytest.raises(ValueError, match="^optimum_value must be a finite real number, got an int of 16610 bits$"):
            ObjectiveSpec(Bounds.cube(-1.0, 1.0, 2), REGISTRY["sphere"].function, optimum_value=10**5000)

    @pytest.mark.parametrize("good", [0, -450.0, 1e300, np.float64(2.5), np.int64(-3)])
    def test_finite_real_optimum_accepted(self, good):
        assert ObjectiveSpec(Bounds.cube(-1.0, 1.0, 2), REGISTRY["sphere"].function, optimum_value=good).optimum_value == good

    def test_dimension_is_the_box_dimension(self):
        box = Bounds.cube(-1.0, 1.0, 4)
        assert ObjectiveSpec(box, REGISTRY["sphere"].function).dimension == box.dimension == 4

    @pytest.mark.parametrize("bad", [(-1.0, 1.0), np.array([-1.0, 1.0]), None])
    def test_bounds_must_be_a_bounds(self, bad):
        with pytest.raises(ValueError, match=f"^bounds must be a Bounds, got {type(bad).__name__}$"):
            ObjectiveSpec(bad, REGISTRY["sphere"].function)


class TestSafeRepr:
    @pytest.mark.parametrize("value", [0, -7, 10**4299, -(10**4299), 2.5, math.nan, "x", None, np.int64(3)])
    def test_printable_values_are_their_repr(self, value):
        # an int of up to 4,300 digits prints as before, byte for byte
        assert safe_repr(value) == repr(value)

    @pytest.mark.parametrize("value", [10**4300, -(10**5000), 2**20000], ids=["4301-digits", "minus-5001-digits", "2**20000"])
    def test_int_too_long_to_print_is_its_size(self, value):
        assert safe_repr(value) == f"an int of {value.bit_length()} bits"


class TestSwarmFresh:
    POSITIONS = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])

    def fresh(self, fitness, incumbent=None):
        positions = self.POSITIONS.copy()
        return positions, Swarm.fresh(positions, np.zeros_like(positions), np.array(fitness), incumbent)

    def test_particle_tying_the_incumbent_does_not_replace_it(self):
        _, swarm = self.fresh([3.0, 1.0, 2.0], incumbent=(np.array([9.0, 9.0]), 1.0))
        assert np.array_equal(swarm.global_best_position, [[9.0, 9.0]])
        assert swarm.global_best_fitness == [1.0]

    def test_first_of_two_tied_new_bests_wins(self):
        for incumbent in (None, (np.array([9.0, 9.0]), 5.0)):
            _, swarm = self.fresh([2.0, 1.0, 1.0], incumbent)
            assert np.array_equal(swarm.global_best_position, [[2.0, 3.0]])
            assert swarm.global_best_fitness == [1.0]

    def test_global_best_position_is_a_copy(self):
        positions, swarm = self.fresh([2.0, 1.0, 3.0])
        positions[1] = swarm.best_positions[1] = -7.0
        assert np.array_equal(swarm.global_best_position, [[2.0, 3.0]])
        incumbent = np.array([9.0, 9.0])
        _, swarm = self.fresh([2.0, 1.0, 3.0], incumbent=(incumbent, 0.5))
        incumbent[:] = -7.0
        assert np.array_equal(swarm.global_best_position, [[9.0, 9.0]])


class TestSwarmGroups:
    def rastrigin_swarms(self, *sizes):
        spec = make_spec("rastrigin", 3)
        return [initialize_swarm(spec, n, RngStream(n), 0.01 * spec.bounds.span, EvalCounter(budget=n)) for n in sizes]

    def test_stack_rejects_unequal_sizes(self):
        # stacked, 5 and 3 rows would read as two groups of 4
        with pytest.raises(ValueError, match=r"equal sizes, got group sizes \[5, 3\]"):
            Swarm.stack(self.rastrigin_swarms(5, 3))

    def test_stack_rejects_unequal_groups_of_equal_swarms(self):
        # 6 rows as one group and 6 rows as three groups of 2: 12 rows, four groups of 3
        one, other = self.rastrigin_swarms(6)[0], Swarm.stack(self.rastrigin_swarms(2, 2, 2))
        with pytest.raises(ValueError, match=r"got group sizes \[6, 2\]"):
            Swarm.stack([one, other])

    def test_stack_joins_groups_in_order(self):
        first, second = Swarm.stack(self.rastrigin_swarms(4, 4)), self.rastrigin_swarms(4)[0]
        stacked = Swarm.stack([first, second])
        assert stacked.global_best_fitness == first.global_best_fitness + second.global_best_fitness
        assert np.array_equal(stacked.global_best_position, np.vstack([first.global_best_position, second.global_best_position]))
        assert stacked.work.size == 4 and stacked.work.group_targets.shape == (4, 3, 3)

    @staticmethod
    def build(global_best_position, global_best_fitness, n=6, d=3):
        x = np.zeros((n, d))
        return Swarm(x, x.copy(), x.copy(), np.zeros(n), np.zeros(n), global_best_position, global_best_fitness)

    @pytest.mark.parametrize("k", [0, 4, 12])
    def test_constructor_rejects_fitness_that_does_not_group_the_rows(self, k):
        with pytest.raises(ValueError, match=f"must hold k >= 1 group bests, k dividing the 6 rows; got k = {k}"):
            self.build(np.zeros((k, 3)), [0.0] * k)

    @pytest.mark.parametrize("shape", [(3,), (1, 3), (2, 2), (2, 1, 3), (6, 3)])
    def test_constructor_rejects_a_best_block_that_is_not_k_by_d(self, shape):
        with pytest.raises(ValueError, match=r"global_best_position must be a \(2, 3\) block"):
            self.build(np.zeros(shape), [0.0, 0.0])

    def test_one_group_is_a_one_row_block(self):
        swarm = self.build(np.ones((1, 3)), [0.0])
        assert swarm.work.size == 6 and swarm.best[1] == 0.0
        assert np.array_equal(swarm.best[0], np.ones(3))


class TestRngStream:
    def test_same_seed_same_sequences(self):
        a, b = RngStream(42), RngStream(42)
        assert np.array_equal(a.uniform(size=100), b.uniform(size=100))
        assert np.array_equal(a.normal(size=100), b.normal(size=100))
        assert np.array_equal(a.integers(10, size=50), b.integers(10, size=50))
        assert np.array_equal(a.permutation(20), b.permutation(20))

    def test_integers_draw_the_generator_stream_from_zero(self):
        # partial_reconstruct's dimension picks: integers(high, size) must draw
        # what Generator.integers(0, high, size) draws, and leave the uniform
        # sequence where it leaves it, or every golden digest breaks
        reference = np.random.default_rng(np.random.SeedSequence(7).spawn(2)[0])
        stream = RngStream(7)
        for high in (1, 2, 10, 100):
            for _ in range(250):
                assert np.array_equal(stream.integers(high, size=10), reference.integers(0, high, 10))
        assert stream.uniform() == reference.random()

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

    @pytest.mark.parametrize("seed", [1.7, 1.0, True, "1"])
    def test_non_integer_seed_rejected(self, seed):
        # int() would turn each of these into seed 1 and draw its stream
        with pytest.raises(ValueError, match="seed must be an integer"):
            RngStream(seed)

    def test_seed_too_long_to_print_rejected_by_name(self):
        with pytest.raises(ValueError, match="^seed must be an integer that fits in an unsigned 64-bit integer, got an int of 16610 bits$"):
            RngStream(10**5000)

    @pytest.mark.parametrize("seed", [np.int64(5), np.uint64(5)])
    def test_numpy_integer_seed_accepted(self, seed):
        assert np.array_equal(RngStream(seed).uniform(size=3), RngStream(5).uniform(size=3))


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
        assert swarm.global_best_fitness == [swarm.best_fitness.min()]
        i = int(np.argmin(swarm.best_fitness))
        assert np.array_equal(swarm.global_best_position, swarm.positions[i : i + 1])

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
