import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from ampso.benchmarks import (
    REGISTRY,
    UnknownFunctionError,
    get_entry,
    make_spec,
    random_rotation,
)

# direct formula evaluation in a scratch interpreter session, frozen here
GRIEWANK_AT_PI_PI = 0.39923493512173125

# the textbook forms, with np.sum/np.prod and fresh temporaries
TEXTBOOK = {
    "sphere": lambda x: np.sum(x * x, axis=-1),
    "rosenbrock": lambda x: np.sum(
        100.0 * (x[..., 1:] - x[..., :-1] ** 2) ** 2 + (1.0 - x[..., :-1]) ** 2, axis=-1
    ),
    "ackley": lambda x: (
        -20.0 * np.exp(-0.2 * np.sqrt(np.sum(x * x, axis=-1) / x.shape[-1]))
        - np.exp(np.sum(np.cos(2.0 * np.pi * x), axis=-1) / x.shape[-1])
        + 20.0
        + np.e
    ),
    "rastrigin": lambda x: np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x) + 10.0, axis=-1),
    "griewank": lambda x: (
        1.0
        + np.sum(x * x, axis=-1) / 4000.0
        - np.prod(np.cos(x / np.sqrt(np.arange(1, x.shape[-1] + 1, dtype=float))), axis=-1)
    ),
    "schwefel_226": lambda x: 418.9828872724338 * x.shape[-1] - np.sum(x * np.sin(np.sqrt(np.abs(x))), axis=-1),
}


class TestTextbookForms:
    @pytest.mark.parametrize("shape", [(40, 10), (5, 100), (10,), (3, 4, 7)])
    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_bit_equal_to_textbook_form(self, name, shape):
        entry = get_entry(name)
        low, high = entry.default_bounds
        rng = np.random.default_rng(len(shape) * 1000 + shape[-1])
        for x in (rng.uniform(low, high, size=shape), rng.uniform(-1.0, 1.0, size=shape)):
            before = x.copy()
            fast, textbook = entry.function(x), TEXTBOOK[name](x)
            assert np.shape(fast) == np.shape(textbook) == shape[:-1]
            assert np.array_equal(fast, textbook)
            assert np.array_equal(np.signbit(fast), np.signbit(textbook))
            assert np.array_equal(x, before)  # the input block is never written


class TestRegistryValues:
    @pytest.mark.parametrize("dim", [2, 10, 30])
    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_optimum_reproduced(self, name, dim):
        entry = get_entry(name)
        value = entry.function(np.full(dim, entry.optimum_coordinate))
        assert abs(value - entry.optimum_value) <= 1e-9

    def test_sphere_zero(self):
        assert REGISTRY["sphere"].function(np.zeros(13)) == 0.0

    def test_ackley_zero(self):
        assert abs(REGISTRY["ackley"].function(np.zeros(10))) <= 1e-12

    def test_griewank_scratch_value(self):
        value = REGISTRY["griewank"].function(np.array([np.pi, np.pi]))
        assert value == pytest.approx(GRIEWANK_AT_PI_PI, abs=1e-12)

    def test_rosenbrock_at_ones(self):
        assert REGISTRY["rosenbrock"].function(np.ones(6)) == 0.0

    def test_rastrigin_hand_value(self):
        assert REGISTRY["rastrigin"].function(np.array([1.0, 0.0, 0.0])) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_schwefel_error_form_near_conventional_optimum(self):
        # four-decimal coordinate from the common tables
        value = REGISTRY["schwefel_226"].function(np.full(10, 420.9687))
        assert abs(value) <= 1e-3

    def test_schwefel_constant_against_minimization_oracle(self):
        res = minimize_scalar(
            lambda v: -v * np.sin(np.sqrt(abs(v))),
            bounds=(400.0, 440.0),
            method="bounded",
            options={"xatol": 1e-12},
        )
        entry = get_entry("schwefel_226")
        assert entry.optimum_coordinate == pytest.approx(res.x, abs=1e-4)
        # the per-dimension offset equals the magnitude of the 1-D minimum
        assert -res.fun == pytest.approx(418.9828872724338, abs=1e-9)

    @pytest.mark.parametrize("dimension", [0, -3, True, 2.0])
    def test_dimension_must_be_a_positive_integer(self, dimension):
        # named before any box is built, so the message is about the dimension
        with pytest.raises(ValueError, match=rf"^dimension must be a positive integer, got {dimension!r}$"):
            make_spec("sphere", dimension)

    def test_unknown_name_lists_available(self):
        with pytest.raises(UnknownFunctionError) as err:
            make_spec("nosuch", 2)
        for name in REGISTRY:
            assert name in str(err.value)

    def test_batch_evaluation_matches_rows(self):
        rng = np.random.default_rng(0)
        block = rng.uniform(-5, 5, size=(50, 4))
        for name in REGISTRY:
            batched = REGISTRY[name].function(block)
            rowwise = np.array([REGISTRY[name].function(row) for row in block])
            assert np.array_equal(batched, rowwise)


class TestErrorFormNonNegativity:
    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_non_negative_on_default_box(self, name):
        entry = get_entry(name)
        rng = np.random.default_rng(7)
        low, high = entry.default_bounds
        x = rng.uniform(low, high, size=(10_000, 10))
        values = entry.function(x) - entry.optimum_value
        assert values.min() >= -1e-9


class TestComposeTransform:
    """Shift and rotation composed by make_spec: f(rotation @ (x - shift))."""

    def test_identity_transform_matches_raw(self):
        rng = np.random.default_rng(1)
        spec = make_spec("rastrigin", 5, shift=np.zeros(5), rotation=np.eye(5))
        x = rng.uniform(-100, 100, size=(100, 5))
        raw = REGISTRY["rastrigin"].function(x)
        transformed = spec.function(spec.transform(x))
        assert np.max(np.abs(raw - transformed)) <= 1e-12

    def test_shift_moves_optimum(self):
        shift = np.array([3.0, -7.0, 11.0])
        spec = make_spec("ackley", 3, shift=shift)
        value = spec.function(spec.transform(shift[None, :]))[0]
        assert abs(value - spec.optimum_value) <= 1e-9

    def test_rotation_fixes_shifted_optimum(self):
        rng = np.random.default_rng(2)
        shift = rng.uniform(-50, 50, size=8)
        rotation = random_rotation(8, rng)
        spec = make_spec("rastrigin", 8, shift=shift, rotation=rotation)
        value = spec.function(spec.transform(shift[None, :]))[0]
        assert abs(value - spec.optimum_value) <= 1e-9

    def test_sphere_rotation_invariance(self):
        rng = np.random.default_rng(3)
        shift = rng.uniform(-10, 10, size=6)
        rotation = random_rotation(6, rng)
        rotated = make_spec("sphere", 6, shift=shift, rotation=rotation)
        plain = make_spec("sphere", 6, shift=shift)
        x = rng.uniform(-100, 100, size=(1000, 6))
        a = rotated.function(rotated.transform(x))
        b = plain.function(plain.transform(x))
        assert np.max(np.abs(a - b)) <= 1e-9 * np.maximum(1.0, np.abs(b)).max()

    def test_non_orthogonal_rotation_rejected(self):
        with pytest.raises(ValueError):
            make_spec("sphere", 3, shift=np.zeros(3), rotation=np.ones((3, 3)))

    def test_random_rotations_are_orthogonal(self):
        rng = np.random.default_rng(4)
        for dim in (2, 5, 12):
            q = random_rotation(dim, rng)
            assert np.max(np.abs(q.T @ q - np.eye(dim))) <= 1e-10


class TestSpecDefaults:
    def test_default_bounds_follow_entry(self):
        assert make_spec("sphere", 3).bounds.lower[0] == -100.0
        assert make_spec("schwefel_226", 3).bounds.upper[0] == 500.0

    def test_optimum_value_attached(self):
        assert make_spec("griewank", 4).optimum_value == 0.0
