"""Classical test-function registry with generic shift/rotation composition.

All functions accept positions of shape (..., D) and reduce over the last
axis, so single vectors and whole swarms evaluate through the same code
path.  They call ``np.add.reduce``/``np.multiply.reduce`` directly, which
is what ``np.sum``/``np.prod`` call after a few microseconds of wrapper,
and reuse their temporaries in place: every value is computed by the same
operations, in the same order, as the textbook formula.  Every registry
entry knows its optimum, which makes error-form reporting (f(x) - f(x*))
exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .core import Bounds, ObjectiveSpec

__all__ = [
    "BenchmarkEntry",
    "REGISTRY",
    "UnknownFunctionError",
    "get_entry",
    "make_spec",
    "random_rotation",
]

# 1-D minimizer and minimum of -x*sin(sqrt(|x|)), frozen from a numeric
# minimization oracle; accurate to ~1e-13.
_SCHWEFEL_XSTAR = 420.9687462275036
_SCHWEFEL_OFFSET = 418.9828872724338


def sphere(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.add.reduce(x * x, axis=-1)


def rosenbrock(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    head, tail = x[..., :-1], x[..., 1:]
    return np.add.reduce(100.0 * (tail - head**2) ** 2 + (1.0 - head) ** 2, axis=-1)


def ackley(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    rms = np.sqrt(np.add.reduce(x * x, axis=-1) / d)
    waves = np.multiply(2.0 * np.pi, x)
    cos_mean = np.add.reduce(np.cos(waves, out=waves), axis=-1) / d
    return -20.0 * np.exp(-0.2 * rms) - np.exp(cos_mean) + 20.0 + np.e


def rastrigin(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    # x*x - 10 cos(2 pi x) + 10, term by term as written, in two temporaries
    waves = np.multiply(2.0 * np.pi, x)
    np.cos(waves, out=waves)
    waves *= 10.0
    terms = x * x
    terms -= waves
    terms += 10.0
    return np.add.reduce(terms, axis=-1)


@lru_cache(maxsize=16)
def _griewank_divisors(d: int) -> np.ndarray:
    """sqrt(1), ..., sqrt(d), read-only."""
    divisors = np.sqrt(np.arange(1, d + 1, dtype=float))
    divisors.setflags(write=False)
    return divisors


def griewank(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    waves = x / _griewank_divisors(x.shape[-1])
    np.cos(waves, out=waves)
    return 1.0 + np.add.reduce(x * x, axis=-1) / 4000.0 - np.multiply.reduce(waves, axis=-1)


def schwefel_226(x: np.ndarray) -> np.ndarray:
    """Schwefel 2.26 in error form: zero at x = 420.9687...

    Conventional box is [-500, 500]; the optimum sits outside the
    [-100, 100] box shared by the other entries.
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    return _SCHWEFEL_OFFSET * d - np.add.reduce(x * np.sin(np.sqrt(np.abs(x))), axis=-1)


class UnknownFunctionError(ValueError):
    """Lookup of a function name that is not in the registry."""


@dataclass(frozen=True)
class BenchmarkEntry:
    """Registry row: the callable plus everything needed to pose a problem."""

    name: str
    function: Callable[[np.ndarray], np.ndarray]
    default_bounds: tuple[float, float]
    optimum_coordinate: float  # optimum position is this value in every dimension
    optimum_value: float


REGISTRY: dict[str, BenchmarkEntry] = {
    e.name: e
    for e in [
        BenchmarkEntry("sphere", sphere, (-100.0, 100.0), 0.0, 0.0),
        BenchmarkEntry("rosenbrock", rosenbrock, (-100.0, 100.0), 1.0, 0.0),
        BenchmarkEntry("ackley", ackley, (-100.0, 100.0), 0.0, 0.0),
        BenchmarkEntry("rastrigin", rastrigin, (-100.0, 100.0), 0.0, 0.0),
        BenchmarkEntry("griewank", griewank, (-100.0, 100.0), 0.0, 0.0),
        BenchmarkEntry("schwefel_226", schwefel_226, (-500.0, 500.0), _SCHWEFEL_XSTAR, 0.0),
    ]
}


def get_entry(name: str) -> BenchmarkEntry:
    try:
        return REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise UnknownFunctionError(f"unknown function {name!r}; available: {known}") from None


def make_spec(
    name: str,
    dimension: int,
    shift: np.ndarray | None = None,
    rotation: np.ndarray | None = None,
) -> ObjectiveSpec:
    """Pose a problem instance from a registry entry: f(rotation @ (x - shift)).

    The box is the entry's default cube; another box is posed directly,
    as ``ObjectiveSpec(dimension, box, REGISTRY[name].function)``.  For
    entries whose raw optimum is the origin, the optimum moves to
    ``shift`` (rotations fix the origin of the transformed frame, so they
    do not move it further).  Non-orthogonal rotations are rejected.
    """
    entry = get_entry(name)
    return ObjectiveSpec(
        dimension=dimension,
        bounds=Bounds.cube(*entry.default_bounds, dimension),
        function=entry.function,
        shift=shift,
        rotation=rotation,
        optimum_value=entry.optimum_value,
    )


def random_rotation(dimension: int, rng: np.random.Generator) -> np.ndarray:
    """Orthogonal matrix from the QR factorization of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(dimension, dimension)))
    # normalize so the factorization is unique and det-stable
    return q * np.sign(np.diag(r))
