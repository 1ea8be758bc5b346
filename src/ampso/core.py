"""Shared building blocks: search bounds, swarm state, objective plumbing,
deterministic random streams, and function-evaluation accounting.

Every optimizer run owns exactly one :class:`RngStream` and one
:class:`EvalCounter`; operators receive both explicitly so that runs are
reproducible and evaluation costs are auditable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "BudgetExhausted",
    "Bounds",
    "Swarm",
    "ObjectiveSpec",
    "EvalCounter",
    "RngStream",
    "evaluate_batch",
    "initialize_swarm",
]

ROTATION_ORTHO_TOL = 1e-8


class BudgetExhausted(RuntimeError):
    """The evaluation budget cannot cover a requested operation.

    Raised before the operation draws, writes or evaluates anything, so
    a failed operation has spent nothing.
    """


@dataclass(frozen=True)
class Bounds:
    """Box constraints of the search space, one interval per dimension."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("lower and upper must be 1-D vectors of equal length")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("every bound must be finite")
        if not np.all(lower < upper):
            raise ValueError("every lower bound must be strictly below its upper bound")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def cube(cls, low: float, high: float, dimension: int) -> "Bounds":
        """Same interval [low, high] in every dimension."""
        return cls(np.full(dimension, low), np.full(dimension, high))

    @property
    def dimension(self) -> int:
        return self.lower.size

    @property
    def span(self) -> np.ndarray:
        return self.upper - self.lower

    @property
    def diagonal_length(self) -> float:
        """Euclidean length of the box diagonal."""
        return float(np.linalg.norm(self.span))


@dataclass
class Swarm:
    """A population stored as row-per-particle matrices.

    ``global_best_*`` is the incumbent best ever observed by this swarm;
    reconstruction operators may replace the particle it came from, so it
    is tracked separately and only ever improves.
    """

    positions: np.ndarray
    velocities: np.ndarray
    best_positions: np.ndarray
    best_fitness: np.ndarray
    current_fitness: np.ndarray
    global_best_position: np.ndarray
    global_best_fitness: float

    @classmethod
    def fresh(
        cls,
        positions: np.ndarray,
        velocities: np.ndarray,
        fitness: np.ndarray,
        incumbent: tuple[np.ndarray, float] | None = None,
    ) -> "Swarm":
        """Newly evaluated swarm whose personal bests are its positions.

        The global best is the best new particle, or ``incumbent``, a
        (position, fitness) pair known before the swarm, unless beaten.
        """
        best = int(fitness.argmin())
        if incumbent is None or fitness[best] < incumbent[1]:
            incumbent = (positions[best], fitness[best])
        return cls(
            positions=positions,
            velocities=velocities,
            best_positions=positions.copy(),
            best_fitness=fitness.copy(),
            current_fitness=fitness,
            global_best_position=np.array(incumbent[0], dtype=float),
            global_best_fitness=float(incumbent[1]),
        )

    @property
    def size(self) -> int:
        return self.positions.shape[0]

    @property
    def dimension(self) -> int:
        return self.positions.shape[1]

    def refresh_global_best(self) -> None:
        """Pull the global best down to the best personal best, keeping the incumbent."""
        i = int(self.best_fitness.argmin())
        if self.best_fitness[i] < self.global_best_fitness:
            self.global_best_fitness = float(self.best_fitness[i])
            self.global_best_position = self.best_positions[i].copy()


@dataclass
class ObjectiveSpec:
    """A benchmark function instance: box, objective, optional shift/rotation.

    The effective objective is ``f(rotation @ (x - shift))``.  ``function``
    must reduce over the last axis so batches of positions evaluate in one
    call.  ``optimum_value`` is the known minimum used for error reporting.
    """

    dimension: int
    bounds: Bounds
    function: Callable[[np.ndarray], np.ndarray] = field(repr=False, default=None)
    shift: np.ndarray | None = None
    rotation: np.ndarray | None = None
    optimum_value: float = 0.0

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be a positive integer")
        if self.bounds.dimension != self.dimension:
            raise ValueError("bounds dimension does not match spec dimension")
        if self.function is None:
            raise ValueError("an objective callable is required")
        if self.shift is not None:
            self.shift = np.asarray(self.shift, dtype=float)
            if self.shift.shape != (self.dimension,):
                raise ValueError("shift must be a vector of length D")
        if self.rotation is not None:
            self.rotation = np.asarray(self.rotation, dtype=float)
            if self.rotation.shape != (self.dimension, self.dimension):
                raise ValueError("rotation must be a DxD matrix")
            residual = self.rotation.T @ self.rotation - np.eye(self.dimension)
            if np.max(np.abs(residual)) > ROTATION_ORTHO_TOL:
                raise ValueError("rotation matrix is not orthogonal within tolerance")

    def transform(self, positions: np.ndarray) -> np.ndarray:
        """Map raw positions to the frame the registry function sees."""
        z = positions
        if self.shift is not None:
            z = z - self.shift
        if self.rotation is not None:
            z = z @ self.rotation.T
        return z


@dataclass
class EvalCounter:
    """Tracks function evaluations against a hard budget."""

    budget: int
    used: int = 0

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be a positive integer")

    @property
    def remaining(self) -> int:
        return self.budget - self.used

    def require(self, n: int) -> None:
        """Raise :class:`BudgetExhausted` unless ``n`` evaluations are left."""
        if n > self.remaining:
            raise BudgetExhausted(
                f"budget exhausted: {n} evaluations requested, {self.remaining} left"
            )

    def spend(self, n: int = 1) -> None:
        """Consume ``n`` evaluations, or raise without consuming anything."""
        self.require(n)
        self.used += n


class RngStream:
    """Deterministic randomness for one run: a uniform and a Gaussian sequence.

    A single 64-bit seed fixes two independent child generators.  All
    uniform, integer and permutation draws consume the first; all Gaussian
    draws consume the second.  Operators document the order in which they
    draw, so two runs with equal seeds replay identically.
    """

    def __init__(self, seed: int):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        self.seed = seed
        uniform_seq, gauss_seq = np.random.SeedSequence(seed).spawn(2)
        self._uniform = np.random.default_rng(uniform_seq)
        self._gauss = np.random.default_rng(gauss_seq)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        if low == 0.0 and high == 1.0:
            # same draws and values as uniform(0, 1), at half the call cost
            return self._uniform.random(size)
        return self._uniform.uniform(low, high, size)

    def normal(self, mean: float = 0.0, sd: float = 1.0, size=None):
        return self._gauss.normal(mean, sd, size)

    def integers(self, low: int, high: int, size=None):
        """Uniform integers in [low, high), from the uniform sequence."""
        return self._uniform.integers(low, high, size)

    def permutation(self, n: int) -> np.ndarray:
        return self._uniform.permutation(n)


def evaluate_batch(spec: ObjectiveSpec, positions: np.ndarray, counter: EvalCounter) -> np.ndarray:
    """Evaluate a (n, D) block of positions, spending n evaluations.

    An objective that returns NaN for any point is rejected with a
    ``ValueError``: a NaN fitness cannot be ranked against the others.
    """
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != spec.dimension:
        raise ValueError(f"expected an (n, {spec.dimension}) position block")
    counter.spend(positions.shape[0])
    fitness = np.asarray(spec.function(spec.transform(positions)), dtype=float)
    nan = np.isnan(fitness)
    if nan.any():
        raise ValueError(f"objective returned NaN for {nan.sum()} of {len(positions)} points")
    return fitness


def initialize_swarm(
    spec: ObjectiveSpec,
    size: int,
    rng: RngStream,
    vmax: np.ndarray,
    counter: EvalCounter,
) -> Swarm:
    """Uniform-random swarm over the search box, fully evaluated.

    Positions are uniform in [lower, upper] per dimension and velocities
    uniform in [-vmax, vmax]; personal bests start at the initial
    positions.  Costs ``size`` evaluations.  Draw order: positions, then
    velocities, then the evaluation.
    """
    if size < 1:
        raise ValueError("swarm size must be at least 1")
    vmax = np.asarray(vmax, dtype=float)
    if vmax.shape != (spec.dimension,) or not np.all(vmax > 0):
        raise ValueError("vmax must be a positive vector of length D")
    counter.require(size)
    bounds = spec.bounds
    positions = rng.uniform(size=(size, spec.dimension)) * bounds.span + bounds.lower
    velocities = rng.uniform(low=-1.0, high=1.0, size=(size, spec.dimension)) * vmax
    return Swarm.fresh(positions, velocities, evaluate_batch(spec, positions, counter))
