"""Shared building blocks: search bounds, swarm state, objective plumbing,
deterministic random streams, and function-evaluation accounting.

Every optimizer run owns exactly one :class:`RngStream` and one
:class:`EvalCounter`; operators receive both explicitly so that runs are
reproducible and evaluation costs are auditable.
"""

from __future__ import annotations

import math
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
    """Box constraints of the search space, one interval per dimension.

    ``lower``, ``upper`` and ``span`` are read-only copies, so the row
    blocks :meth:`rows` and :meth:`grid_scale` build from them once stay
    valid for the life of the box.
    """

    lower: np.ndarray
    upper: np.ndarray
    span: np.ndarray = field(init=False, repr=False, compare=False)
    _blocks: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        lower = np.array(self.lower, dtype=float, ndmin=1)
        upper = np.array(self.upper, dtype=float, ndmin=1)
        if lower.shape != upper.shape or lower.ndim != 1 or lower.size == 0:
            raise ValueError("lower and upper must be non-empty 1-D vectors of equal length")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("every bound must be finite")
        if not np.all(lower < upper):
            raise ValueError("every lower bound must be strictly below its upper bound")
        with np.errstate(over="ignore"):
            span = upper - lower
        if not np.all(np.isfinite(span)):
            raise ValueError("every span upper - lower must lie within the float range")
        for name, value in (("lower", lower), ("upper", upper), ("span", span)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @classmethod
    def cube(cls, low: float, high: float, dimension: int) -> "Bounds":
        """Same interval [low, high] in every dimension."""
        return cls(np.full(dimension, low), np.full(dimension, high))

    @property
    def dimension(self) -> int:
        return self.lower.size

    def rows(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """``lower`` and ``upper`` repeated over ``n`` rows, built once per n.

        A ufunc that meets a same-shape (n, D) operand skips the broadcast
        set-up it pays for a (D,) row on every call.
        """
        block = self._blocks.get(n)
        if block is None:
            block = self._blocks[n] = (_repeat_rows(self.lower, n), _repeat_rows(self.upper, n))
        return block

    def grid_scale(self, n: int, bins: int) -> np.ndarray:
        """``bins / span`` repeated over ``n`` rows, built once per (n, bins).

        ``(x - lower) * grid_scale`` maps a point of the box onto a grid of
        ``bins`` equal cells per dimension.  A box too narrow for that
        grid, one whose ``bins / span`` lies past the float range, is a
        ``ValueError``.
        """
        block = self._blocks.get((n, bins))
        if block is None:
            with np.errstate(over="ignore"):
                scale = bins / self.span
            if not np.all(np.isfinite(scale)):
                raise ValueError(
                    f"every span must be wide enough for {bins} bins: bins / span lies past the float range"
                )
            block = self._blocks[n, bins] = _repeat_rows(scale, n)
        return block


def _repeat_rows(vector: np.ndarray, n: int) -> np.ndarray:
    """Read-only, C-contiguous (n, D) block whose every row is ``vector``."""
    block = np.tile(vector, (n, 1))
    block.setflags(write=False)
    return block


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
    _scratch: dict = field(init=False, repr=False, compare=False, default_factory=dict)

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

    def scratch(self, purpose: str, shape: tuple[int, ...], dtype=float) -> np.ndarray:
        """A work array for one purpose and shape, built once per swarm.

        The operators write their temporaries into these instead of
        allocating them on every call; an array holds whatever its last
        user left there.  They die with the swarm, so two swarms never
        share one.
        """
        key = (purpose, shape)
        array = self._scratch.get(key)
        if array is None:
            array = self._scratch[key] = np.empty(shape, dtype)
        return array

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
            if not np.all(np.isfinite(self.shift)):
                raise ValueError("every shift entry must be finite")
        if self.rotation is not None:
            self.rotation = np.asarray(self.rotation, dtype=float)
            if self.rotation.shape != (self.dimension, self.dimension):
                raise ValueError("rotation must be a DxD matrix")
            if not np.all(np.isfinite(self.rotation)):
                raise ValueError("every rotation entry must be finite")
            with np.errstate(over="ignore", invalid="ignore"):  # entries near the float range overflow
                residual = self.rotation.T @ self.rotation - np.eye(self.dimension)
            if not np.max(np.abs(residual)) <= ROTATION_ORTHO_TOL:  # written so a NaN residual fails
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
        uniform_seq, gauss_seq = np.random.SeedSequence(seed).spawn(2)
        self._uniform = np.random.default_rng(uniform_seq)
        self._gauss = np.random.default_rng(gauss_seq)

    def uniform(self, size=None):
        """Uniform draws in [0, 1)."""
        return self._uniform.random(size)

    def normal(self, mean: float = 0.0, sd: float = 1.0, size=None):
        return self._gauss.normal(mean, sd, size)

    def integers(self, low: int, high: int, size=None):
        """Uniform integers in [low, high), from the uniform sequence."""
        return self._uniform.integers(low, high, size)

    def permutation(self, n: int) -> np.ndarray:
        return self._uniform.permutation(n)


def evaluate_batch(spec: ObjectiveSpec, positions: np.ndarray, counter: EvalCounter) -> np.ndarray:
    """Evaluate a (n, D) block of positions, spending n evaluations.

    The objective sees a read-only block, so it cannot move the swarm, and
    its result is copied, so the swarm owns its fitness.  An objective that
    tries to write into the block fails with a ``ValueError`` that says so,
    chained from numpy's read-only error.  A result that is
    not one value per point, shape ``(n,)``, is rejected with a
    ``ValueError`` naming its shape.  So is a NaN or an infinite value for
    any point: such a fitness cannot be ranked against the others or
    binned by the diversity reading.  One sum gates the exact scan, so a
    finite block whose sum overflows still passes.  The sum runs over
    Python floats, which raise no floating-point warnings and, for a few
    dozen values, cost less than a numpy sum.
    """
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != spec.dimension:
        raise ValueError(f"expected an (n, {spec.dimension}) position block")
    n = len(positions)
    counter.spend(n)
    frame = spec.transform(positions).view()
    frame.setflags(write=False)
    try:
        values = spec.function(frame)
    except ValueError as exc:
        if "read-only" not in str(exc):
            raise
        raise ValueError(f"objective wrote into its read-only input: {exc}") from exc
    fitness = np.array(values, dtype=float)
    if fitness.shape != (n,):
        raise ValueError(f"objective returned shape {fitness.shape} for {n} points; expected ({n},)")
    if not math.isfinite(sum(fitness.tolist())):
        _reject_non_finite(fitness, n)
    return fitness


def _reject_non_finite(fitness: np.ndarray, n: int) -> None:
    """Raise naming how many points had a NaN, else an infinite, fitness."""
    nan = np.isnan(fitness).sum()
    if nan:
        raise ValueError(f"objective returned NaN for {nan} of {n} points")
    inf = np.isinf(fitness).sum()
    if inf:
        raise ValueError(f"objective returned an infinite value for {inf} of {n} points")


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
    velocities = (rng.uniform(size=(size, spec.dimension)) * 2.0 - 1.0) * vmax
    return Swarm.fresh(positions, velocities, evaluate_batch(spec, positions, counter))
