"""Shared building blocks: search bounds, swarm state, objective plumbing,
deterministic random streams, and function-evaluation accounting.

Every optimizer run owns exactly one :class:`RngStream` and one
:class:`EvalCounter`; operators receive both explicitly so that runs are
reproducible and evaluation costs are auditable.
"""

from __future__ import annotations

import copy
import math
import numbers
from dataclasses import dataclass, field, fields
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


@dataclass(frozen=True, eq=False)
class Bounds:
    """Box constraints of the search space, one interval per dimension.

    Two boxes compare equal only when they are the same object, which is
    how the swarm workspaces key the operands they bind from a box.

    ``lower``, ``upper`` and ``span`` are read-only copies, so operands
    built from a box once stay valid for the life of the box.
    """

    lower: np.ndarray
    upper: np.ndarray
    span: np.ndarray = field(init=False, repr=False, compare=False)

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


class Workspace:
    """The layout of one swarm, and the operands its operators bind to it.

    The swarm's constructor builds it, so two swarms never share one.  The
    swarm is k equal groups of ``size`` rows, back to back.
    ``targets`` is the (2, n, D) block of attractor targets: its first half
    *is* the swarm's ``best_positions``, and its second half holds
    ``gbest``, the group bests last copied, on every row of each group
    (``group_targets`` is its (s, k, D) view, row i of every group).
    ``best_groups`` pairs each group's view of ``best_fitness`` with its
    view of ``best_positions``: the swarm writes into both arrays and never
    rebinds them.  The workspace is the one home of the operands an
    operator builds from a box, and each operator owns its operands and
    scratch: :func:`~ampso.swarm_ops.pso_step` binds its own in ``step``,
    :func:`~ampso.swarm_ops.partial_reconstruct` in ``rebuild`` and
    :func:`~ampso.diversity.hybrid_diversity` in ``reading``, on the first
    call that meets a given box; after that each checks its key by
    identity only.  So the same-shape (n, D) row blocks of a box die with
    the swarm.
    """

    def __init__(self, swarm: "Swarm"):
        n, d = np.shape(swarm.best_positions)
        k = len(swarm.global_best_fitness)
        if k < 1 or n % k:
            raise ValueError(f"global_best_fitness must hold k >= 1 group bests, k dividing the {n} rows; got k = {k}")
        if np.shape(swarm.global_best_position) != (k, d):
            raise ValueError(f"global_best_position must be a ({k}, {d}) block; got shape {np.shape(swarm.global_best_position)}")
        self.size = s = n // k
        self.targets = np.empty((2, n, d))
        self.targets[0] = swarm.best_positions
        self.group_targets = self.targets[1].reshape(k, s, d).swapaxes(0, 1)
        self.best_groups = [(g, swarm.best_fitness[i : i + s], self.targets[0, i : i + s]) for g, i in enumerate(range(0, n, s))]
        self.gbest = self.step_key = self.rebuild_key = self.reading_key = None


@dataclass
class Swarm:
    """A population of k >= 1 equal groups stored as row-per-particle matrices.

    The groups' rows lie back to back, and a group's particles are drawn
    only to their own group's best.  ``global_best_*`` holds each group's
    incumbent, the best ever observed by that group: row g of the (k, D)
    ``global_best_position`` and entry g of the list of k floats
    ``global_best_fitness``.  Reconstruction operators may replace the
    particle an incumbent came from, so it is tracked separately and only
    ever improves.  The constructor copies ``best_positions`` into the
    swarm's :class:`Workspace` and binds views of it and of
    ``best_fitness``: write into both, never rebind them.
    ``global_best_*`` is the other way round: assign a new array and list,
    never write into them, so the workspace sees the change by identity.
    Copies, deep or shallow, are built through the constructor and own every
    array: a shallow copy that shared the fitness arrays but not the
    personal bests would break their pairing.
    """

    positions: np.ndarray
    velocities: np.ndarray
    best_positions: np.ndarray
    best_fitness: np.ndarray
    current_fitness: np.ndarray
    global_best_position: np.ndarray
    global_best_fitness: list[float]
    work: Workspace = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.work = Workspace(self)
        self.best_positions = self.work.targets[0]

    def __reduce__(self):  # each field is copied, so a shallow copy too owns every array
        return type(self), tuple(copy.copy(getattr(self, f.name)) for f in fields(self) if f.init)

    @classmethod
    def fresh(
        cls,
        positions: np.ndarray,
        velocities: np.ndarray,
        fitness: np.ndarray,
        incumbent: tuple[np.ndarray, float] | None = None,
    ) -> "Swarm":
        """Newly evaluated one-group swarm whose personal bests are its positions.

        The global best is the best new particle, or ``incumbent``, a
        (position, fitness) pair known before the swarm, unless beaten;
        :meth:`refresh_global_best` decides, starting from the incumbent or
        from ``(positions[0], +inf)``.
        """
        position, value = incumbent or (positions[0], math.inf)
        swarm = cls(positions, velocities, positions, fitness.copy(), fitness, np.array(position, float, ndmin=2), [float(value)])
        swarm.refresh_global_best()
        return swarm

    @classmethod
    def stack(cls, swarms: list["Swarm"]) -> "Swarm":
        """One swarm whose groups are the groups of ``swarms``, in order.

        Every group must have the same size, or the stacked rows would
        regroup; unequal sizes are a ``ValueError`` naming them.  Stepped
        and read, the stack moves and reads as each of ``swarms`` would in
        turn.
        """
        if len({s.work.size for s in swarms}) > 1:
            raise ValueError(f"stacked groups must have equal sizes, got group sizes {[s.work.size for s in swarms]}")
        arrays = [np.concatenate([getattr(s, f.name) for s in swarms]) for f in fields(cls)[:6]]  # every array field
        return cls(*arrays, [value for s in swarms for value in s.global_best_fitness])

    @property
    def size(self) -> int:
        return self.positions.shape[0]

    @property
    def dimension(self) -> int:
        return self.positions.shape[1]

    @property
    def best(self) -> tuple[np.ndarray, float]:
        """(position, fitness) of the first best group's global best."""
        bests = self.global_best_fitness
        g = bests.index(min(bests))
        return self.global_best_position[g], bests[g]

    def refresh_global_best(self) -> None:
        """Pull each group's best down to its best personal best, keeping the incumbent.

        A group takes its first best row only where that lies strictly
        below its incumbent; any change builds a new block and list.
        """
        position, bests = None, self.global_best_fitness
        for g, fitness, rows in self.work.best_groups:
            i = fitness.argmin()
            if fitness[i] < bests[g]:
                if position is None:  # new objects, so the workspace sees the change
                    position, bests = self.global_best_position.copy(), list(bests)
                position[g] = rows[i]
                bests[g] = float(fitness[i])
        if position is not None:
            self.global_best_position, self.global_best_fitness = position, bests


@dataclass
class ObjectiveSpec:
    """A benchmark function instance: box, objective, optional shift/rotation.

    The effective objective is ``f(rotation @ (x - shift))``.  ``function``
    must reduce over the last axis so batches of positions evaluate in one
    call.  ``optimum_value`` is the known minimum used for error reporting,
    a finite real number.  The dimension is the box's.
    """

    bounds: Bounds
    function: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    shift: np.ndarray | None = None
    rotation: np.ndarray | None = None
    optimum_value: float = 0.0

    def __post_init__(self):
        if not isinstance(self.bounds, Bounds):
            raise ValueError(f"bounds must be a Bounds, got {type(self.bounds).__name__}")
        if not callable(self.function):
            raise ValueError("an objective callable is required")
        if not is_finite_real(self.optimum_value):
            raise ValueError(f"optimum_value must be a finite real number, got {safe_repr(self.optimum_value)}")
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

    @property
    def dimension(self) -> int:
        return self.bounds.dimension

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
        if self.used + n > self.budget:  # checked inline: a call saved on every evaluation
            self.require(n)
        self.used += n


def is_integer(value) -> bool:
    """An integer of any integral type, numpy's included, but not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite_real(value) -> bool:
    """A finite real number of any real type, numpy's included, but not a bool;
    an integer past the float range is not one."""
    try:
        return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int too large to convert to float
        return False


def safe_repr(value) -> str:
    """``repr(value)``, or the size of an int too long for ``repr`` to write."""
    try:
        return repr(value)
    except ValueError:  # past sys.get_int_max_str_digits()
        return f"an int of {value.bit_length()} bits"


class RngStream:
    """Deterministic randomness for one run: a uniform and a Gaussian sequence.

    A single 64-bit seed fixes two independent child generators.  All
    uniform, integer and permutation draws consume the first; all Gaussian
    draws consume the second.  Operators document the order in which they
    draw, so two runs with equal seeds replay identically.
    """

    def __init__(self, seed: int):
        if not is_integer(seed) or not 0 <= seed < 2**64:
            raise ValueError(f"seed must be an integer that fits in an unsigned 64-bit integer, got {safe_repr(seed)}")
        uniform_seq, gauss_seq = np.random.SeedSequence(int(seed)).spawn(2)
        self._uniform = np.random.default_rng(uniform_seq)
        self._gauss = np.random.default_rng(gauss_seq)

    def uniform(self, size=None):
        """Uniform draws in [0, 1)."""
        return self._uniform.random(size)

    def normal(self, mean: float = 0.0, sd: float = 1.0, size=None):
        return self._gauss.normal(mean, sd, size)

    def integers(self, high: int, size=None):
        """Uniform integers in [0, high), from the uniform sequence."""
        return self._uniform.integers(high, size=size)

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
    velocities, then the evaluation.  A size below 1 or a ``vmax`` that is
    not a positive finite vector of length D is a ``ValueError``, raised
    before anything is spent or drawn.
    """
    bounds = spec.bounds
    return _launch_swarm(spec, size, rng, vmax, counter, lambda: rng.uniform(size=(size, spec.dimension)) * bounds.span + bounds.lower)


def _launch_swarm(spec: ObjectiveSpec, size: int, rng: RngStream, vmax, counter: EvalCounter, place, incumbent=None) -> Swarm:
    """The one rule every new swarm starts by: place, set moving, evaluate.

    ``place()`` draws the ``(size, D)`` positions; velocities are then
    uniform in [-vmax, vmax], and the evaluation comes last.  A size
    below 1 or a ``vmax`` that is not a positive finite vector of length
    D is a ``ValueError``, and a budget short of ``size`` evaluations is
    :class:`BudgetExhausted`, all raised before anything is drawn.
    ``incumbent`` is passed on to :meth:`Swarm.fresh`.
    """
    if size < 1:
        raise ValueError("swarm size must be at least 1")
    vmax = np.asarray(vmax, dtype=float)
    if vmax.shape != (spec.dimension,) or not np.all((0 < vmax) & (vmax < math.inf)):  # NaN fails both
        raise ValueError(f"vmax must be a positive finite vector of length {spec.dimension}")
    counter.require(size)
    positions = place()
    velocities = (rng.uniform(size=(size, spec.dimension)) * 2.0 - 1.0) * vmax
    return Swarm.fresh(positions, velocities, evaluate_batch(spec, positions, counter), incumbent)
