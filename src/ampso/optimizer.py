"""The multi-swarm phase controller and the global-best baseline.

A run alternates exploration (independent uniform-random sub-swarms) with
exploitation (a swarm spawned around the best explorer, trimmed of its
worst particles every iteration) until a third of the iteration budget is
consumed, then hands the best solution found so far to a convergence swarm
that keeps refining it and occasionally rebuilds itself to escape local
traps.  Function evaluations are the only cost unit: the budget is checked
before every block of work, so a run never overspends and ends with less
than one convergence iteration of slack.

``run_gpso`` provides the classic linearly-decreasing-inertia global-best
swarm under the same budget, trace and result contract.
"""

from __future__ import annotations

import copy
import math
import numbers
from dataclasses import dataclass, fields, replace
from typing import NamedTuple, Sequence, get_type_hints

import numpy as np

from .adaptation import (
    FitnessHistory,
    evolution_rate,
    linear_inertia,
    omega_exploration,
    omega_standard,
    reconstruct_probability,
    sigma_reconstruction,
)
from .core import Bounds, EvalCounter, ObjectiveSpec, RngStream, Swarm, initialize_swarm
from .diversity import DiversityReading, hybrid_diversity
from .swarm_ops import KinematicParams, full_reconstruct, partial_reconstruct, pso_step, spawn_artificial_swarm

__all__ = [
    "ConfigError",
    "AmpsoConfig",
    "PhaseSpan",
    "TracePoint",
    "RunResult",
    "EXPLORATION",
    "EXPLOITATION",
    "CONVERGENCE",
    "run_ampso",
    "run_gpso",
]

EXPLORATION = "exploration"
EXPLOITATION = "exploitation"
CONVERGENCE = "convergence"


class ConfigError(ValueError):
    """A configuration failed validation before any evaluation was spent."""


@dataclass(frozen=True)
class AmpsoConfig:
    """All tunables of a run.  Field names double as config-file keys.

    ``fe_budget`` left as None resolves to 10000 x dimension; a set budget
    must cover the first swarm of either algorithm.  The iteration budget
    is ``fe_budget // convergence_size``; each exploration block runs
    ``exploration_ratio`` of it, exploitation blocks are capped at
    ``exploitation_ratio`` of it, and every exploitation iteration
    rebuilds ``replace_ratio`` of that swarm.
    """

    exploration_size: int = 10
    sub_swarm_size: int = 5
    exploitation_size: int = 40
    convergence_size: int = 40
    exploration_ratio: float = 0.02
    exploitation_ratio: float = 0.2
    replace_ratio: float = 0.25
    stagnation_threshold: float = 0.001
    rate_window: int = 50
    entropy_bins: int = 10
    c1: float = 1.49445
    c2: float = 1.49445
    vmax_factor: float = 0.01
    fe_budget: int | None = None
    seed: int = 0

    def validate(self) -> None:
        for name, hint in get_type_hints(AmpsoConfig).items():
            value = getattr(self, name)
            if hint == int | None and value is None:
                continue
            if hint in (int, int | None):
                if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                    raise ConfigError(f"{name} must be an integer, got {value!r}")
            elif isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise ConfigError(f"{name} must be a finite real number, got {value!r}")
        if min(self.exploration_size, self.sub_swarm_size, self.exploitation_size, self.convergence_size) < 1:
            raise ConfigError("swarm sizes must be positive")
        if self.exploration_size % self.sub_swarm_size != 0:
            raise ConfigError("sub_swarm_size must divide exploration_size")
        for name in ("exploration_ratio", "exploitation_ratio", "replace_ratio"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1]")
        n_replace = round(self.replace_ratio * self.exploitation_size)
        if not 1 <= n_replace < self.exploitation_size:
            raise ConfigError("replace_ratio must rebuild at least 1 but not all particles")
        if self.rate_window < 1:
            raise ConfigError("rate_window must be a positive integer")
        if self.entropy_bins < 2:
            raise ConfigError("entropy_bins must be at least 2")
        if self.vmax_factor <= 0:
            raise ConfigError("vmax_factor must be positive")
        if self.stagnation_threshold < 0:
            raise ConfigError("stagnation_threshold must be non-negative")
        first_swarm = max(self.exploration_size, self.convergence_size)
        if self.fe_budget is not None and self.fe_budget < first_swarm:
            raise ConfigError(
                f"fe_budget must cover the first swarm: at least {first_swarm} evaluations"
            )
        if not 0 <= int(self.seed) < 2**64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")

    def resolved_budget(self, dimension: int) -> int:
        return self.fe_budget if self.fe_budget is not None else 10000 * dimension

    def with_overrides(self, **overrides) -> "AmpsoConfig":
        unknown = set(overrides) - {f.name for f in fields(self)}
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        return replace(self, **overrides)


class PhaseSpan(NamedTuple):
    """One contiguous stretch of a phase, in evaluation coordinates."""

    phase: str
    start_fe: int
    end_fe: int


class TracePoint(NamedTuple):
    """One logged iteration; the field names are the trace-CSV header.

    ``best_error`` is the best-ever error so far, ``er`` the evolution rate.
    """

    fe: int
    iteration: int
    phase: str
    best_error: float
    diversity: float
    omega: float
    er: float


@dataclass
class RunResult:
    """Outcome of one optimizer run."""

    best_position: np.ndarray
    best_error: float
    fe_used: int
    trace: list[TracePoint]
    phase_log: list[PhaseSpan]


class _Run:
    """What every swarm of one run shares: budget, randomness, velocity
    cap, best-ever solution, trace and phase log.

    The run's record is made here and nowhere else: :meth:`fresh` and
    :meth:`spawn` offer a swarm's best as it is born, :meth:`log` offers
    each stepped swarm's best and appends the iteration's trace row,
    :meth:`cover` logs swarms that no iteration logged, and
    :meth:`open_phase` notes where a phase starts.  So the last trace row
    holds the run's ``fe_used`` and ``best_error``.

    ``total_iterations`` is the iteration budget, ``fe_budget //
    convergence_size``.  ``iteration`` counts iterations across the whole
    run; the trace logs it with the phase that is open.  ``speed`` is the
    velocity box [-vmax, vmax].  ``spec`` is a copy of the problem with a
    box of its own: both boxes keep the operand blocks the operators build
    from them (:meth:`Bounds.rows`), and those die with the run.
    """

    def __init__(self, config: AmpsoConfig, spec: ObjectiveSpec, seed: int | None):
        if seed is not None:
            config = config.with_overrides(seed=seed)
        config.validate()
        self.config = config
        self.spec = copy.copy(spec)
        self.spec.bounds = Bounds(spec.bounds.lower, spec.bounds.upper)
        self.rng = RngStream(config.seed)
        self.counter = EvalCounter(budget=config.resolved_budget(spec.dimension))
        self.total_iterations = self.counter.budget // config.convergence_size
        self.spec.bounds.grid_scale(1, config.entropy_bins)  # a box too narrow for the grid fails here, unspent
        vmax = config.vmax_factor * spec.bounds.span
        self.speed = Bounds(-vmax, vmax)
        self.best_position: np.ndarray | None = None
        self.best_fitness = math.inf
        self.iteration = 0
        self.trace: list[TracePoint] = []
        self.phase_starts: list[tuple[str, int]] = []

    def offer(self, swarm: Swarm) -> None:
        """Take the swarm's global best if it beats the best-ever solution."""
        if swarm.global_best_fitness < self.best_fitness:
            self.best_fitness = float(swarm.global_best_fitness)
            self.best_position = swarm.global_best_position.copy()

    def open_phase(self, phase: str) -> None:
        self.phase_starts.append((phase, self.counter.used))

    def kinematics(self, omega: float) -> KinematicParams:
        return KinematicParams(omega, self.config.c1, self.config.c2, self.speed)

    def diversity(self, swarm: Swarm) -> DiversityReading:
        return hybrid_diversity(swarm, self.spec.bounds, self.config.entropy_bins)

    def fresh(self, size: int) -> Swarm:
        """A uniform-random swarm over the box, offered as it is born."""
        swarm = initialize_swarm(self.spec, size, self.rng, self.speed.upper, self.counter)
        self.offer(swarm)
        return swarm

    def spawn(self, position: np.ndarray, fitness: float, size: int) -> Swarm:
        """A swarm spawned around a known-good solution, offered as it is born."""
        swarm = spawn_artificial_swarm(position, fitness, size, self.spec, self.rng, self.counter, self.speed.upper)
        self.offer(swarm)
        return swarm

    def log(self, swarms: Sequence[Swarm], diversity: float, omega: float, er: float) -> None:
        """Close an iteration: offer each swarm's best, then append its trace row."""
        for swarm in swarms:
            self.offer(swarm)
        best_error = self.best_fitness - self.spec.optimum_value
        phase = self.phase_starts[-1][0]
        self.trace.append(TracePoint(self.counter.used, self.iteration, phase, best_error, diversity, omega, er))

    def cover(self, swarms: Sequence[Swarm]) -> None:
        """Log ``swarms`` unless the last row already covers every evaluation.

        Where a block ends, this logs the swarms of a block that ran no
        iteration.  The row holds their mean diversity, with no inertia or
        evolution rate.
        """
        if not self.trace or self.trace[-1].fe < self.counter.used:
            self.log(swarms, _mean([self.diversity(swarm).hybrid for swarm in swarms]), math.nan, math.nan)

    def result(self) -> RunResult:
        """The run's outcome; each phase span ends where the next one starts."""
        ends = [start for _, start in self.phase_starts[1:]] + [self.counter.used]
        return RunResult(
            best_position=self.best_position,
            best_error=self.best_fitness - self.spec.optimum_value,
            fe_used=self.counter.used,
            trace=self.trace,
            phase_log=[PhaseSpan(phase, start, end) for (phase, start), end in zip(self.phase_starts, ends)],
        )


def run_ampso(config: AmpsoConfig, spec: ObjectiveSpec, seed: int | None = None) -> RunResult:
    """Execute one multi-swarm run against ``spec``.

    Phases unfold as: (exploration, exploitation)+ convergence.  Each
    exploration block initializes independent sub-swarms uniformly at
    random and steps each of them with its own diversity-driven inertia
    (no communication between sub-swarms); the best explorer then seeds an
    exploitation swarm whose iterations rebuild the worst particles and
    step a random selection of the rest at constant evaluation cost.  When
    exploitation stalls (windowed evolution rate below the threshold) or
    hits its iteration cap, the alternation either restarts exploration or
    - once a third of the iteration budget is consumed - seeds the
    convergence swarm, which runs out the remaining budget and rebuilds
    itself wholesale with a probability that grows as it stalls.

    Exploration trace rows log the mean diversity/inertia across
    sub-swarms and have no evolution rate.  A block that runs no
    iteration logs one row for the swarms it built.
    """
    run = _Run(config, spec, seed)
    while run.counter.remaining >= config.exploration_size:
        subs = _explore(run)
        if run.counter.remaining < config.exploitation_size:
            break
        # best particle over all sub-swarms seeds the exploitation swarm
        _exploit(run, min(subs, key=lambda sub: sub.global_best_fitness))
        if run.iteration > run.total_iterations / 3:
            break
    if run.counter.remaining >= config.convergence_size and run.best_position is not None:
        _converge(run)
    return run.result()


def _explore(run: _Run) -> list[Swarm]:
    """One exploration block: fresh independent sub-swarms, stepped in turn."""
    config, counter = run.config, run.counter
    iterations = round(config.exploration_ratio * run.total_iterations)
    run.open_phase(EXPLORATION)
    subs = [run.fresh(config.sub_swarm_size) for _ in range(config.exploration_size // config.sub_swarm_size)]
    if not run.trace:
        run.cover(subs)

    t = 0
    while t < iterations and counter.remaining >= config.exploration_size:
        t += 1
        run.iteration += 1
        diversities, omegas = [], []
        for sub in subs:
            e = run.diversity(sub).hybrid
            w = omega_exploration(e)
            pso_step(sub, run.kinematics(w), run.spec, run.rng, counter)
            diversities.append(e)
            omegas.append(w)
        run.log(subs, _mean(diversities), _mean(omegas), math.nan)
    run.cover(subs)
    return subs


def _mean(values: list[float]) -> float:
    """``np.mean(values)`` bit for bit: the same pairwise sum, then one division."""
    return float(np.add.reduce(values)) / len(values)


def _exploit(run: _Run, seed: Swarm) -> None:
    """One exploitation block around ``seed``'s best, until it stalls or hits its cap."""
    config, counter = run.config, run.counter
    cap = round(config.exploitation_ratio * run.total_iterations)
    n_replace = round(config.replace_ratio * config.exploitation_size)
    run.open_phase(EXPLOITATION)
    swarm = run.spawn(seed.global_best_position, seed.global_best_fitness, config.exploitation_size)
    history = FitnessHistory(window=config.rate_window)
    t = 0
    while t < cap and counter.remaining >= config.exploitation_size:
        t += 1
        run.iteration += 1
        reading = run.diversity(swarm)
        omega = omega_standard(reading.hybrid)
        sigma = sigma_reconstruction(reading.hybrid)
        partial_reconstruct(swarm, n_replace, sigma, run.spec, run.rng, counter)
        chosen = run.rng.permutation(swarm.size)[: swarm.size - n_replace]
        pso_step(swarm, run.kinematics(omega), run.spec, run.rng, counter, chosen)
        history.record(swarm.global_best_fitness)
        er = evolution_rate(history)
        run.log((swarm,), reading.hybrid, omega, er)
        if er < config.stagnation_threshold:
            break
    run.cover((swarm,))


def _converge(run: _Run) -> None:
    """The terminal phase: refine the best-ever solution until the budget runs out."""
    config, counter = run.config, run.counter
    run.open_phase(CONVERGENCE)
    swarm = run.spawn(run.best_position, run.best_fitness, config.convergence_size)
    history = FitnessHistory(window=config.rate_window)
    stalled = 0  # stalled iterations since the last full reconstruction
    while counter.remaining >= config.convergence_size:
        run.iteration += 1
        reading = run.diversity(swarm)
        omega = omega_standard(reading.hybrid)
        sigma = sigma_reconstruction(reading.hybrid)
        history.record(swarm.global_best_fitness)
        er = evolution_rate(history)
        if er < config.stagnation_threshold:
            stalled += 1
        p_rebuild = reconstruct_probability(run.total_iterations, stalled)
        if run.rng.uniform() < p_rebuild:
            full_reconstruct(swarm, sigma, run.spec, run.rng, counter)
            stalled = 0
        else:
            pso_step(swarm, run.kinematics(omega), run.spec, run.rng, counter)
        run.log((swarm,), reading.hybrid, omega, er)
    run.cover((swarm,))


def run_gpso(config: AmpsoConfig, spec: ObjectiveSpec, seed: int | None = None) -> RunResult:
    """Baseline single-swarm run: global best, inertia 0.9 -> 0.4 linearly.

    Uses ``convergence_size`` particles and the same velocity cap, bound
    handling, budget law and trace contract as the multi-swarm run; the
    diversity column is diagnostic only.
    """
    run = _Run(config, spec, seed)
    spec, counter, size = run.spec, run.counter, config.convergence_size
    run.open_phase("gpso")
    swarm = run.fresh(size)
    history = FitnessHistory(window=config.rate_window)
    run.log((swarm,), run.diversity(swarm).hybrid, math.nan, math.nan)
    while counter.remaining >= size:
        run.iteration += 1
        omega = linear_inertia(run.iteration, run.total_iterations)
        reading = run.diversity(swarm)
        pso_step(swarm, run.kinematics(omega), spec, run.rng, counter)
        history.record(swarm.global_best_fitness)
        run.log((swarm,), reading.hybrid, omega, evolution_rate(history))
    return run.result()
