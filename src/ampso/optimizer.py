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
swarm under the same budget, trace and result contract, and
``run_gpso_lockstep`` runs many seeds of it as the groups of one swarm.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, fields, replace
from typing import NamedTuple, get_type_hints

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
from .core import Bounds, EvalCounter, ObjectiveSpec, RngStream, Swarm, initialize_swarm, is_finite_real, is_integer, safe_repr
from .diversity import grid_scale, hybrid_diversity
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
    "run_gpso_lockstep",
    "LOCKSTEP_RUNS",
]

EXPLORATION = "exploration"
EXPLOITATION = "exploitation"
CONVERGENCE = "convergence"

# the most runs one lockstep swarm holds: it caps the stacked swarm's arrays
# at those of 32 runs; a traced cell's memory is not capped, since every run's
# trace is kept until the cell returns; the saving per evaluation has
# levelled off by 30
LOCKSTEP_RUNS = 32


class ConfigError(ValueError):
    """A configuration failed validation before any evaluation was spent."""


@dataclass(frozen=True)
class AmpsoConfig:
    """All tunables of a run.  Field names double as config-file keys.

    ``fe_budget`` left as None resolves to 10000 x dimension; either way
    the budget must cover the run's first swarm (:meth:`resolved_budget`).
    :meth:`validate` knows no algorithm, so it holds a set budget to the
    smaller rule, and each run to its own.  The iteration budget
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
                if not is_integer(value):
                    raise ConfigError(f"{name} must be an integer, got {value!r}")
            elif not is_finite_real(value):
                raise ConfigError(f"{name} must be a finite real number, got {safe_repr(value)}")
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
        if self.fe_budget is not None:
            self.resolved_budget(1)  # a set budget is the same in every dimension
        if not 0 <= int(self.seed) < 2**64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")

    def resolved_budget(self, dimension: int, algorithm: str | None = None) -> int:
        """The evaluation budget in ``dimension``, which must cover ``algorithm``'s first swarm.

        "gpso" builds only its ``convergence_size`` swarm; "ampso" needs
        the larger of ``exploration_size`` and ``convergence_size``.  With
        no algorithm, the smaller of the two rules holds, which is gpso's.
        """
        budget = self.fe_budget if self.fe_budget is not None else 10000 * dimension
        first_swarm = self.convergence_size
        if algorithm == "ampso":
            first_swarm = max(self.exploration_size, first_swarm)
        if budget < first_swarm:
            raise ConfigError(f"fe_budget must cover the first swarm: at least {first_swarm} evaluations, got {budget}")
        return budget

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

    The run's record is made here and nowhere else: :meth:`log` takes a
    (position, fitness) best if it beats the best-ever solution and
    appends the iteration's trace row, :meth:`cover` logs a swarm that no
    iteration logged, and :meth:`open_phase` notes where a phase starts.
    Every swarm a phase builds is logged before anything reads the
    best-ever solution: it has spent evaluations, so a step or
    :meth:`cover` logs it.  So the last trace row holds the run's ``fe_used`` and
    ``best_error``.  The run owns no scratch: each swarm's operators bind
    their own in its :class:`~ampso.core.Workspace`.

    ``total_iterations`` is the iteration budget, ``fe_budget //
    convergence_size``.  ``iteration`` counts iterations across the whole
    run; the trace logs it with the phase that is open.  ``speed`` is the
    velocity box [-vmax, vmax].  ``spec`` is a shallow copy of the
    caller's problem, checked again: it shares the caller's box, and a
    ``function`` or ``transform`` set on the caller's instance is what the
    run evaluates through.
    """

    def __init__(self, config: AmpsoConfig, spec: ObjectiveSpec, seed: int | None, algorithm: str):
        if seed is not None:
            config = config.with_overrides(seed=seed)
        config.validate()
        self.config = config
        # fields reassigned since the spec was checked are checked again, on a copy
        self.spec = copy.copy(spec)
        self.spec.__post_init__()
        self.rng = RngStream(config.seed)
        self.counter = EvalCounter(budget=config.resolved_budget(spec.dimension, algorithm))
        self.total_iterations = self.counter.budget // config.convergence_size
        grid_scale(spec.bounds, config.entropy_bins)  # a box too narrow for the grid fails here, unspent
        vmax = config.vmax_factor * spec.bounds.span
        self.speed = Bounds(-vmax, vmax)
        self.best_position: np.ndarray | None = None
        self.best_fitness = math.inf
        self.iteration = 0
        self.trace: list[TracePoint] = []
        self.phase_starts: list[tuple[str, int]] = []

    def open_phase(self, phase: str) -> None:
        self.phase_starts.append((phase, self.counter.used))

    def kinematics(self, omega: float) -> KinematicParams:
        return KinematicParams(omega, self.config.c1, self.config.c2, self.speed)

    def diversity(self, swarm: Swarm) -> list[float]:
        """The hybrid diversity of each of ``swarm``'s groups, group by group."""
        hybrid = hybrid_diversity(swarm, self.spec.bounds, self.config.entropy_bins).hybrid
        return hybrid if type(hybrid) is list else [hybrid]

    def log(self, best: tuple[np.ndarray, float], diversity: float, omega: float, er: float) -> None:
        """Close an iteration: take ``best`` if it beats the best-ever, then append its trace row.

        ``best`` is a (position, fitness) pair.  A swarm offers
        :attr:`Swarm.best`, of k groups the first best one, which is what
        offering each group in turn would leave; a lockstep run offers its
        own group's.
        """
        position, fitness = best
        if fitness < self.best_fitness:
            self.best_fitness = float(fitness)
            self.best_position = position.copy()
        best_error = self.best_fitness - self.spec.optimum_value
        phase = self.phase_starts[-1][0]
        self.trace.append(TracePoint(self.counter.used, self.iteration, phase, best_error, diversity, omega, er))

    def cover(self, swarm: Swarm) -> None:
        """Log ``swarm`` unless the last row already covers every evaluation.

        Where a block ends, this logs the swarm of a block that ran no
        iteration.  The row holds its diversity, the mean over its groups,
        with no inertia or evolution rate.
        """
        if not self.trace or self.trace[-1].fe < self.counter.used:
            self.log(swarm.best, _mean(self.diversity(swarm)), math.nan, math.nan)

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
    random, holds them as the groups of one swarm, and steps each group
    with its own diversity-driven inertia (no communication between
    sub-swarms); the best explorer then seeds an
    exploitation swarm whose iterations rebuild the worst particles and
    step a random selection of the rest at constant evaluation cost.  When
    exploitation stalls (windowed evolution rate below the threshold) or
    hits its iteration cap, the alternation either restarts exploration or
    - once a third of the iteration budget is consumed - seeds the
    convergence swarm, which runs out the remaining budget and rebuilds
    itself wholesale with a probability that grows as it stalls.

    Exploration trace rows log the mean diversity/inertia across
    sub-swarms and have no evolution rate.  A block that runs no
    iteration logs one row for the swarm it built.
    """
    run = _Run(config, spec, seed, "ampso")
    while run.counter.remaining >= config.exploration_size:
        explorers = _explore(run)
        if run.counter.remaining < config.exploitation_size:
            break
        # best particle over all sub-swarms seeds the exploitation swarm
        _exploit(run, explorers)
        if run.iteration > run.total_iterations / 3:
            break
    if run.counter.remaining >= config.convergence_size:
        _converge(run)
    return run.result()


def _explore(run: _Run) -> Swarm:
    """One exploration block: fresh independent sub-swarms, stepped as the groups of one swarm."""
    config, counter = run.config, run.counter
    iterations = round(config.exploration_ratio * run.total_iterations)
    run.open_phase(EXPLORATION)
    k, size = config.exploration_size // config.sub_swarm_size, config.sub_swarm_size
    swarm = Swarm.stack([initialize_swarm(run.spec, size, run.rng, run.speed.upper, counter) for _ in range(k)])
    if not run.trace:
        run.cover(swarm)

    t = 0
    while t < iterations and counter.remaining >= config.exploration_size:
        t += 1
        run.iteration += 1
        diversities = run.diversity(swarm)
        omegas = [omega_exploration(e) for e in diversities]
        column = np.array(omegas).repeat(config.sub_swarm_size)[:, None]  # each group's inertia on its rows
        pso_step(swarm, run.kinematics(column), run.spec, run.rng, counter)
        run.log(swarm.best, _mean(diversities), _mean(omegas), math.nan)
    run.cover(swarm)
    return swarm


def _mean(values: list[float]) -> float:
    """``np.mean(values)`` bit for bit: the same pairwise sum, then one division."""
    return float(np.add.reduce(values)) / len(values)


def _exploit(run: _Run, seed: Swarm) -> None:
    """One exploitation block around ``seed``'s best, until it stalls or hits its cap."""
    config, counter = run.config, run.counter
    cap = round(config.exploitation_ratio * run.total_iterations)
    n_replace = round(config.replace_ratio * config.exploitation_size)
    run.open_phase(EXPLOITATION)
    swarm = spawn_artificial_swarm(*seed.best, config.exploitation_size, run.spec, run.rng, counter, run.speed.upper)
    history = FitnessHistory(window=config.rate_window)
    t = 0
    while t < cap and counter.remaining >= config.exploitation_size:
        t += 1
        run.iteration += 1
        [diversity] = run.diversity(swarm)
        omega, sigma = omega_standard(diversity), sigma_reconstruction(diversity)
        partial_reconstruct(swarm, n_replace, sigma, run.spec, run.rng, counter)
        chosen = run.rng.permutation(swarm.size)[: swarm.size - n_replace]
        pso_step(swarm, run.kinematics(omega), run.spec, run.rng, counter, chosen)
        history.record(swarm.global_best_fitness[0])  # of its one group
        er = evolution_rate(history)
        run.log(swarm.best, diversity, omega, er)
        if er < config.stagnation_threshold:
            break
    run.cover(swarm)


def _converge(run: _Run) -> None:
    """The terminal phase: refine the best-ever solution until the budget runs out."""
    config, counter = run.config, run.counter
    run.open_phase(CONVERGENCE)
    swarm = spawn_artificial_swarm(
        run.best_position, run.best_fitness, config.convergence_size, run.spec, run.rng, counter, run.speed.upper
    )
    history = FitnessHistory(window=config.rate_window)
    stalled = 0  # stalled iterations since the last full reconstruction
    # reconstruct_probability is pure in the stall count, which grows by at
    # most one an iteration: each count's probability is computed once
    probabilities: list[float] = []
    while counter.remaining >= config.convergence_size:
        run.iteration += 1
        [diversity] = run.diversity(swarm)
        omega, sigma = omega_standard(diversity), sigma_reconstruction(diversity)
        history.record(swarm.global_best_fitness[0])  # of its one group
        er = evolution_rate(history)
        if er < config.stagnation_threshold:
            stalled += 1
        if stalled == len(probabilities):
            probabilities.append(reconstruct_probability(run.total_iterations, stalled))
        if run.rng.uniform() < probabilities[stalled]:
            full_reconstruct(swarm, sigma, run.spec, run.rng, counter)
            stalled = 0
        else:
            pso_step(swarm, run.kinematics(omega), run.spec, run.rng, counter)
        run.log(swarm.best, diversity, omega, er)
    run.cover(swarm)


def run_gpso(config: AmpsoConfig, spec: ObjectiveSpec, seed: int | None = None) -> RunResult:
    """Baseline single-swarm run: global best, inertia 0.9 -> 0.4 linearly.

    Uses ``convergence_size`` particles and the same velocity cap, bound
    handling, budget law and trace contract as the multi-swarm run; the
    diversity column is diagnostic only.
    """
    return run_gpso_lockstep(config, spec, [seed])[0]


def run_gpso_lockstep(config: AmpsoConfig, spec: ObjectiveSpec, seeds, trace: bool = True) -> list[RunResult]:
    """``[run_gpso(config, spec, seed) for seed in seeds]`` bit for bit, stepped in lockstep.

    Every gpso run of one config and problem takes the same iterations
    with the same inertia, so up to :data:`LOCKSTEP_RUNS` runs at a time
    step as the groups of one swarm: one reading, one step and one
    objective call an iteration instead of one per run.  A problem with a
    rotation runs one run at a time, because a stacked ``x @ Q.T`` need
    not round as each run's own product does.

    With ``trace=False`` the runs make no diversity reading and no
    evolution rate, and each result's ``trace`` is ``[]``: in gpso they
    steer nothing and only fill trace columns, which a campaign does not
    write.  Every other field is what the traced run gives, bit for bit.
    """
    seeds = list(seeds)
    width = LOCKSTEP_RUNS if spec.rotation is None else 1
    results = []
    for start in range(0, len(seeds), width):
        runs = [_Run(config, spec, seed, "gpso") for seed in seeds[start : start + width]]
        _gpso(runs, trace)
        results += [run.result() for run in runs]
    return results


def _gpso(runs: list[_Run], trace: bool) -> None:
    """Run the gpso ``runs``, which share a config and a problem, as one swarm of a group per run.

    Each run builds its swarm from its own stream and counter and, when
    traced, logs it; then the swarms are stacked and every iteration
    steps and evaluates them together.  Run g's draws fill group g's
    slice of the step's block from run g's stream (:class:`_Streams`).
    The runs share one budget and spend alike, so the stacked swarm
    spends on one counter holding k times the lead run's budget and use,
    and each run's own counter takes its group's rows every iteration:
    each run's record is the one it would make alone.  Untraced, a run's
    best-ever is its group's final global best, which only ever improved
    and is what the traced log would have kept.  A single run takes the
    same loop with k = 1, stepping its own swarm with its own stream.
    """
    lead, k = runs[0], len(runs)
    config, size = lead.config, lead.config.convergence_size
    swarms = []
    for run in runs:
        run.open_phase("gpso")
        swarms.append(initialize_swarm(run.spec, size, run.rng, run.speed.upper, run.counter))
        if trace:
            run.cover(swarms[-1])
    if trace:
        histories = [FitnessHistory(window=config.rate_window) for _ in runs]
    swarm, rng = (swarms[0], lead.rng) if k == 1 else (Swarm.stack(swarms), _Streams(runs))
    counter = EvalCounter(budget=k * lead.counter.budget, used=k * lead.counter.used)
    rows, iteration = swarm.size, 0
    while counter.remaining >= rows:
        iteration += 1
        omega = linear_inertia(iteration, lead.total_iterations)
        if trace:
            diversities = lead.diversity(swarm)  # of the swarm before the step
        pso_step(swarm, lead.kinematics(omega), lead.spec, rng, counter)
        for run in runs:
            run.counter.spend(size)
        if trace:
            bests = zip(swarm.global_best_position, swarm.global_best_fitness)  # run g's best is group g's
            for run, history, best, diversity in zip(runs, histories, bests, diversities):
                run.iteration = iteration
                history.record(best[1])
                run.log(best, diversity, omega, evolution_rate(history))
    if not trace:
        for run, position, fitness in zip(runs, swarm.global_best_position, swarm.global_best_fitness):
            run.best_position, run.best_fitness = position.copy(), fitness


class _Streams:
    """The streams of lockstep runs as one: a (k, ...) uniform block fills
    its group g from run g's stream, as run g alone would draw it."""

    def __init__(self, runs: list[_Run]):
        self.streams = [run.rng for run in runs]

    def uniform(self, size: tuple[int, ...]) -> np.ndarray:
        block = np.empty(size)
        for group, stream in zip(block, self.streams):
            group[...] = stream.uniform(size=size[1:])
        return block
