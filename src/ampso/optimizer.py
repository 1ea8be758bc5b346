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

import math
import numbers
from dataclasses import dataclass, field, fields, replace
from typing import get_type_hints

import numpy as np

from .adaptation import (
    FitnessHistory,
    StagnationCounter,
    evolution_rate,
    linear_inertia,
    omega_exploration,
    omega_standard,
    reconstruct_probability,
    sigma_reconstruction,
)
from .core import EvalCounter, ObjectiveSpec, RngStream, initialize_swarm
from .diversity import hybrid_diversity
from .swarm_ops import KinematicParams, full_reconstruct, partial_reconstruct, pso_step, spawn_artificial_swarm

__all__ = [
    "ConfigError",
    "AmpsoConfig",
    "IterationPlan",
    "PhaseSpan",
    "PhaseState",
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

    ``fe_budget`` left as None resolves to 10000 x dimension.  The
    iteration budget is ``fe_budget // convergence_size``; each
    exploration block runs ``exploration_ratio`` of it, exploitation
    blocks are capped at ``exploitation_ratio`` of it, and every
    exploitation iteration rebuilds ``replace_ratio`` of that swarm.
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
    expl_omega_scale: float = 0.67
    expl_omega_rate: float = 2.67

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
        if self.fe_budget is not None and self.fe_budget < 1:
            raise ConfigError("fe_budget must be a positive integer")
        if not 0 <= int(self.seed) < 2**64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")

    def resolved_budget(self, dimension: int) -> int:
        return self.fe_budget if self.fe_budget is not None else 10000 * dimension

    def plan(self, budget: int) -> "IterationPlan":
        total = budget // self.convergence_size
        return IterationPlan(
            total_iterations=total,
            exploration_iterations=round(self.exploration_ratio * total),
            exploitation_cap=round(self.exploitation_ratio * total),
            replace_count=round(self.replace_ratio * self.exploitation_size),
        )

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in fields(cls))

    def with_overrides(self, **overrides) -> "AmpsoConfig":
        unknown = set(overrides) - set(self.field_names())
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        return replace(self, **overrides)


@dataclass(frozen=True)
class IterationPlan:
    """Iteration quotas derived from a budget."""

    total_iterations: int
    exploration_iterations: int
    exploitation_cap: int
    replace_count: int


@dataclass
class PhaseSpan:
    """One contiguous stretch of a phase, in evaluation coordinates."""

    phase: str
    start_fe: int
    end_fe: int


@dataclass
class PhaseState:
    """Controller bookkeeping: the active phase and its iteration counters.

    ``iterations_done`` accumulates across the whole run; ``t``, the
    history and the stagnation counter belong to the active swarm and
    reset at every phase boundary.
    """

    phase: str
    window: int
    iterations_done: int = 0
    t: int = 0
    stagnation: StagnationCounter = field(init=False)
    history: FitnessHistory = field(init=False)

    def __post_init__(self):
        self.stagnation = StagnationCounter()
        self.history = FitnessHistory(window=self.window)

    def enter(self, phase: str) -> None:
        self.phase = phase
        self.t = 0
        self.history = FitnessHistory(window=self.window)
        self.stagnation = StagnationCounter()

    def advance(self) -> None:
        self.iterations_done += 1
        self.t += 1


@dataclass(frozen=True)
class TracePoint:
    """One logged iteration.  ``best_error`` is the best-ever error so far."""

    fe: int
    iteration: int
    phase: str
    best_error: float
    diversity: float
    omega: float
    evolution_rate: float


@dataclass
class RunResult:
    """Outcome of one optimizer run."""

    best_position: np.ndarray
    best_error: float
    fe_used: int
    trace: list[TracePoint]
    phase_log: list[PhaseSpan]


class _Incumbent:
    """Best-ever solution across all swarms and phases of one run."""

    def __init__(self):
        self.position: np.ndarray | None = None
        self.fitness = math.inf

    def offer(self, position: np.ndarray, fitness: float) -> None:
        if fitness < self.fitness:
            self.fitness = float(fitness)
            self.position = np.asarray(position, dtype=float).copy()


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
    sub-swarms and have no evolution rate.
    """
    config.validate()
    if seed is None:
        seed = config.seed
    rng = RngStream(seed)
    budget = config.resolved_budget(spec.dimension)
    plan = config.plan(budget)
    counter = EvalCounter(budget=budget)
    bounds = spec.bounds
    vmax = config.vmax_factor * bounds.span
    f_star = spec.optimum_value

    incumbent = _Incumbent()
    trace: list[TracePoint] = []
    phase_log: list[PhaseSpan] = []
    state = PhaseState(EXPLORATION, window=config.rate_window)

    def log(diversity: float, omega: float, er: float) -> None:
        trace.append(
            TracePoint(
                fe=counter.used,
                iteration=state.iterations_done,
                phase=state.phase,
                best_error=incumbent.fitness - f_star,
                diversity=diversity,
                omega=omega,
                evolution_rate=er,
            )
        )

    # ---- alternating exploration / exploitation
    while True:
        if counter.remaining < config.exploration_size:
            break
        state.enter(EXPLORATION)
        phase_log.append(PhaseSpan(EXPLORATION, counter.used, counter.used))
        subs = [
            initialize_swarm(spec, config.sub_swarm_size, "exploration-sub", rng, vmax, counter)
            for _ in range(config.exploration_size // config.sub_swarm_size)
        ]
        for sub in subs:
            incumbent.offer(sub.global_best_position, sub.global_best_fitness)
        if not trace:
            readings = [hybrid_diversity(s, bounds, config.entropy_bins).hybrid for s in subs]
            log(float(np.mean(readings)), math.nan, math.nan)

        while state.t < plan.exploration_iterations:
            if counter.remaining < config.exploration_size:
                break
            state.advance()
            diversities, omegas = [], []
            for sub in subs:
                e = hybrid_diversity(sub, bounds, config.entropy_bins).hybrid
                w = omega_exploration(e, config.expl_omega_scale, config.expl_omega_rate)
                pso_step(sub, KinematicParams(w, config.c1, config.c2, vmax), spec, rng, counter)
                diversities.append(e)
                omegas.append(w)
            for sub in subs:
                incumbent.offer(sub.global_best_position, sub.global_best_fitness)
            log(float(np.mean(diversities)), float(np.mean(omegas)), math.nan)
        phase_log[-1].end_fe = counter.used

        # best particle over all sub-swarms seeds the exploitation swarm
        if counter.remaining < config.exploitation_size:
            break
        seed_pos, seed_fit = subs[0].global_best_position, subs[0].global_best_fitness
        for sub in subs[1:]:
            if sub.global_best_fitness < seed_fit:
                seed_pos, seed_fit = sub.global_best_position, sub.global_best_fitness
        state.enter(EXPLOITATION)
        phase_log.append(PhaseSpan(EXPLOITATION, counter.used, counter.used))
        swarm = spawn_artificial_swarm(
            seed_pos, seed_fit, config.exploitation_size, spec, rng, counter, EXPLOITATION, vmax
        )
        incumbent.offer(swarm.global_best_position, swarm.global_best_fitness)

        while state.t < plan.exploitation_cap and counter.remaining >= config.exploitation_size:
            state.advance()
            reading = hybrid_diversity(swarm, bounds, config.entropy_bins)
            omega = omega_standard(reading.hybrid)
            sigma = sigma_reconstruction(reading.hybrid)
            partial_reconstruct(swarm, plan.replace_count, sigma, bounds, spec, rng, counter)
            chosen = rng.permutation(swarm.size)[: swarm.size - plan.replace_count]
            pso_step(
                swarm, KinematicParams(omega, config.c1, config.c2, vmax), spec, rng, counter, chosen
            )
            state.history.record(swarm.global_best_fitness)
            er = evolution_rate(state.history)
            incumbent.offer(swarm.global_best_position, swarm.global_best_fitness)
            log(reading.hybrid, omega, er)
            if er < config.stagnation_threshold:
                break
        phase_log[-1].end_fe = counter.used

        if state.iterations_done > plan.total_iterations / 3:
            break

    # ---- terminal convergence phase
    if counter.remaining >= config.convergence_size and incumbent.position is not None:
        state.enter(CONVERGENCE)
        phase_log.append(PhaseSpan(CONVERGENCE, counter.used, counter.used))
        swarm = spawn_artificial_swarm(
            incumbent.position,
            incumbent.fitness,
            config.convergence_size,
            spec,
            rng,
            counter,
            CONVERGENCE,
            vmax,
        )
        incumbent.offer(swarm.global_best_position, swarm.global_best_fitness)
        while counter.remaining >= config.convergence_size:
            state.advance()
            reading = hybrid_diversity(swarm, bounds, config.entropy_bins)
            omega = omega_standard(reading.hybrid)
            sigma = sigma_reconstruction(reading.hybrid)
            state.history.record(swarm.global_best_fitness)
            er = evolution_rate(state.history)
            if er < config.stagnation_threshold:
                state.stagnation.bump()
            p_rebuild = reconstruct_probability(plan.total_iterations, state.stagnation.count)
            if rng.uniform() < p_rebuild:
                full_reconstruct(swarm, sigma, bounds, spec, rng, counter)
                state.stagnation.reset()
            else:
                pso_step(swarm, KinematicParams(omega, config.c1, config.c2, vmax), spec, rng, counter)
            incumbent.offer(swarm.global_best_position, swarm.global_best_fitness)
            log(reading.hybrid, omega, er)
        phase_log[-1].end_fe = counter.used

    return RunResult(
        best_position=incumbent.position,
        best_error=incumbent.fitness - f_star,
        fe_used=counter.used,
        trace=trace,
        phase_log=phase_log,
    )


def run_gpso(config: AmpsoConfig, spec: ObjectiveSpec, seed: int | None = None) -> RunResult:
    """Baseline single-swarm run: global best, inertia 0.9 -> 0.4 linearly.

    Uses ``convergence_size`` particles and the same velocity cap, bound
    handling, budget law and trace contract as the multi-swarm run; the
    diversity column is diagnostic only.
    """
    config.validate()
    if seed is None:
        seed = config.seed
    rng = RngStream(seed)
    budget = config.resolved_budget(spec.dimension)
    counter = EvalCounter(budget=budget)
    bounds = spec.bounds
    vmax = config.vmax_factor * bounds.span
    f_star = spec.optimum_value
    size = config.convergence_size
    total_iterations = budget // size

    swarm = initialize_swarm(spec, size, "gpso", rng, vmax, counter)
    incumbent = _Incumbent()
    incumbent.offer(swarm.global_best_position, swarm.global_best_fitness)
    history = FitnessHistory(window=config.rate_window)
    trace: list[TracePoint] = []

    def log(iteration: int, diversity: float, omega: float, er: float) -> None:
        trace.append(
            TracePoint(
                fe=counter.used,
                iteration=iteration,
                phase="gpso",
                best_error=incumbent.fitness - f_star,
                diversity=diversity,
                omega=omega,
                evolution_rate=er,
            )
        )

    log(0, hybrid_diversity(swarm, bounds, config.entropy_bins).hybrid, math.nan, math.nan)
    t = 0
    while counter.remaining >= size:
        t += 1
        omega = linear_inertia(t, total_iterations)
        reading = hybrid_diversity(swarm, bounds, config.entropy_bins)
        pso_step(swarm, KinematicParams(omega, config.c1, config.c2, vmax), spec, rng, counter)
        history.record(swarm.global_best_fitness)
        incumbent.offer(swarm.global_best_position, swarm.global_best_fitness)
        log(t, reading.hybrid, omega, evolution_rate(history))

    return RunResult(
        best_position=incumbent.position,
        best_error=incumbent.fitness - f_star,
        fe_used=counter.used,
        trace=trace,
        phase_log=[PhaseSpan("gpso", 0, counter.used)],
    )
