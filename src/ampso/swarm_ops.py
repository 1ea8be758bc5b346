"""Swarm transition operators.

Four moves cover everything the optimizer does to a population: the
kinematic velocity/position step, spawning a fresh swarm around an
incumbent best, rebuilding the worst few particles one dimension at a
time, and rebuilding the whole swarm.  Operators mutate the swarm in
place, spend evaluations through the shared counter, and keep the swarm's
global best monotone.

Each operator checks its whole cost before it draws or writes anything: on
a budget shortfall it raises :class:`BudgetExhausted` having spent nothing
and left the swarm as it was.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    EvalCounter,
    ObjectiveSpec,
    RngStream,
    Swarm,
    evaluate_batch,
)

__all__ = [
    "KinematicParams",
    "SPAWN_SPREAD",
    "pso_step",
    "spawn_artificial_swarm",
    "partial_reconstruct",
    "full_reconstruct",
]

# Gaussian spread used when generating a swarm around a seed position;
# reconstruction operators take an adaptive spread instead.
SPAWN_SPREAD = 0.1


@dataclass(frozen=True)
class KinematicParams:
    """Velocity-update coefficients and the per-dimension speed cap."""

    omega: float
    c1: float
    c2: float
    vmax: np.ndarray


def _clip_into(values: np.ndarray, low: np.ndarray, high: np.ndarray) -> None:
    """Clip ``values`` into [low, high] in place (np.clip costs more per call)."""
    np.maximum(values, low, out=values)
    np.minimum(values, high, out=values)


def pso_step(
    swarm: Swarm,
    params: KinematicParams,
    spec: ObjectiveSpec,
    rng: RngStream,
    counter: EvalCounter,
    subset: np.ndarray | None = None,
) -> None:
    """One velocity/position update of the selected particles.

    v <- omega*v + c1*r1*(pbest - x) + c2*r2*(gbest - x), with fresh r1
    and r2 for every particle and dimension, velocity clipped to +-vmax,
    position clipped to the bounds, then one re-evaluation per particle.
    Unselected particles are untouched.  Draw order: one (2, n, D) uniform
    block, r1 then r2 (the same stream as an r1 block followed by an r2
    block).
    """
    if subset is None:
        sel = slice(None)  # a slice selects views, so the in-place updates write through
    else:
        sel = np.asarray(subset, dtype=np.intp)
    x = swarm.positions[sel]
    counter.require(len(x))
    v = swarm.velocities[sel]
    r1, r2 = rng.uniform(size=(2, len(x), swarm.dimension))
    r1 *= params.c1
    r1 *= swarm.best_positions[sel] - x
    r2 *= params.c2
    r2 *= swarm.global_best_position - x
    v *= params.omega
    v += r1
    v += r2
    _clip_into(v, -params.vmax, params.vmax)
    x += v
    _clip_into(x, spec.bounds.lower, spec.bounds.upper)
    if subset is not None:  # fancy indexing handed out copies
        swarm.velocities[sel] = v
        swarm.positions[sel] = x
    fitness = evaluate_batch(spec, x, counter)
    swarm.current_fitness[sel] = fitness
    # fold the fresh evaluations into the personal and global bests
    rows = (fitness < swarm.best_fitness[sel]).nonzero()[0]
    winners = rows if subset is None else sel[rows]
    swarm.best_positions[winners] = x[rows]
    swarm.best_fitness[winners] = fitness[rows]
    swarm.refresh_global_best()


def spawn_artificial_swarm(
    seed_position: np.ndarray,
    seed_fitness: float,
    size: int,
    spec: ObjectiveSpec,
    rng: RngStream,
    counter: EvalCounter,
    vmax: np.ndarray,
) -> Swarm:
    """Generate a swarm by Gaussian perturbation of a known-good position.

    Each particle lands at seed + span * g with g ~ N(0, 0.1^2) per
    dimension, clipped to the box; velocities start uniform in +-vmax.
    Costs ``size`` evaluations; the seed itself is not re-evaluated, and
    it remains the swarm's global best unless a spawned particle beats it.
    Draw order: Gaussian offsets, velocities, then the evaluation.
    """
    if size < 1:
        raise ValueError("size must be at least 1")
    counter.require(size)
    bounds = spec.bounds
    positions = rng.normal(0.0, SPAWN_SPREAD, size=(size, spec.dimension))
    positions *= bounds.span
    positions += seed_position
    _clip_into(positions, bounds.lower, bounds.upper)
    velocities = rng.uniform(low=-1.0, high=1.0, size=(size, spec.dimension)) * vmax
    fitness = evaluate_batch(spec, positions, counter)
    return Swarm.fresh(positions, velocities, fitness, incumbent=(seed_position, seed_fitness))


def _install(swarm: Swarm, sel, positions: np.ndarray, fitness: np.ndarray) -> None:
    """Put rebuilt particles at rows ``sel``: at rest, personal best = new point."""
    swarm.positions[sel] = positions
    swarm.velocities[sel] = 0.0
    swarm.current_fitness[sel] = fitness
    swarm.best_positions[sel] = positions
    swarm.best_fitness[sel] = fitness
    swarm.refresh_global_best()


def _worst_indices(current_fitness: np.ndarray, n: int) -> np.ndarray:
    """Indices of the n largest fitness values; ties go to the lower index."""
    return np.argsort(-current_fitness, kind="stable")[:n]


def partial_reconstruct(
    swarm: Swarm,
    n_worst: int,
    sigma: float,
    spec: ObjectiveSpec,
    rng: RngStream,
    counter: EvalCounter,
) -> None:
    """Rebuild the worst particles as one-dimension perturbations of the best.

    Each of the ``n_worst`` particles with the largest current fitness is
    moved onto the global best position, except for a single uniformly
    chosen dimension d set to best[d] + span[d] * r with r ~ N(0, sigma^2),
    clipped to the box.  Rebuilt particles get velocity 0 and their
    personal best reset to the new point (a stale best would drag them
    straight back).  Costs ``n_worst`` evaluations.  Draw order: dimension
    picks, then Gaussian offsets.
    """
    if n_worst > swarm.size:
        raise ValueError("cannot reconstruct more particles than the swarm holds")
    if n_worst < 1:
        raise ValueError("n_worst must be at least 1")
    if sigma <= 0:
        raise ValueError("sigma must be positive")

    idx = _worst_indices(swarm.current_fitness, n_worst)
    counter.require(n_worst)
    dims = rng.integers(0, swarm.dimension, size=n_worst)
    r = rng.normal(0.0, sigma, size=n_worst)
    positions = np.empty((n_worst, swarm.dimension))
    positions[:] = swarm.global_best_position
    positions[np.arange(n_worst), dims] += spec.bounds.span[dims] * r
    _clip_into(positions, spec.bounds.lower, spec.bounds.upper)
    _install(swarm, idx, positions, evaluate_batch(spec, positions, counter))


def full_reconstruct(
    swarm: Swarm,
    sigma: float,
    spec: ObjectiveSpec,
    rng: RngStream,
    counter: EvalCounter,
) -> None:
    """Rebuild every particle around the global best to escape a trap.

    Unlike :func:`partial_reconstruct`, all dimensions are perturbed:
    x <- best + span * g with g ~ N(0, sigma^2) per dimension, clipped.
    Velocities reset to 0 and personal bests to the new points; the
    pre-reconstruction global best is retained unless beaten.  Costs one
    evaluation per particle.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    counter.require(swarm.size)
    positions = rng.normal(0.0, sigma, size=(swarm.size, swarm.dimension))
    positions *= spec.bounds.span
    positions += swarm.global_best_position
    _clip_into(positions, spec.bounds.lower, spec.bounds.upper)
    _install(swarm, slice(None), positions, evaluate_batch(spec, positions, counter))
