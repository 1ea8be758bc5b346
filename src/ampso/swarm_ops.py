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

from typing import NamedTuple

import numpy as np

from .core import (
    Bounds,
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


class KinematicParams(NamedTuple):
    """Velocity-update coefficients and the per-dimension speed cap.

    ``speed`` is the velocity box [-vmax, vmax]; as a :class:`Bounds` it
    keeps the row blocks the clip uses from one step to the next.
    """

    omega: float
    c1: float
    c2: float
    speed: Bounds


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
    block).  The attractors pbest - x and gbest - x and the mask of
    improved particles live in the swarm's scratch arrays.
    """
    if subset is None:
        sel = slice(None)  # a slice selects views, so the in-place updates write through
    else:
        sel = np.asarray(subset, dtype=np.intp)
    x = swarm.positions[sel]
    n = len(x)
    counter.require(n)
    v = swarm.velocities[sel]
    r = rng.uniform(size=(2, n, swarm.dimension))
    attractors = swarm.scratch("attractors", r.shape)
    to_best, to_global = attractors[0], attractors[1]
    np.subtract(swarm.best_positions[sel], x, out=to_best)
    to_global[...] = swarm.global_best_position  # a same-shape operand skips the broadcast set-up
    np.subtract(to_global, x, out=to_global)
    r1, r2 = r[0], r[1]
    r1 *= params.c1
    r2 *= params.c2
    r *= attractors
    v *= params.omega
    v += r1
    v += r2
    # ndarray.clip is one ufunc call; the np.clip function adds a Python
    # wrapper, and np.maximum then np.minimum take two calls.  All three
    # agree on every value, a tie between signed zeros included (numpy 2.4).
    v.clip(*params.speed.rows(n), out=v)
    x += v
    x.clip(*spec.bounds.rows(n), out=x)
    if subset is not None:  # fancy indexing handed out copies
        swarm.velocities[sel] = v
        swarm.positions[sel] = x
    fitness = evaluate_batch(spec, x, counter)
    # fold the fresh evaluations into the personal and global bests; the
    # mask holds only selected rows, so no other row is written
    swarm.current_fitness[sel] = fitness
    improved = swarm.scratch("improved", (swarm.size,), bool)
    if subset is None:
        np.less(fitness, swarm.best_fitness, out=improved)
    else:
        improved.fill(False)
        improved[sel] = fitness < swarm.best_fitness[sel]
    np.copyto(swarm.best_fitness, swarm.current_fitness, where=improved)
    np.copyto(swarm.best_positions, swarm.positions, where=improved[:, None])
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
    positions = _cloud(seed_position, SPAWN_SPREAD, size, spec, rng)
    velocities = (rng.uniform(size=(size, spec.dimension)) * 2.0 - 1.0) * vmax
    fitness = evaluate_batch(spec, positions, counter)
    return Swarm.fresh(positions, velocities, fitness, incumbent=(seed_position, seed_fitness))


def _cloud(center: np.ndarray, sigma: float, n: int, spec: ObjectiveSpec, rng: RngStream) -> np.ndarray:
    """``n`` points at center + span * g, g ~ N(0, sigma^2) per dimension, clipped to the box."""
    positions = rng.normal(0.0, sigma, size=(n, spec.dimension))
    positions *= spec.bounds.span
    positions += center
    positions.clip(*spec.bounds.rows(n), out=positions)
    return positions


def _install(swarm: Swarm, sel, positions: np.ndarray, spec: ObjectiveSpec, counter: EvalCounter) -> None:
    """Evaluate rebuilt particles and put them at rows ``sel``: at rest, personal best = new point."""
    fitness = evaluate_batch(spec, positions, counter)
    swarm.positions[sel] = swarm.best_positions[sel] = positions
    swarm.current_fitness[sel] = swarm.best_fitness[sel] = fitness
    swarm.velocities[sel] = 0.0
    swarm.refresh_global_best()


def _worst_indices(current_fitness: np.ndarray, n: int) -> np.ndarray:
    """Indices of the n largest fitness values; ties go to the lower index."""
    return (-current_fitness).argsort(kind="stable")[:n]


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
    positions.clip(*spec.bounds.rows(n_worst), out=positions)
    _install(swarm, idx, positions, spec, counter)


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
    _install(swarm, slice(None), _cloud(swarm.global_best_position, sigma, swarm.size, spec, rng), spec, counter)
