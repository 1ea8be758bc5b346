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
    _launch_swarm,
    evaluate_batch,
    is_finite_real,
    safe_repr,
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

    ``omega`` is one inertia, or an (n, 1) column of one per row.
    ``speed`` is the velocity box [-vmax, vmax]; as a :class:`Bounds` it
    keys, by identity, the row blocks :func:`pso_step` binds from it.
    """

    omega: float | np.ndarray
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
    Unselected particles are untouched.  gbest is each particle's group
    best, and ``params.omega`` may be an (n, 1) column, one inertia per
    row.  Draw order: one (k, 2, s, D) uniform
    block, r1 then r2 of each group of s rows in turn (the same stream as
    an r1 block followed by an r2 block, group after group); a subset
    step of fewer than n rows draws as one group.  Both attractors come
    from one subtraction out of the swarm's (pbest, gbest) target block,
    and take their draws in place.  The step binds, in the swarm's
    :class:`~ampso.core.Workspace`, its attractor block, the row blocks
    of both boxes, the c1/c2 block and its mask of improved particles
    once per row count, boxes and coefficients.
    """
    work = swarm.work
    if swarm.global_best_position is not work.gbest:
        work.group_targets[...] = work.gbest = swarm.global_best_position
    if subset is None:
        sel = slice(None)  # a slice selects views, so the in-place updates write through
        x, v, targets = swarm.positions, swarm.velocities, work.targets
    else:
        sel = np.asarray(subset, dtype=np.intp)
        x, v, targets = swarm.positions.take(sel, 0), swarm.velocities.take(sel, 0), work.targets.take(sel, 1)
    n, d = x.shape
    key = (spec.bounds, params.speed, params.c1, params.c2, n)
    if key != work.step_key:  # bind the attractor block, c1 then c2, both boxes' row blocks and the mask
        s = work.size if n == swarm.size else n
        shape = (n // s, 2, s, d)
        coefficients = np.stack([np.full((n // s, s, d), params.c1), np.full((n // s, s, d), params.c2)], axis=1)
        attractors = np.empty((2, n, d))
        # a (k, 2, s, D) view of the (2, n, D) attractors: group g's r1 and r2 meet its own rows
        grouped = attractors.reshape(2, n // s, s, d).swapaxes(0, 1)
        rows = [np.tile(v, (n, 1)) for v in (spec.bounds.lower, spec.bounds.upper, params.speed.lower, params.speed.upper)]
        improved = np.empty(swarm.size, bool)
        work.step_key = key
        work.step = (shape, coefficients, attractors, grouped, *attractors, *rows, improved, improved[:, None])
    shape, coefficients, attractors, grouped, pull_p, pull_g, lower, upper, v_lower, v_upper, improved, improved_rows = work.step
    counter.require(n)
    r = rng.uniform(size=shape)
    r *= coefficients
    np.subtract(targets, x, out=attractors)
    np.multiply(r, grouped, out=grouped)  # c * r * (target - x), in the attractors' own rows
    v *= params.omega
    v += pull_p
    v += pull_g
    # np.maximum then np.minimum is np.clip bit for bit, a tie between
    # signed zeros included; ndarray.clip adds a Python wrapper that costs
    # more than the second ufunc call from about 40 rows up (numpy 2.4)
    np.maximum(v, v_lower, out=v)
    np.minimum(v, v_upper, out=v)
    x += v
    np.maximum(x, lower, out=x)
    np.minimum(x, upper, out=x)
    if subset is not None:  # take handed out copies
        swarm.velocities[sel] = v
        swarm.positions[sel] = x
    fitness = evaluate_batch(spec, x, counter)
    # fold the fresh evaluations into the personal and global bests; the
    # mask holds only selected rows, so no other row is written
    swarm.current_fitness[sel] = fitness
    if subset is None:
        np.less(fitness, swarm.best_fitness, out=improved)
    else:
        improved.fill(False)
        improved[sel] = fitness < swarm.best_fitness[sel]
    np.copyto(swarm.best_fitness, swarm.current_fitness, where=improved)
    np.copyto(swarm.best_positions, swarm.positions, where=improved_rows)
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
    Draw order: Gaussian offsets, velocities, then the evaluation.  A seed
    that is not a finite vector of length D with a finite real fitness is
    a ``ValueError`` naming the argument, raised before anything is spent
    or drawn; so are a size below 1 and a ``vmax`` that is not a positive
    finite vector of length D, as for :func:`~ampso.core.initialize_swarm`.
    """
    if np.shape(seed_position) != (spec.dimension,) or not np.all(np.isfinite(seed_position)):
        raise ValueError(f"seed_position must be a finite vector of length {spec.dimension}, got {seed_position!r}")
    if not is_finite_real(seed_fitness):
        raise ValueError(f"seed_fitness must be a finite real number, got {safe_repr(seed_fitness)}")
    place = lambda: _cloud(seed_position, SPAWN_SPREAD, size, spec, rng)
    return _launch_swarm(spec, size, rng, vmax, counter, place, (seed_position, seed_fitness))


def _cloud(center: np.ndarray, sigma: float, n: int, spec: ObjectiveSpec, rng: RngStream) -> np.ndarray:
    """``n`` points at center + span * g, g ~ N(0, sigma^2) per dimension, clipped to the box."""
    bounds = spec.bounds
    positions = rng.normal(0.0, sigma, size=(n, spec.dimension))
    positions *= bounds.span
    positions += center
    np.maximum(positions, bounds.lower, out=positions)  # np.clip bit for bit, as in pso_step
    np.minimum(positions, bounds.upper, out=positions)
    return positions


def _install(swarm: Swarm, sel, positions: np.ndarray, spec: ObjectiveSpec, counter: EvalCounter, at_rest=0.0) -> None:
    """Evaluate rebuilt particles and put them at rows ``sel``: at rest, personal best = new point.

    ``at_rest`` is what the rebuilt velocities become: 0.0, or a zero block
    of the rows' shape, which a row index assigns for less than a scalar.
    """
    fitness = evaluate_batch(spec, positions, counter)
    swarm.positions[sel] = swarm.best_positions[sel] = positions
    swarm.current_fitness[sel] = swarm.best_fitness[sel] = fitness
    swarm.velocities[sel] = at_rest
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
    moved onto the swarm's best position (:attr:`~ampso.core.Swarm.best`),
    except for a single uniformly chosen dimension d set to best[d] +
    span[d] * r with r ~ N(0, sigma^2), clipped to the box.  Rebuilt
    particles get velocity 0 and their
    personal best reset to the new point (a stale best would drag them
    straight back).  Costs ``n_worst`` evaluations.  Draw order: dimension
    picks, then Gaussian offsets.  The operator binds, in the swarm's
    :class:`~ampso.core.Workspace`, the flat start of each rebuilt row, the
    box's row blocks and a zero velocity block once per box and
    ``n_worst``.
    """
    if n_worst > swarm.size:
        raise ValueError("cannot reconstruct more particles than the swarm holds")
    if n_worst < 1:
        raise ValueError("n_worst must be at least 1")
    if sigma <= 0:
        raise ValueError("sigma must be positive")

    idx = _worst_indices(swarm.current_fitness, n_worst)
    counter.require(n_worst)
    dims = rng.integers(swarm.dimension, size=n_worst)
    r = rng.normal(0.0, sigma, size=n_worst)
    work, bounds, best, d = swarm.work, spec.bounds, swarm.best[0], swarm.dimension
    key = (bounds, n_worst)
    if key != work.rebuild_key:  # bind the flat row starts, the box's row blocks and the rebuilt velocities
        at_rest = np.zeros((n_worst, d))
        at_rest.setflags(write=False)
        work.rebuild_key = key
        work.rebuild = (np.arange(n_worst) * d, np.tile(bounds.lower, (n_worst, 1)), np.tile(bounds.upper, (n_worst, 1)), at_rest)
    starts, lower, upper, at_rest = work.rebuild
    positions = np.empty((n_worst, d))
    positions[:] = best
    # each row's moved coordinate becomes best + span * r there, the same sum a fancy += makes
    positions.put(starts + dims, best[dims] + bounds.span[dims] * r)
    np.maximum(positions, lower, out=positions)
    np.minimum(positions, upper, out=positions)
    _install(swarm, idx, positions, spec, counter, at_rest)


def full_reconstruct(
    swarm: Swarm,
    sigma: float,
    spec: ObjectiveSpec,
    rng: RngStream,
    counter: EvalCounter,
) -> None:
    """Rebuild every particle around the swarm's best to escape a trap.

    Unlike :func:`partial_reconstruct`, all dimensions are perturbed:
    x <- best + span * g with g ~ N(0, sigma^2) per dimension, clipped.
    Velocities reset to 0 and personal bests to the new points; the
    pre-reconstruction global best is retained unless beaten.  Costs one
    evaluation per particle.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    counter.require(swarm.size)
    _install(swarm, slice(None), _cloud(swarm.best[0], sigma, swarm.size, spec, rng), spec, counter)
