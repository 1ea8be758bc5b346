"""Swarm diversity metrics.

The controller is driven by a hybrid reading that averages two normalized
histogram entropies: position entropy over the search box and fitness
entropy over the swarm's current fitness range.  Binning positions against
the full box (rather than the swarm's extent) makes the position entropy
shrink as the swarm concentrates; binning fitness against the observed
range keeps that side sensitive even when the swarm occupies a tiny
region.  Two average-distance metrics are included as diagnostics.

All entropies use base-Q logarithms so their range is exactly [0, 1].
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import Bounds, Swarm

__all__ = [
    "DiversityReading",
    "histogram_entropy",
    "hybrid_diversity",
    "adap_center_diversity",
    "adap_pairwise_diversity",
]


class DiversityReading(NamedTuple):
    """Per-iteration diversity snapshot feeding the control laws."""

    position_entropy: float
    fitness_entropy: float
    hybrid: float
    per_dimension: np.ndarray


def histogram_entropy(values, value_range: tuple[float, float], bins: int) -> float:
    """Occupancy entropy of values over ``bins`` equal cells of [lo, hi].

    Returns a number in [0, 1]: 0 when one cell holds everything (or the
    range is degenerate), 1 when the cells are equally occupied.  Empty
    cells contribute nothing (0 log 0 := 0).  Values at the upper edge
    land in the last cell.  A range or a cell scale ``bins / (hi - lo)``
    past the float range is binned as everything divided by the largest
    magnitude of the range, so it reads without a floating-point warning.
    """
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        raise ValueError("values must be non-empty")
    if bins < 2:
        raise ValueError("bins must be at least 2")
    lo, hi = float(value_range[0]), float(value_range[1])
    if hi < lo:
        raise ValueError("range upper end must not be below its lower end")
    if hi == lo:
        return 0.0
    if not 0.0 < bins / (hi - lo) < math.inf:  # bin over the largest magnitude, whose range and scale fit
        top = max(abs(lo), abs(hi))
        values, lo, hi = values / top, lo / top, hi / top
    # the int cast truncates toward zero; the clip repairs both edges
    cells = ((values - lo) * (bins / (hi - lo if hi > lo else 1.0))).astype(np.intp).clip(0, bins - 1)
    p = np.bincount(cells, minlength=bins) / values.size
    terms = p * np.log(np.where(p > 0, p, 1.0))  # empty cells contribute log 1 = 0
    return float(-terms.sum() / np.log(bins))


@lru_cache(maxsize=64)
def _histogram_constants(
    n: int, d: int, bins: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """Read-only constants of :func:`hybrid_diversity` for one swarm shape.

    Returns the table of p log p indexed by occupancy count 0..n (the
    exact terms :func:`histogram_entropy` computes), the flat bincount
    offset of every value of an (n, D) position block followed by n
    fitness values, the first and last bin index repeated over that flat
    block (a same-shape operand costs less than a scalar), and -log(bins):
    dividing by it negates exactly, signed zeros included, so the entropy
    takes one operation fewer.
    """
    p = np.arange(n + 1) / n
    plogp = p * np.log(np.where(p > 0, p, 1.0))
    offsets = np.concatenate([np.tile(np.arange(d) * bins, n), np.full(n, d * bins)])
    first, last = np.zeros_like(offsets), np.full_like(offsets, bins - 1)
    for table in (plogp, offsets, first, last):
        table.setflags(write=False)
    return plogp, offsets, first, last, -np.log(bins)


def hybrid_diversity(swarm: Swarm, bounds: Bounds, bins: int) -> DiversityReading:
    """Average of position and fitness entropy, with both components.

    Its reference is :func:`histogram_entropy`: per box dimension over
    [lower, upper] for ``per_dimension`` (whose mean is
    ``position_entropy``) and over the fitness's [min, max] for
    ``fitness_entropy``.  It equals that reference bit for bit, but bins
    positions and fitness together: one flat block, the (n, D) positions
    over the box followed by the n fitness values over their [min, max],
    one ``bincount`` (whose counts do not depend on the order of the
    values), and p log p read from a table indexed by count.  A fitness
    range past the float range takes the same detour as in
    :func:`histogram_entropy`.  The flat block and its bin indices live in
    the swarm's scratch arrays.
    """
    positions, fitness = swarm.positions, swarm.current_fitness
    n, d = positions.shape
    if n == 0:
        raise ValueError("swarm must be non-empty")
    if bins < 2:
        raise ValueError("bins must be at least 2")
    plogp, offsets, first, last, neg_log_bins = _histogram_constants(n, d, bins)
    # in Python floats a range or scale past the float range reads inf or 0, without a warning
    f_lo, f_hi = float(fitness[fitness.argmin()]), float(fitness[fitness.argmax()])
    f_scale = bins / (f_hi - f_lo) if f_hi != f_lo else 1.0

    block = swarm.scratch("cells", (n * (d + 1),))
    cells, fitness_cells = block[: n * d].reshape(n, d), block[n * d :]
    np.subtract(positions, bounds.rows(n)[0], out=cells)
    cells *= bounds.grid_scale(n, bins)
    if 0.0 < f_scale < math.inf:
        np.subtract(fitness, f_lo, out=fitness_cells)
        fitness_cells *= f_scale
    else:  # bin the fitness over its largest magnitude, whose range and scale fit
        top = max(abs(f_lo), abs(f_hi))
        np.divide(fitness, top, out=fitness_cells)
        fitness_cells -= f_lo / top
        fitness_cells *= bins / (f_hi / top - f_lo / top)
    # the unsafe cast truncates toward zero, as astype does; the clamps repair both edges
    idx = swarm.scratch("bins", block.shape, np.intp)
    np.copyto(idx, block, casting="unsafe")
    np.maximum(idx, first, out=idx)
    np.minimum(idx, last, out=idx)
    idx += offsets
    counts = np.bincount(idx, minlength=(d + 1) * bins).reshape(d + 1, bins)
    entropy = np.add.reduce(plogp[counts], axis=-1) / neg_log_bins

    per_dim = entropy[:d]
    e_pos = float(np.add.reduce(per_dim) / d)
    # a flat fitness range reads exactly 0.0, as in histogram_entropy
    e_fit = float(entropy[d]) if f_hi != f_lo else 0.0
    return DiversityReading(e_pos, e_fit, (e_pos + e_fit) / 2.0, per_dim)


def adap_center_diversity(swarm: Swarm, bounds: Bounds) -> float:
    """Mean distance from the swarm centroid, normalized by the box diagonal."""
    if swarm.size == 0:
        raise ValueError("swarm must be non-empty")
    center = swarm.positions.mean(axis=0)
    distances = np.linalg.norm(swarm.positions - center, axis=1)
    return float(distances.sum() / (swarm.size * np.linalg.norm(bounds.span)))


def adap_pairwise_diversity(swarm: Swarm, bounds: Bounds) -> float:
    """Mean of per-particle mean pairwise distances, normalized by the diagonal."""
    if swarm.size == 0:
        raise ValueError("swarm must be non-empty")
    x = swarm.positions
    pairwise = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=-1)
    return float(pairwise.mean(axis=1).sum() / (swarm.size * np.linalg.norm(bounds.span)))
