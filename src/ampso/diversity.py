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

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import Bounds, Swarm

__all__ = [
    "DiversityReading",
    "histogram_entropy",
    "position_diversity",
    "fitness_diversity",
    "hybrid_diversity",
    "adap_center_diversity",
    "adap_pairwise_diversity",
]


@dataclass(frozen=True)
class DiversityReading:
    """Per-iteration diversity snapshot feeding the control laws."""

    position_entropy: float
    fitness_entropy: float
    hybrid: float
    per_dimension: np.ndarray


def _bin_counts(values: np.ndarray, lo: np.ndarray, hi: np.ndarray, bins: int) -> np.ndarray:
    """Occupancy counts of ``bins`` equal cells of [lo, hi], per column.

    ``values`` is (n, m) with per-column ranges; returns (m, bins).
    Values at the upper edge land in the last bin.
    """
    width = hi - lo
    scale = bins / np.where(width > 0, width, 1.0)
    # int cast truncates toward zero; the clamps repair both edges
    idx = ((values - lo) * scale).astype(np.intp)
    np.maximum(idx, 0, out=idx)
    np.minimum(idx, bins - 1, out=idx)
    m = values.shape[1]
    flat = idx + np.arange(m) * bins
    counts = np.bincount(flat.ravel(), minlength=m * bins)
    return counts.reshape(m, bins)


def _entropy_from_counts(counts: np.ndarray, n: int, bins: int) -> np.ndarray:
    """Normalized entropy -sum p log_Q p per row of a (m, bins) count table."""
    p = counts / n
    terms = p * np.log(np.where(p > 0, p, 1.0))  # empty cells contribute log 1 = 0
    return -terms.sum(axis=-1) / np.log(bins)


def histogram_entropy(values, value_range: tuple[float, float], bins: int) -> float:
    """Occupancy entropy of values over ``bins`` equal cells of [lo, hi].

    Returns a number in [0, 1]: 0 when one cell holds everything (or the
    range is degenerate), 1 when the cells are equally occupied.  Empty
    cells contribute nothing (0 log 0 := 0).
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
    counts = _bin_counts(values[:, None], np.array([lo]), np.array([hi]), bins)
    return float(_entropy_from_counts(counts, values.size, bins)[0])


def position_diversity(swarm: Swarm, bounds: Bounds, bins: int) -> tuple[float, np.ndarray]:
    """Mean per-dimension position entropy over the full search box.

    Returns (mean entropy, vector of per-dimension entropies).
    """
    if swarm.size == 0:
        raise ValueError("swarm must be non-empty")
    if bins < 2:
        raise ValueError("bins must be at least 2")
    counts = _bin_counts(swarm.positions, bounds.lower, bounds.upper, bins)
    per_dim = _entropy_from_counts(counts, swarm.size, bins)
    return float(per_dim.mean()), per_dim


def fitness_diversity(swarm: Swarm, bins: int) -> float:
    """Entropy of current fitness values over their observed [min, max].

    A swarm with all-equal fitness has a degenerate range and reads 0.
    """
    fitness = swarm.current_fitness
    return histogram_entropy(fitness, (float(fitness.min()), float(fitness.max())), bins)


@lru_cache(maxsize=64)
def _histogram_constants(n: int, columns: int, bins: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Read-only constants of :func:`hybrid_diversity` for one swarm shape.

    Returns the table of p log p indexed by occupancy count 0..n (the
    exact terms :func:`_entropy_from_counts` computes), the flat-index
    offset of each column, and log(bins).
    """
    p = np.arange(n + 1) / n
    plogp = p * np.log(np.where(p > 0, p, 1.0))
    offsets = np.arange(columns) * bins
    plogp.setflags(write=False)
    offsets.setflags(write=False)
    return plogp, offsets, np.log(bins)


def hybrid_diversity(swarm: Swarm, bounds: Bounds, bins: int) -> DiversityReading:
    """Average of position and fitness entropy, with both components.

    Equal, bit for bit, to combining :func:`position_diversity` and
    :func:`fitness_diversity`, but bins positions and fitness together:
    one (n, D+1) block whose last column is fitness over its [min, max],
    one ``bincount``, and p log p read from a table indexed by count.
    """
    positions, fitness = swarm.positions, swarm.current_fitness
    n, d = positions.shape
    if n == 0:
        raise ValueError("swarm must be non-empty")
    if bins < 2:
        raise ValueError("bins must be at least 2")
    plogp, offsets, log_bins = _histogram_constants(n, d + 1, bins)
    f_lo, f_hi = np.minimum.reduce(fitness), np.maximum.reduce(fitness)
    f_width = f_hi - f_lo

    scale = np.empty(d + 1)
    np.subtract(bounds.upper, bounds.lower, out=scale[:d])
    scale[d] = f_width if f_width > 0 else 1.0
    np.divide(bins, scale, out=scale)
    block = np.empty((n, d + 1))
    np.subtract(positions, bounds.lower, out=block[:, :d])
    np.subtract(fitness, f_lo, out=block[:, d])
    block *= scale
    # int cast truncates toward zero; the clamps repair both edges
    idx = block.astype(np.intp)
    np.maximum(idx, 0, out=idx)
    np.minimum(idx, bins - 1, out=idx)
    idx += offsets
    counts = np.bincount(idx.ravel(), minlength=(d + 1) * bins).reshape(d + 1, bins)
    entropy = -np.add.reduce(plogp[counts], axis=-1) / log_bins

    per_dim = entropy[:d]
    e_pos = float(np.add.reduce(per_dim) / d)
    # a flat fitness range reads exactly 0.0, as in histogram_entropy
    e_fit = float(entropy[d]) if f_hi != f_lo else 0.0
    return DiversityReading(
        position_entropy=e_pos,
        fitness_entropy=e_fit,
        hybrid=(e_pos + e_fit) / 2.0,
        per_dimension=per_dim,
    )


def adap_center_diversity(swarm: Swarm, bounds: Bounds) -> float:
    """Mean distance from the swarm centroid, normalized by the box diagonal."""
    if swarm.size == 0:
        raise ValueError("swarm must be non-empty")
    center = swarm.positions.mean(axis=0)
    distances = np.linalg.norm(swarm.positions - center, axis=1)
    return float(distances.sum() / (swarm.size * bounds.diagonal_length))


def adap_pairwise_diversity(swarm: Swarm, bounds: Bounds) -> float:
    """Mean of per-particle mean pairwise distances, normalized by the diagonal."""
    if swarm.size == 0:
        raise ValueError("swarm must be non-empty")
    x = swarm.positions
    pairwise = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=-1)
    return float(pairwise.mean(axis=1).sum() / (swarm.size * bounds.diagonal_length))
