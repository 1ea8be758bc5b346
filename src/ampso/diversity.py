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
    """Per-iteration diversity snapshot feeding the control laws.

    A swarm of one group reads as floats and a (D,) ``per_dimension``; of
    k > 1 groups, each field holds one reading per group.
    """

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
    A NaN or infinite value, or one outside [lo, hi] when hi > lo, is a
    ``ValueError`` naming how many there are; so is a range with a NaN or
    infinite end.
    """
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        raise ValueError("values must be non-empty")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"values must be finite: {np.sum(~np.isfinite(values))} of {values.size} are not")
    if bins < 2:
        raise ValueError("bins must be at least 2")
    lo, hi = float(value_range[0]), float(value_range[1])
    if not -math.inf < lo <= hi < math.inf:  # written so a NaN end fails
        raise ValueError(f"range must be finite with its upper end not below its lower end, got {value_range!r}")
    if hi == lo:
        return 0.0
    outside = np.count_nonzero((values < lo) | (values > hi))
    if outside:
        raise ValueError(f"values must lie in [{lo!r}, {hi!r}]: {outside} of {values.size} do not")
    if not 0.0 < bins / (hi - lo) < math.inf:  # bin over the largest magnitude, whose range and scale fit
        top = max(abs(lo), abs(hi))
        values, lo, hi = values / top, lo / top, hi / top
    # the int cast truncates toward zero; the clip puts the upper edge in the last cell
    cells = ((values - lo) * (bins / (hi - lo if hi > lo else 1.0))).astype(np.intp).clip(0, bins - 1)
    p = np.bincount(cells, minlength=bins) / values.size
    terms = p * np.log(np.where(p > 0, p, 1.0))  # empty cells contribute log 1 = 0
    return float(-terms.sum() / np.log(bins))


def grid_scale(bounds: Bounds, bins: int) -> np.ndarray:
    """The cell scale ``bins / span`` of a grid of ``bins`` equal cells per box dimension.

    ``(x - lower) * grid_scale(bounds, bins)`` maps a point of the box
    onto the grid.  A box too narrow for the grid, one whose ``bins /
    span`` lies past the float range, is a ``ValueError``.
    """
    with np.errstate(over="ignore"):
        scale = bins / bounds.span
    if not np.all(np.isfinite(scale)):
        raise ValueError(f"every span must be wide enough for {bins} bins: bins / span lies past the float range")
    return scale


def _bind(swarm: Swarm, bounds: Bounds, bins: int) -> tuple:
    """The operands and scratch :func:`hybrid_diversity` binds for ``swarm`` over ``bounds`` in ``bins`` cells.

    Returns the box's lower-bound and grid-scale row blocks; the flat
    block of the (n, D) positions followed by the n fitness values, its
    (n, D) view of the positions, each group's rows paired with its view
    of the fitness values, and the block's bin indices; the table of
    p log p indexed by occupancy count 0..s (the exact terms
    :func:`histogram_entropy` computes), the flat bincount offset of every
    value of the block (each group's D + 1 histograms after the previous
    group's), the first and last bin index repeated over the block (a
    same-shape operand costs less than a scalar), -log(bins): dividing by
    it negates exactly, signed zeros included, so the entropy takes one
    operation fewer, the number of cells and the shape of the counts.
    """
    work, (n, d) = swarm.work, swarm.positions.shape
    k, s = n // work.size, work.size
    block = np.empty(n * (d + 1))
    fitness_groups = [(slice(i, i + s), block[n * d + i : n * d + i + s]) for i in range(0, n, s)]
    p = np.arange(s + 1) / s
    plogp = p * np.log(np.where(p > 0, p, 1.0))
    group = np.repeat(np.arange(k) * (d + 1) * bins, s)
    offsets = np.concatenate([(group[:, None] + np.arange(d) * bins).ravel(), group + d * bins])
    first, last = np.zeros_like(offsets), np.full_like(offsets, bins - 1)
    scratch = block, block[: n * d].reshape(n, d), fitness_groups, np.empty(block.shape, np.intp)
    shape = (d + 1, bins) if k == 1 else (k, d + 1, bins)  # one group reads as floats
    constants = plogp, offsets, first, last, -np.log(bins), k * (d + 1) * bins, shape
    return np.tile(bounds.lower, (n, 1)), np.tile(grid_scale(bounds, bins), (n, 1)), *scratch, *constants


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
    :func:`histogram_entropy`.  A position outside the box, which no
    operator leaves, counts in an edge cell of its own dimension.  The
    reading owns its flat block and bin indices: it binds them, with the
    operands it builds from the box, in the swarm's
    :class:`~ampso.core.Workspace` once per box and bin count.

    A swarm of one group reads as floats and a (D,) ``per_dimension``.  A
    swarm of k > 1 groups is read as k swarms, in the same ``bincount``:
    each group's fitness over its own [min, max], the detour taken per
    group.  Each field then holds one reading per group: a list of k
    floats, and a (k, D) ``per_dimension``.
    """
    positions, fitness = swarm.positions, swarm.current_fitness
    n, d = positions.shape
    if n == 0:
        raise ValueError("swarm must be non-empty")
    if bins < 2:
        raise ValueError("bins must be at least 2")
    work = swarm.work
    key = (bounds, bins)
    if key != work.reading_key:
        work.reading_key, work.reading = key, _bind(swarm, bounds, bins)
    lower, grid_scale, block, cells, groups, idx, plogp, offsets, first, last, neg_log_bins, n_cells, shape = work.reading
    np.subtract(positions, lower, out=cells)
    cells *= grid_scale
    for rows, out in groups:
        group = fitness[rows]
        # in Python floats a range or scale past the float range reads inf or 0, without a warning
        f_lo, f_hi = float(group[group.argmin()]), float(group[group.argmax()])
        f_scale = bins / (f_hi - f_lo) if f_hi != f_lo else 1.0
        if 0.0 < f_scale < math.inf:
            np.subtract(group, f_lo, out=out)
            out *= f_scale
        else:  # bin the fitness over its largest magnitude, whose range and scale fit
            top = max(abs(f_lo), abs(f_hi))
            np.divide(group, top, out=out)
            out -= f_lo / top
            out *= bins / (f_hi / top - f_lo / top)
    # assignment casts unsafely, truncating toward zero as astype does; the
    # clamps put the upper edge in the last cell and keep every index in its
    # own dimension's bins
    idx[...] = block
    np.maximum(idx, first, out=idx)
    np.minimum(idx, last, out=idx)
    idx += offsets
    counts = np.bincount(idx, minlength=n_cells).reshape(shape)
    entropy = np.add.reduce(plogp[counts], axis=-1) / neg_log_bins

    per_dim = entropy[..., :d]
    sums, fits = np.add.reduce(per_dim, axis=-1), entropy[..., d]
    # a flat fitness range reads -0.0 and, with 0.0 added, exactly 0.0, as
    # in histogram_entropy; any other range reads above 0
    if per_dim.ndim == 1:
        e_pos, e_fit = float(sums) / d, float(fits) + 0.0
        return DiversityReading(e_pos, e_fit, (e_pos + e_fit) / 2.0, per_dim)
    e_pos, e_fit = [total / d for total in sums.tolist()], [e + 0.0 for e in fits.tolist()]
    return DiversityReading(e_pos, e_fit, [(p + f) / 2.0 for p, f in zip(e_pos, e_fit)], per_dim)


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
